import dataclasses
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cbp import (
    BisProblem,
    CapabilityError,
    ConflictInstance,
    ParameterError,
    bis_fptas_split,
    bis_ptas,
    knapsack_fptas,
    recognize,
)
from cbp import bis, graphs
from cbp.maxsize import max_size
from cbp.model import Packing, classify_items, fits_within
from cbp.rng import SplitMix64

from conftest import (
    CLASSES,
    bis_brute,
    core_set,
    ref_fptas_split,
    ref_knapsack_exact_int,
    ref_knapsack_scaled_int,
    ref_ptas,
    ref_subset_sum,
    seeded_instance,
    weight_of,
)


def problem_from(instance: ConflictInstance, weights, budget) -> BisProblem:
    return BisProblem(
        vertices=tuple(instance.items),
        adjacency=instance.adjacency,
        weights=weights,
        budget=Fraction(budget) if not isinstance(budget, Fraction) else budget,
        class_info=recognize(instance),
    )


@pytest.mark.parametrize(
    "weight, budget, message",
    [(Fraction(-1, 2), Fraction(1), "negative weight on vertex 1"), (Fraction(1, 2), Fraction(-1), "negative budget -1")],
)
def test_bis_problem_rejects_negative_values(weight, budget, message):
    inst = ConflictInstance({0: "0.5", 1: "0.5"})
    with pytest.raises(ParameterError, match=message):
        problem_from(inst, {0: Fraction(1, 2), 1: weight}, budget)


def size_weights(instance):
    return dict(instance.sizes)


def test_knapsack_examples():
    sizes = {0: Fraction(3, 5), 1: Fraction(1, 2), 2: Fraction(2, 5)}
    chosen = knapsack_fptas([0, 1, 2], sizes, Fraction(1), Fraction(1, 10))
    assert chosen == {0, 2}

    assert knapsack_fptas([0], {0: Fraction(1)}, Fraction(0), Fraction(1, 10)) == frozenset()

    single = {0: Fraction(3, 10)}
    assert knapsack_fptas([0], single, Fraction(1), Fraction(1, 10)) == {0}


def test_knapsack_eps_range():
    with pytest.raises(ParameterError):
        knapsack_fptas([0], {0: Fraction(1)}, Fraction(1), 0)
    with pytest.raises(ParameterError):
        knapsack_fptas([0], {0: Fraction(1)}, Fraction(1), 1)


def test_knapsack_negative_cost_rejected():
    # The scaled DP's live-entry rule needs sizes >= 0, and the subset-sum
    # would shift by a negative count.
    sizes = {0: Fraction(-1, 2), 1: Fraction(1, 2)}
    with pytest.raises(ParameterError, match="negative size on item 0"):
        knapsack_fptas([0, 1], sizes, Fraction(1, 2), Fraction(1, 10))


def test_knapsack_scaled_table_cap(monkeypatch):
    # The profit-scaling DP's table has top + 1 cells, top the sum of the
    # scaled profits; one over the cap is rejected, naming eps, before it
    # is built. Nine-digit sizes over a budget below their sum take that DP.
    units = [123456789, 234567891, 345678912, 456789123, 111111113, 222222227]
    ids, limit, eps = list(range(6)), 10**9, Fraction(1, 1000)
    top = sum(u * len(units) * eps.denominator // (eps.numerator * max(units)) for u in units)
    monkeypatch.setattr(bis, "SCALED_DP_CELL_LIMIT", top + 1)
    got = core_set(bis._knapsack_scaled(ids, units, limit, eps), units)
    assert got == ref_knapsack_scaled_int(ids, units, units, limit, eps)
    monkeypatch.setattr(bis, "SCALED_DP_CELL_LIMIT", top)
    message = f"eps = 1/1000 needs {top + 1} knapsack table cells, over the cap {top}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        bis._knapsack_scaled(ids, units, limit, eps)
    monkeypatch.undo()
    sizes = {i: Fraction(u, 10**9) for i, u in zip(ids, units)}
    message = rf"eps = 1/1000000000000 needs \d+ knapsack table cells, over the cap {bis.SCALED_DP_CELL_LIMIT}$"
    with pytest.raises(ParameterError, match=message):
        knapsack_fptas(ids, sizes, Fraction(1), Fraction(1, 10**12))


# Small sizes beside a large one scale to 0; small sizes collide often, so
# equal sizes meet the strict-< tie rule.
_SIZES = st.one_of(st.just(0), st.integers(1, 8), st.integers(1, 10**6))


@settings(max_examples=250)
@given(
    units=st.lists(_SIZES, max_size=9),
    limit=st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 2 * 10**6)),
    eps=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
)
def test_knapsack_scaled_matches_dense_reference(units, limit, eps):
    ids = [10 + 3 * k for k in range(len(units))]
    got = core_set(bis._knapsack_scaled(ids, units, limit, eps), dict(zip(ids, units)))
    assert got == ref_knapsack_scaled_int(ids, units, units, limit, eps)
    assert sum(units[ids.index(i)] for i in got) <= limit


@settings(max_examples=300)
@given(
    costs=st.lists(st.one_of(st.just(0), st.integers(1, 6), st.integers(1, 60)), max_size=12),
    cap=st.one_of(st.just(0), st.integers(0, 50)),
    scale=st.integers(1, 4),
)
def test_subset_sum_matches_exact_dp(costs, cap, scale):
    # Profit equal to cost, times the gcd step ``_knapsack`` divides out:
    # the bitset subset-sum returns the table DP's set. Zero costs, cap 0,
    # equal costs and costs over the cap all occur.
    ids = [10 + 3 * k for k in range(len(costs))]
    got = core_set(bis._subset_sum(ids, costs, cap), dict(zip(ids, costs)))
    assert got == ref_knapsack_exact_int(ids, [scale * c for c in costs], costs, cap)
    assert sum(costs[ids.index(i)] for i in got) <= cap


@settings(max_examples=300)
@given(
    units=st.lists(_SIZES, max_size=9),
    slack=st.integers(-4, 6),
    eps=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
)
def test_knapsacks_whose_costs_all_fit_match_the_dps(units, slack, eps):
    # The limit sits near the sizes' sum, so often every kept size fits and
    # the set is returned without the DP: subset-sum takes every positive
    # size, the scaled DP every item whose profit scales above 0. Zero
    # sizes and small sizes that scale to 0 beside a large one all occur.
    ids = [10 + 3 * k for k in range(len(units))]
    limit = max(0, sum(units) + slack)
    table = dict(zip(ids, units))
    assert core_set(bis._subset_sum(ids, units, limit), table) == ref_subset_sum(ids, units, limit)
    got = core_set(bis._knapsack_scaled(ids, units, limit, eps), table)
    assert got == ref_knapsack_scaled_int(ids, units, units, limit, eps)


@pytest.mark.parametrize("den", [20, 2 * bis.EXACT_DP_DENOM_LIMIT + 1])
def test_knapsack_takes_a_lone_kept_item_as_both_dps_do(den):
    # One kept item (beside one over the limit): size 0, a positive size
    # and a size exactly at the limit, over a denominator of the exact DP
    # and one of the scaled DP. Both cores take it exactly when its size
    # is positive, and so does the dispatch, which is handed the mask of
    # the one candidate that fits.
    eps = Fraction(1, 10)
    cases = [(0, den // 2), (0, 0), (3, den // 2), (den // 2, den // 2), (den, den)]
    for u, limit in cases:
        units = {4: u, 9: limit + 1}
        want = core_set(bis._subset_sum([4], [u], limit), units)
        assert want == (frozenset({4}) if u else frozenset())
        assert core_set(bis._knapsack_scaled([4], [u], limit, eps), units) == want
        assert core_set(bis._knapsack(1 << 4, units, limit, den, eps), units) == want
        assert bis._knapsack(0, units, limit, den, eps) == (0, 0)
        sizes = {4: Fraction(u, den), 9: Fraction(limit + 1, den)}
        assert knapsack_fptas([4, 9], sizes, Fraction(limit, den), eps) == want


@pytest.mark.parametrize(
    "n, hi, eps",
    [(60, 20, Fraction(1, 10)), (200, 3, Fraction(1, 2))],
)
@pytest.mark.parametrize("budget", [Fraction(1), Fraction(1, 2)])
def test_knapsack_scaled_large_matches_dense_reference(n, hi, eps, budget):
    # Decimal-like sizes over den = 10^9: n items of at most 1/hi.
    den = 10**9
    rng = SplitMix64(n * hi)
    units = [1 + rng.below(den // hi) for _ in range(n)]
    ids = list(range(n))
    limit = int(budget * den)
    got = core_set(bis._knapsack_scaled(ids, units, limit, eps), units)
    assert got == ref_knapsack_scaled_int(ids, units, units, limit, eps)
    assert got and sum(units[i] for i in got) <= limit


def brute_knapsack(ids, sizes, budget):
    best = Fraction(0)
    n = len(ids)
    for mask in range(1 << n):
        total = sum((sizes[ids[k]] for k in range(n) if (mask >> k) & 1), Fraction(0))
        if total <= budget:
            best = max(best, total)
    return best


def test_knapsack_exact_path_guarantee():
    rng = SplitMix64(5)
    for _ in range(40):
        n = 1 + rng.below(10)
        sizes = {i: Fraction(1 + rng.below(20), 20) for i in range(n)}
        budget = Fraction(1 + rng.below(20), 10)
        chosen = knapsack_fptas(range(n), sizes, budget, Fraction(1, 10))
        value = sum((sizes[i] for i in chosen), Fraction(0))
        assert value <= budget
        assert value == brute_knapsack(list(range(n)), sizes, budget)  # exact DP path


def test_knapsack_scaled_path_guarantee():
    rng = SplitMix64(6)
    eps = Fraction(1, 10)
    for _ in range(30):
        n = 1 + rng.below(9)
        # huge denominators force the profit-scaling path
        sizes = {i: Fraction(rng.below(10**6) + 1, 10**6) for i in range(n)}
        budget = Fraction(rng.below(3 * 10**6) + 1, 2 * 10**6)
        chosen = knapsack_fptas(range(n), sizes, budget, eps)
        value = sum((sizes[i] for i in chosen), Fraction(0))
        assert value <= budget
        assert value >= (1 - eps) * brute_knapsack(list(range(n)), sizes, budget)


def test_bis_ptas_examples():
    edgeless = ConflictInstance({0: "0.6", 1: "0.5", 2: "0.4"})
    problem = problem_from(edgeless, size_weights(edgeless), 1)
    chosen = bis_ptas(problem, Fraction(1, 2))
    assert chosen == {0, 2}

    star = ConflictInstance(
        {0: "0.9", 1: "0.3", 2: "0.3", 3: "0.3"}, edges=[(0, 1), (0, 2), (0, 3)]
    )
    problem = problem_from(star, size_weights(star), 1)
    assert bis_ptas(problem, Fraction(1, 2)) == {1, 2, 3}

    small = ConflictInstance({0: "0.2", 1: "0.3", 2: "0.1"})
    problem = problem_from(small, size_weights(small), 10)
    assert bis_ptas(problem, Fraction(1, 2)) == {0, 1, 2}


def test_bis_ptas_parameter_errors():
    inst = ConflictInstance({0: "0.5"})
    problem = problem_from(inst, size_weights(inst), 1)
    with pytest.raises(ParameterError):
        bis_ptas(problem, Fraction(1, 100))  # enumeration cap
    with pytest.raises(ParameterError):
        bis_ptas(problem, 2)
    # The enumeration bound is ceil(1/eps) exactly, at and between the
    # unit fractions around the cap.
    for eps in {Fraction(p, q) for q in range(1, 40) for p in range(1, q)}:
        cap = math.ceil(1 / eps)
        if cap <= bis.DEFAULT_ENUM_CAP:
            assert bis_ptas(problem, eps) == frozenset({0})
            continue
        with pytest.raises(ParameterError) as err:
            bis_ptas(problem, eps)
        assert str(err.value) == (
            f"enumeration bound ceil(1/eps) = {cap} exceeds cap {bis.DEFAULT_ENUM_CAP}; use a larger eps"
        )


def test_eps_floats_read_as_decimals_and_non_numbers_rejected():
    # A float eps means its shortest decimal, as classify_items reads it.
    inst = ConflictInstance({0: "1/20", 1: "0.06"})
    assert bis._check_eps(0.05) == Fraction(1, 20) == classify_items(inst, eps=0.05).eps
    problem = problem_from(inst, size_weights(inst), Fraction(1, 10))
    assert bis_ptas(problem, 0.25) == bis_ptas(problem, Fraction(1, 4))
    for bad in (None, "abc", float("nan"), [Fraction(1, 4)]):
        with pytest.raises(ParameterError):
            bis._check_eps(bad)
        with pytest.raises(ParameterError):
            bis_fptas_split(problem, bad)
    with pytest.raises(ParameterError):
        max_size(inst, Packing((frozenset({0}),)), recognize(inst), eps=None)


def test_bis_ptas_unsupported_class():
    c5 = ConflictInstance({i: "0.2" for i in range(5)}, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    problem = problem_from(c5, size_weights(c5), 1)
    with pytest.raises(CapabilityError):
        bis_ptas(problem, Fraction(1, 2))


def test_bis_ptas_quality_and_feasibility():
    eps = Fraction(1, 4)
    for seed in range(80):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 4 + seed % 11, 3000 + seed)
        if not inst.items:
            continue
        budget = Fraction(1 + seed % 4, 2)
        problem = problem_from(inst, size_weights(inst), budget)
        chosen = bis_ptas(problem, eps)
        assert inst.is_independent(chosen)
        value = weight_of(problem, chosen)
        assert value <= budget
        _, opt = bis_brute(problem)
        assert value >= (1 - eps) * opt


def test_bis_ptas_eviction_keeps_most_weight():
    # Many light items force the over-budget eviction loop; the kept weight
    # must stay above (1 - eps) * budget.
    eps = Fraction(1, 3)
    sizes = {i: "0.1" for i in range(15)}
    inst = ConflictInstance(sizes)
    problem = problem_from(inst, size_weights(inst), Fraction(1, 2))
    chosen = bis_ptas(problem, eps)
    value = weight_of(problem, chosen)
    assert value <= Fraction(1, 2)
    assert value >= (1 - eps) * Fraction(1, 2)


@pytest.mark.parametrize("klass", ["bipartite", "chordal", "cluster", "complete-multipartite"])
def test_ptas_matches_list_residual_reference(klass):
    # Pools of up to 14 items with ids up to 159. The mixed weights sit on,
    # just under and just over the light cut, or anywhere up to past the
    # budget; the light weights make every eligible item light, so each
    # residual is as large as it can be.
    light_cut = 60
    for k, n in enumerate((20, 40, 80, 160)):
        for seed in range(4):
            inst = seeded_instance(klass, n, 6000 + 10 * k + seed, (0.3, 0.7)[seed % 2])
            info = recognize(inst)
            rng = SplitMix64(6000 + 10 * k + seed)
            pool = sorted({inst.items[rng.below(n)] for _ in range(14)})
            eps = (Fraction(1, 2), Fraction(1, 3))[seed % 2]
            budget = light_cut * eps.denominator
            near = (light_cut, light_cut - 1, light_cut + 1)
            mixed = {v: (*near, rng.below(budget + 20))[rng.below(4)] for v in pool}
            light = {v: (light_cut, rng.below(light_cut + 1))[rng.below(2)] for v in pool}
            for weights in (mixed, light):
                # The core takes the pool items within budget as a mask.
                fits = fits_within(pool, weights)
                got = core_set(bis._ptas(fits(budget), fits, inst.adjacency, info, weights, budget, 1, eps), weights)
                assert got == ref_ptas(pool, inst.adjacency, info, weights, budget, eps)


# Graphs whose independent sets of at most 6 vertices number at most about
# 8000, so that a search over all of them stays quick.
DEEP_CASES = [
    ("complete-multipartite", 40, 0.9),
    ("complete-multipartite", 80, 0.8),
    ("complete-multipartite", 160, 0.7),
    ("cluster", 60, 0.96),
    ("chordal", 40, 0.9),
]


def deep_weightings(inst, seed):
    """S and (name, weights, budget) triples over all items of ``inst``,
    for eps = 1/6, whose light cut is 60 // 6 = 10 at budget 60.

    ``unreached``: the weights sum to less than the budget, so no guess
    fills it. ``exact``: an independent set S of at most 5 heavy items fills
    the budget exactly, beside items of weight 4 to 43, light or heavy.
    ``one-set``: only S has positive weight, heavy, summing below the
    budget, so a search finds S only by guessing it. S is picked from the
    highest ids down, so it comes late in the search.
    """
    rng = SplitMix64(seed)
    part = 0
    for v in reversed(inst.items):
        if inst.adjacency[v] & part:
            continue
        part |= 1 << v
        if part.bit_count() == 5:
            break
    chosen = {v for v in inst.items if (part >> v) & 1}
    unreached = {v: 1 + rng.below(30) for v in inst.items}
    exact = {v: 60 // len(chosen) if v in chosen else 4 + rng.below(40) for v in inst.items}
    one_set = {v: 11 if v in chosen else 0 for v in inst.items}
    return chosen, [("unreached", unreached, sum(unreached.values()) + 1), ("exact", exact, 60), ("one-set", one_set, 60)]


@pytest.mark.parametrize("klass, n, density", DEEP_CASES)
def test_ptas_deep_searches_match_the_generator_reference(klass, n, density):
    # Pools of 40-160 eligible ids at eps = 1/6, where the search guesses up
    # to 6 vertices. The unreached budget is never filled: the search runs
    # until every guess is tried. The exact budget stops it at the first
    # guess that fills it (S or another), and the one-set weights stop it
    # once its incumbent holds every eligible vertex of positive weight.
    eps = Fraction(1, 6)
    inst = seeded_instance(klass, n, 8100 + n, density)
    info = recognize(inst)
    chosen, weightings = deep_weightings(inst, 8100 + n)
    for name, weights, budget in weightings:
        fits = fits_within(inst.items, weights)
        got = core_set(bis._ptas(fits(budget), fits, inst.adjacency, info, weights, budget, 1, eps), weights)
        assert got == ref_ptas(inst.items, inst.adjacency, info, weights, budget, eps), name
        total = sum(weights[v] for v in got)
        if name == "unreached":
            assert total < sum(weights.values())
        elif name == "exact":
            assert total == budget
        else:
            # Guesses may hold items of weight 0 beside S.
            assert chosen <= got and total == 11 * len(chosen)


def test_ptas_hands_mwis_the_reference_residuals(monkeypatch):
    # One pinned instance: the light residual of every guess, in the order
    # the guesses are visited, is that of the generator reference, up to
    # the same stop, under each weighting.
    eps = Fraction(1, 6)
    inst = seeded_instance("complete-multipartite", 80, 8180, 0.8)
    info = recognize(inst)
    mwis = graphs._mwis_core
    counts = []
    for name, weights, budget in deep_weightings(inst, 8180)[1]:
        seen = {"library": [], "reference": []}

        def recording(side):
            return lambda vertices, adj, sub_mask, info, weights: seen[side].append(sub_mask) or mwis(
                vertices, adj, sub_mask, info, weights
            )

        fits = fits_within(inst.items, weights)
        monkeypatch.setattr(bis, "_mwis_core", recording("library"))
        monkeypatch.setattr(graphs, "_mwis_core", recording("reference"))
        got = core_set(bis._ptas(fits(budget), fits, inst.adjacency, info, weights, budget, 1, eps), weights)
        assert got == ref_ptas(inst.items, inst.adjacency, info, weights, budget, eps)
        assert seen["library"] == seen["reference"], name
        counts.append(len(seen["library"]))
    # unreached, exact and one-set; a one-set residual holds only items of
    # weight 0, which the weighted independent set still reads.
    assert counts[0] > 1000 and counts[1] > 1 and counts[2] > 1000, counts


def test_bis_fptas_split_examples():
    inst = ConflictInstance(
        {0: "0.4", 1: "0.3", 2: "0.3"}, edges=[(0, 1)]
    )
    problem = problem_from(inst, size_weights(inst), 1)
    chosen = bis_fptas_split(problem, Fraction(1, 100))
    assert chosen == {0, 2}

    zero = problem_from(inst, size_weights(inst), 0)
    assert bis_fptas_split(zero, Fraction(1, 100)) == frozenset()

    edgeless = ConflictInstance({0: "0.3", 1: "0.4"})
    problem = problem_from(edgeless, size_weights(edgeless), 1)
    assert bis_fptas_split(problem, Fraction(1, 100)) == {0, 1}


@pytest.mark.parametrize(
    "weight_2, winner, knapsacks",
    [
        (Fraction(1, 2), {0, 2}, 1),  # clique vertex 0 and stable 2 fill the budget: the scheme stops
        (Fraction(2, 5), {1, 3}, 2),  # 0 and 2 leave a tenth; 1 and 3 fill it, and the scheme stops
    ],
    ids=("first-fills", "second-fills"),
)
def test_bis_fptas_split_stops_at_a_full_budget(monkeypatch, weight_2, winner, knapsacks):
    # Clique {0, 1}; 0 misses only stable 2, 1 misses only stable 3. A set
    # that fills the budget stays the winner, since only a heavier set
    # replaces it, so the scheme returns the reference's set either way.
    inst = ConflictInstance({0: "1/2", 1: "3/10", 2: weight_2, 3: "7/10"}, edges=[(0, 1), (0, 3), (1, 2)])
    info = dataclasses.replace(recognize(inst), split_partition=(frozenset({0, 1}), frozenset({2, 3})))
    problem = BisProblem(tuple(inst.items), inst.adjacency, inst.sizes, Fraction(1), info)
    units, den = inst.unit_table
    assert ref_fptas_split(inst.items, inst.adjacency, info, units, den, den, Fraction(1, 10)) == winner
    calls = []
    knapsack = bis._knapsack

    def counting(*args):
        calls.append(args)
        return knapsack(*args)

    monkeypatch.setattr(bis, "_knapsack", counting)
    assert bis_fptas_split(problem, Fraction(1, 10)) == winner
    assert len(calls) == knapsacks


def test_fptas_split_skips_clique_vertices_that_cannot_win(monkeypatch):
    # Pools of up to 16 items of seeded split graphs, weights in units of
    # 1/20 and a room of up to one bin. A clique vertex whose weight plus
    # all it is offered is at most the incumbent's gets no knapsack; the
    # scheme still returns the reference's set, which runs them all.
    eps = Fraction(1, 10)
    calls = []
    knapsack = bis._knapsack

    def counting(*args):
        calls.append(args)
        return knapsack(*args)

    for k, n in enumerate((20, 40, 80)):
        for seed in range(6):
            inst = seeded_instance("split", n, 7000 + 10 * k + seed, (0.2, 0.5)[seed % 2])
            info = recognize(inst)
            rng = SplitMix64(7000 + 10 * k + seed)
            pool = sorted({inst.items[rng.below(n)] for _ in range(16)})
            weights = {v: 1 + rng.below(10) for v in pool}
            budget = 10 + rng.below(11)
            fits = fits_within(pool, weights)
            want = ref_fptas_split(pool, inst.adjacency, info, weights, budget, 20, eps)
            parts = bis._split_masks(info.split_partition)
            monkeypatch.setattr(bis, "_knapsack", counting)
            chosen = bis._fptas_split(fits(budget), fits, inst.adjacency, parts, weights, budget, 20, eps)
            monkeypatch.setattr(bis, "_knapsack", knapsack)
            assert core_set(chosen, weights) == want
    # The full-budget stop alone runs 45 of them.
    assert len(calls) == 33


def test_bis_fptas_split_requires_certificate():
    c4 = ConflictInstance({i: "0.2" for i in range(4)}, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    problem = problem_from(c4, size_weights(c4), 1)
    with pytest.raises(CapabilityError):
        bis_fptas_split(problem, Fraction(1, 10))


def test_bis_fptas_split_quality():
    eps = Fraction(1, 10)
    for seed in range(60):
        inst = seeded_instance("split", 4 + seed % 11, 4000 + seed)
        budget = Fraction(1 + seed % 3, 2)
        problem = problem_from(inst, size_weights(inst), budget)
        chosen = bis_fptas_split(problem, eps)
        assert inst.is_independent(chosen)
        value = weight_of(problem, chosen)
        assert value <= budget
        _, opt = bis_brute(problem)
        assert value >= (1 - eps) * opt


def test_bis_solvers_never_beat_brute():
    for seed in range(30):
        inst = seeded_instance("split", 4 + seed % 9, 5000 + seed)
        problem = problem_from(inst, size_weights(inst), Fraction(1))
        _, opt = bis_brute(problem)
        assert weight_of(problem, bis_ptas(problem, Fraction(1, 4))) <= opt
        assert weight_of(problem, bis_fptas_split(problem, Fraction(1, 10))) <= opt
