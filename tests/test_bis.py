import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cbp import (
    BisProblem,
    CapabilityError,
    ConflictInstance,
    ParameterError,
    bis_brute,
    bis_fptas_split,
    bis_ptas,
    knapsack_fptas,
    recognize,
)
from cbp import bis
from cbp.maxsize import max_size
from cbp.model import Packing, classify_items, fits_within
from cbp.rng import SplitMix64

from conftest import CLASSES, ref_fptas_split, ref_knapsack_scaled_int, ref_ptas, ref_subset_sum, seeded_instance


def problem_from(instance: ConflictInstance, weights, budget) -> BisProblem:
    return BisProblem(
        vertices=tuple(instance.items),
        adjacency=instance.adjacency,
        weights=weights,
        budget=Fraction(budget) if not isinstance(budget, Fraction) else budget,
        class_info=recognize(instance),
    )


def size_weights(instance):
    return dict(instance.sizes)


def test_knapsack_examples():
    profits = {0: Fraction(3, 5), 1: Fraction(1, 2), 2: Fraction(2, 5)}
    chosen = knapsack_fptas([0, 1, 2], profits, profits, Fraction(1), Fraction(1, 10))
    assert chosen == {0, 2}

    assert knapsack_fptas([0], {0: Fraction(1)}, {0: Fraction(1)}, Fraction(0), Fraction(1, 10)) == frozenset()

    single = {0: Fraction(3, 10)}
    assert knapsack_fptas([0], single, single, Fraction(1), Fraction(1, 10)) == {0}

    # Equal profits: the exact DP keeps the least cost of the best profit.
    ones = {0: Fraction(1), 1: Fraction(1)}
    costs = {0: Fraction(1, 2), 1: Fraction(1, 4)}
    assert knapsack_fptas([0, 1], ones, costs, Fraction(1, 2), Fraction(1, 10)) == {1}


def test_knapsack_eps_range():
    with pytest.raises(ParameterError):
        knapsack_fptas([0], {0: Fraction(1)}, {0: Fraction(1)}, Fraction(1), 0)
    with pytest.raises(ParameterError):
        knapsack_fptas([0], {0: Fraction(1)}, {0: Fraction(1)}, Fraction(1), 1)


def test_knapsack_negative_cost_rejected():
    # The exact DP would index a cost table with a negative cost, and the
    # scaled DP's live-entry rule needs costs >= 0.
    ones = {0: Fraction(1), 1: Fraction(1)}
    costs = {0: Fraction(-1, 2), 1: Fraction(1, 2)}
    with pytest.raises(ParameterError, match="negative cost on item 0"):
        knapsack_fptas([0, 1], ones, costs, Fraction(1, 2), Fraction(1, 10))


# Small gains beside a large one scale to 0; small costs collide often, so
# equal costs meet the strict-< tie rule.
_GAINS = st.one_of(st.integers(-3, 0), st.integers(1, 8), st.integers(1, 10**6))


@settings(max_examples=250)
@given(
    rows=st.lists(st.tuples(_GAINS, st.integers(0, 12)), max_size=9),
    limit=st.one_of(st.just(0), st.integers(0, 40)),
    eps=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
)
def test_knapsack_scaled_matches_dense_reference(rows, limit, eps):
    ids = [10 + 3 * k for k in range(len(rows))]
    gains = [g for g, _ in rows]
    units = [c for _, c in rows]
    got = bis._knapsack_scaled(ids, gains, units, limit, eps)
    assert got == ref_knapsack_scaled_int(ids, gains, units, limit, eps)
    assert sum(units[ids.index(i)] for i in got) <= limit


@settings(max_examples=300)
@given(
    costs=st.lists(st.one_of(st.just(0), st.integers(1, 6), st.integers(1, 60)), max_size=12),
    cap=st.one_of(st.just(0), st.integers(0, 50)),
    scale=st.integers(1, 4),
    den=st.sampled_from((60, 10**9)),
)
def test_subset_sum_matches_exact_dp(costs, cap, scale, den):
    # Profit equal to cost, times the gcd step ``_knapsack`` divides out:
    # the bitset subset-sum returns the exact DP's set. Zero costs, cap 0,
    # equal costs and costs over the cap all occur.
    ids = [10 + 3 * k for k in range(len(costs))]
    got = bis._subset_sum(ids, costs, cap)
    assert got == bis._knapsack_exact(ids, [scale * c for c in costs], costs, cap)
    assert sum(costs[ids.index(i)] for i in got) <= cap
    # ``_knapsack`` without gains (exact path at den 60, mostly scaled at
    # 10^9) picks what it picks with the costs as gains.
    units = dict(zip(ids, costs))
    eps = Fraction(1, 10)
    assert bis._knapsack(ids, None, units, cap, den, eps) == bis._knapsack(ids, units, units, cap, den, eps)


@settings(max_examples=300)
@given(
    rows=st.lists(st.tuples(_GAINS, st.one_of(st.just(0), st.integers(0, 12))), max_size=9),
    slack=st.integers(-4, 6),
    eps=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
)
def test_knapsacks_whose_costs_all_fit_match_the_dps(rows, slack, eps):
    # The limit sits near the costs' sum, so often every kept cost fits and
    # the set is returned without the DP: subset-sum takes every positive
    # cost, the scaled DP every item whose profit scales above 0. Zero
    # costs, profits of at most 0 and small profits that scale to 0 beside
    # a large one all occur.
    ids = [10 + 3 * k for k in range(len(rows))]
    gains = [g for g, _ in rows]
    units = [c for _, c in rows]
    limit = max(0, sum(units) + slack)
    assert bis._subset_sum(ids, units, limit) == ref_subset_sum(ids, units, limit)
    assert bis._knapsack_scaled(ids, gains, units, limit, eps) == ref_knapsack_scaled_int(ids, gains, units, limit, eps)


@pytest.mark.parametrize(
    "n, hi, eps",
    [(60, 20, Fraction(1, 10)), (200, 3, Fraction(1, 2))],
)
@pytest.mark.parametrize("budget", [Fraction(1), Fraction(1, 2)])
def test_knapsack_scaled_large_matches_dense_reference(n, hi, eps, budget):
    # Decimal-like sizes over den = 10^9: n items of at most 1/hi, profit
    # equal to cost as in the split-graph scheme.
    den = 10**9
    rng = SplitMix64(n * hi)
    units = [1 + rng.below(den // hi) for _ in range(n)]
    ids = list(range(n))
    limit = int(budget * den)
    got = bis._knapsack_scaled(ids, units, units, limit, eps)
    assert got == ref_knapsack_scaled_int(ids, units, units, limit, eps)
    assert got and sum(units[i] for i in got) <= limit


def brute_knapsack(ids, profits, costs, budget):
    best = Fraction(0)
    n = len(ids)
    for mask in range(1 << n):
        chosen = [ids[k] for k in range(n) if (mask >> k) & 1]
        if sum((costs[i] for i in chosen), Fraction(0)) <= budget:
            best = max(best, sum((profits[i] for i in chosen), Fraction(0)))
    return best


def test_knapsack_exact_path_guarantee():
    rng = SplitMix64(5)
    for _ in range(40):
        n = 1 + rng.below(10)
        costs = {i: Fraction(1 + rng.below(20), 20) for i in range(n)}
        budget = Fraction(1 + rng.below(20), 10)
        chosen = knapsack_fptas(range(n), costs, costs, budget, Fraction(1, 10))
        value = sum((costs[i] for i in chosen), Fraction(0))
        assert value <= budget
        assert value == brute_knapsack(list(range(n)), costs, costs, budget)  # exact DP path


def test_knapsack_scaled_path_guarantee():
    rng = SplitMix64(6)
    eps = Fraction(1, 10)
    for _ in range(30):
        n = 1 + rng.below(9)
        # huge denominators force the profit-scaling path
        costs = {i: Fraction(rng.below(10**6) + 1, 10**6) for i in range(n)}
        budget = Fraction(rng.below(3 * 10**6) + 1, 2 * 10**6)
        chosen = knapsack_fptas(range(n), costs, costs, budget, eps)
        value = sum((costs[i] for i in chosen), Fraction(0))
        assert value <= budget
        assert value >= (1 - eps) * brute_knapsack(list(range(n)), costs, costs, budget)


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
        value = problem.weight_of(chosen)
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
    value = problem.weight_of(chosen)
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
                got = bis._ptas(fits(budget), fits, inst.adjacency, info, weights, budget, 1, eps)
                assert got == ref_ptas(pool, inst.adjacency, info, weights, budget, eps)


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
            got = bis._fptas_split(fits(budget), fits, inst.adjacency, parts, weights, budget, 20, eps)
            monkeypatch.setattr(bis, "_knapsack", knapsack)
            assert got == want
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
        value = problem.weight_of(chosen)
        assert value <= budget
        _, opt = bis_brute(problem)
        assert value >= (1 - eps) * opt


def test_bis_solvers_never_beat_brute():
    for seed in range(30):
        inst = seeded_instance("split", 4 + seed % 9, 5000 + seed)
        problem = problem_from(inst, size_weights(inst), Fraction(1))
        _, opt = bis_brute(problem)
        assert problem.weight_of(bis_ptas(problem, Fraction(1, 4))) <= opt
        assert problem.weight_of(bis_fptas_split(problem, Fraction(1, 10))) <= opt
