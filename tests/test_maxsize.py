import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cbp import (
    ConflictInstance,
    maxsize,
    MaxSizeConfig,
    ParameterError,
    max_size,
    recognize,
    round_config_lp,
    solve_config_lp,
    validate_packing,
)
from cbp.harness import GeneratorSpec, SizeDist, generate, generate_b3dm
from cbp.maxsize import ConfigLpSolution, greedy_growth
from cbp.model import _ids_mask, _mask_to_ids, classify_items
from cbp.rng import SplitMix64

from conftest import (
    CLASSES,
    make_packing,
    maxsize_brute,
    ref_greedy_growth,
    ref_max_size,
    ref_round_config_lp,
    ref_solve_config_lp,
    seeded_instance,
    single_bin_problem,
)


def test_examples():
    inst = ConflictInstance({0: "0.7", 1: "0.6", 2: "0.3"})
    info = recognize(inst)
    start = make_packing([set()])
    res = max_size(inst, start, info)
    assert res.added_items == {0, 2}
    assert res.added_size == 1

    full_start = make_packing([{0}, {1}, {2}])
    res2 = max_size(inst, full_start, info)
    assert res2.added_size == 0
    assert res2.augmented.bins == full_start.bins

    inst3 = ConflictInstance({0: "0.6", 1: "0.6", 2: "0.3"}, edges=[(2, 0)])
    res3 = max_size(inst3, make_packing([{0}, {1}]), recognize(inst3))
    assert res3.augmented.bins == (frozenset({0}), frozenset({1, 2}))


def test_infeasible_initial_rejected():
    inst = ConflictInstance({0: "0.6", 1: "0.6"})
    with pytest.raises(ParameterError):
        max_size(inst, make_packing([{0, 1}]), recognize(inst))
    with pytest.raises(ParameterError):
        max_size(inst, make_packing([{0}]), recognize(inst), strategy="bogus")


@pytest.mark.parametrize("eps", [0, Fraction(-1, 2), 1, 2, Fraction(1, 7)])
def test_eps_checked_before_any_bin_is_solved(eps):
    # No bin, or a bin with nothing to add: eps is still checked. 1/7 is in
    # (0, 1) but over the enumeration scheme's cap, which the 4-cycle (no
    # split certificate) uses and the two edgeless items (split) do not.
    c4 = ConflictInstance({i: "1/2" for i in range(4)}, edges=[(i, (i + 1) % 4) for i in range(4)])
    cases = [(c4, make_packing([])), (c4, make_packing([{0, 2}, {1, 3}]))]
    match = "enumeration bound" if eps == Fraction(1, 7) else "eps must be in"
    if eps != Fraction(1, 7):
        inst = ConflictInstance({0: "0.6", 1: "0.6"})
        cases += [(inst, make_packing([])), (inst, make_packing([{0}, {1}]))]
    for inst, start in cases:
        info = recognize(inst)
        for strategy in ("greedy-sequential", "config-lp"):
            with pytest.raises(ParameterError, match=match):
                max_size(inst, start, info, eps=eps, strategy=strategy)
        with pytest.raises(ParameterError, match=match):
            next(greedy_growth(inst, start, info, eps))


def test_split_instances_take_eps_below_the_enumeration_cap():
    # The split scheme has no cap: both strategies and the growth run.
    inst = seeded_instance("split", 12, 9050)
    info = recognize(inst)
    start = make_packing([{v} for v in sorted(info.split_partition[0])])
    for strategy in ("greedy-sequential", "config-lp"):
        result = max_size(inst, start, info, eps=Fraction(1, 7), strategy=strategy)
        assert validate_packing(inst, result.augmented, require_cover=False).feasible
    assert list(greedy_growth(inst, start, info, Fraction(1, 7)))


# Two of eight discrete sizes are 0.
ZERO_SIZES = SizeDist(kind="discrete", values=("0", "0", "1/10", "1/4", "2/5", "1/2", "3/5", "7/10"))


def growth_instance(klass, n):
    if klass.startswith("zero-"):
        return generate(GeneratorSpec(klass=klass[5:], n=n, density=0.3, size_dist=ZERO_SIZES, seed=9100 + n))
    if klass.startswith("b3dm-"):
        q = n // 6  # n = 6q items
        spec = GeneratorSpec(
            klass="b3dm-reduction", x_count=q, y_count=q, z_count=q, t_count=q, guess=q // 2,
            variant=klass[5:], seed=9100 + n,
        )
        return generate_b3dm(spec)[0]
    return seeded_instance(klass, n, 9100 + n, density=0.3)


@pytest.mark.parametrize(
    "klass, n",
    [(klass, n) for klass in CLASSES for n in (12, 80, 320)]
    + [("b3dm-BPB", 48), ("b3dm-BPS", 318)]
    + [("zero-" + klass, n) for klass in CLASSES for n in (12, 80)],
)
def test_mask_pool_growth_matches_list_reference(klass, n):
    # Every yield of the mask-pool growth (bins and pool) equals the list
    # version's, from max_solve's start (large singletons) and, on split
    # graphs, from split_approx's (clique singletons plus empty bins). The
    # "zero-" instances draw a quarter of their sizes as 0.
    inst = growth_instance(klass, n)
    info = recognize(inst)
    starts = [(make_packing([{v} for v in sorted(classify_items(inst).large)]), Fraction(1, 6))]
    if info.split_partition is not None:
        clique = sorted(info.split_partition[0])
        starts.append((make_packing([{v} for v in clique] + [()] * (2 + n // 4)), Fraction(1, 10)))
    for start, eps in starts:
        steps = 0
        for (bins, pool), (ref_bins, ref_pool) in zip(
            greedy_growth(inst, start, info, eps), ref_greedy_growth(inst, start, info, eps), strict=True
        ):
            assert bins == ref_bins
            assert _mask_to_ids(pool) == ref_pool
            steps += 1
        assert steps == start.bin_count + 1


@settings(max_examples=150)
@given(
    klass=st.sampled_from(CLASSES),
    n=st.integers(1, 16),
    density=st.sampled_from([0.1, 0.3, 0.6]),
    seed=st.integers(0, 2**32),
)
def test_growth_places_every_size_zero_item_a_bin_can_take(klass, n, density, seed):
    # The solvers drop items of weight 0, so the growth offers each bin the
    # size-0 pool items after the solver's pick: in the final state, every
    # bin holds a neighbour of each size-0 item left in the pool.
    inst = generate(GeneratorSpec(klass=klass, n=n, density=density, size_dist=ZERO_SIZES, seed=seed))
    info = recognize(inst)
    starts = [(make_packing([{v} for v in sorted(classify_items(inst).large)]), Fraction(1, 6))]
    if info.split_partition is not None:
        clique = sorted(info.split_partition[0])
        starts.append((make_packing([{v} for v in clique] + [()] * 3), Fraction(1, 10)))
    for start, eps in starts:
        for bins, pool in greedy_growth(inst, start, info, eps):
            pass
        grown = make_packing(bins)
        assert validate_packing(inst, grown).feasible
        assert grown.items() | frozenset(_mask_to_ids(pool)) == frozenset(inst.items)
        for v in _mask_to_ids(pool):
            if inst.sizes[v] == 0:
                assert all(inst.adjacency[v] & _ids_mask(b) for b in bins)


def test_single_bin_subproblem_structure():
    inst = ConflictInstance(
        {0: "0.6", 1: "0.2", 2: "0.2", 3: "0.2"}, edges=[(0, 1), (2, 3)]
    )
    info = recognize(inst)
    problem = single_bin_problem(inst, info, frozenset({0}), [1, 2, 3])
    assert set(problem.vertices) == {2, 3}  # item 1 conflicts with the bin
    assert problem.budget == Fraction(2, 5)  # 1 - s(bin)
    vs = problem.vertices
    pairs = {(min(u, v), max(u, v)) for u in vs for v in vs if (problem.adjacency[u] >> v) & 1}
    assert pairs == {(2, 3)}


def test_config_lp_fill_up_fills_to_exactly_one_and_skips_conflicts():
    # No sampled configuration: the fill-up places every item first-fit in
    # id order. Item 2 conflicts with item 0; item 3 fills bin 0 to exactly 1.
    inst = ConflictInstance({0: "1/2", 1: "1/3", 2: "1/6", 3: "1/6"}, edges=[(0, 2)])
    start = make_packing([set(), set()])
    empty = ConfigLpSolution(inst, start, ((), ()), Fraction(0), True, 0)
    res = round_config_lp(empty, 0)
    assert res.augmented.bins == (frozenset({0, 1, 3}), frozenset({2}))
    assert res.added_size == 1 + Fraction(1, 6)


def test_invariants_on_random_instances():
    for seed in range(25):
        klass = ("bipartite", "split", "cluster", "chordal", "edgeless")[seed % 5]
        inst = seeded_instance(klass, 10, 6000 + seed)
        info = recognize(inst)
        items = sorted(inst.items)
        start_bins = [[items[0]], []] if items else [[]]
        start = make_packing(start_bins)
        res = max_size(inst, start, info)
        assert res.augmented.bin_count == start.bin_count
        for before, after in zip(start.bins, res.augmented.bins):
            assert before <= after
        assert validate_packing(inst, res.augmented).feasible
        assert res.added_items == res.augmented.items() - start.items()
        assert res.added_size == inst.size_of(res.added_items)


def small_case(seed):
    rng = SplitMix64(seed)
    klass = ("bipartite", "split", "cluster", "chordal", "edgeless")[rng.below(5)]
    n = 6 + rng.below(5)
    inst = seeded_instance(klass, n, rng.next_u64())
    bins = 1 + rng.below(3)
    # seed bins with a maximal-id item each when it fits alone
    items = sorted(inst.items, reverse=True)
    chosen: list[set] = [set() for _ in range(bins)]
    for b in range(min(bins, len(items))):
        if rng.chance(0.7):
            chosen[b].add(items[b])
    return inst, make_packing(chosen)


def test_greedy_at_least_half_of_brute():
    for seed in range(40):
        inst, start = small_case(seed)
        info = recognize(inst)
        res = max_size(inst, start, info)
        best = maxsize_brute(inst, start)
        assert res.added_size >= Fraction(1, 2) * best
        assert res.guarantee > 0.4


def test_config_lp_objective_bounds_brute():
    for seed in range(15):
        inst, start = small_case(100 + seed)
        sol = solve_config_lp(inst, start)
        assert sol.converged
        best = maxsize_brute(inst, start)
        assert sol.objective >= best  # LP relaxation dominates the integral optimum


def test_config_lp_rounding_mean():
    target = 1 - 1 / math.e - 0.05
    for seed in range(10):
        inst, start = small_case(200 + seed)
        best = maxsize_brute(inst, start)
        if best == 0:
            continue
        sol = solve_config_lp(inst, start)
        values = [round_config_lp(sol, s).added_size for s in range(100)]
        mean = sum(values, Fraction(0)) / len(values)
        assert mean >= Fraction(target).limit_denominator(10**6) * best
        # determinism per seed
        again = round_config_lp(sol, 7)
        assert again.added_size == values[7]
        assert validate_packing(inst, again.augmented).feasible


def test_config_lp_strategy_through_max_size():
    inst, start = small_case(300)
    info = recognize(inst)
    res = max_size(inst, start, info, strategy="config-lp", config=MaxSizeConfig(seed=3))
    assert res.strategy == "config-lp"
    assert validate_packing(inst, res.augmented).feasible
    assert res.augmented.bin_count == start.bin_count


def test_config_lp_pricing_limit_falls_back_to_greedy():
    inst, start = small_case(400)
    info = recognize(inst)
    res = max_size(
        inst, start, info, strategy="config-lp", config=MaxSizeConfig(pricing_limit=0)
    )
    assert res.strategy == "greedy-sequential"
    assert "config-lp-cap-fallback" in res.augmented.flags


def reference_case(seed):
    """A seeded instance of any class and a start packing of 1-4 bins, each
    empty or holding one item alone."""
    rng = SplitMix64(seed)
    inst = seeded_instance(CLASSES[seed % len(CLASSES)], 5 + rng.below(6), rng.next_u64())
    items = sorted(inst.items)
    bins = [set() for _ in range(1 + rng.below(4))]
    for b in bins:
        if items and rng.chance(0.6):
            b.add(items.pop(rng.below(len(items))))
    return inst, make_packing(bins)


def assert_results_equal(res, ref):
    assert set(res.augmented.bins) == set(ref.augmented.bins)
    assert res.augmented.bins == ref.augmented.bins
    assert (res.augmented.source, res.augmented.flags) == (ref.augmented.source, ref.augmented.flags)
    assert res.added_items == ref.added_items
    assert res.added_size == ref.added_size
    assert (res.strategy, res.guarantee) == (ref.strategy, ref.guarantee)


def assert_solutions_equal(sol, ref):
    assert sol.columns == ref.columns
    assert sol.objective == ref.objective
    assert (sol.converged, sol.iterations) == (ref.converged, ref.iterations)


CONFIGS = (MaxSizeConfig(), MaxSizeConfig(seed=5), MaxSizeConfig(pricing_limit=3))


@pytest.mark.parametrize("config", CONFIGS, ids=("default", "seed5", "limit3"))
def test_max_size_and_config_lp_match_the_parent(config):
    # 210 seeded cases per config: every field of the LP solution, of its
    # rounding and of max_size under both strategies equals the parent's.
    outcomes = set()
    for seed in range(210):
        inst, start = reference_case(seed)
        info = recognize(inst)
        sol = solve_config_lp(inst, start, config)
        assert_solutions_equal(sol, ref_solve_config_lp(inst, start, config))
        outcomes.add((sol.converged, sol.iterations > 1))
        if sol.converged:
            for rounding_seed in (config.seed, 11):
                assert_results_equal(
                    round_config_lp(sol, rounding_seed), ref_round_config_lp(sol, rounding_seed)
                )
        for strategy in maxsize.STRATEGIES:
            assert_results_equal(
                max_size(inst, start, info, strategy=strategy, config=config),
                ref_max_size(inst, start, info, strategy=strategy, config=config),
            )
    # The cases reach column generation past the first LP, and only the
    # small pricing limit returns early.
    assert (True, True) in outcomes
    assert ((False, False) in outcomes) == (config.pricing_limit == 3)


def test_rounding_commits_an_item_sampled_twice_to_the_first_bin():
    inst = ConflictInstance({0: "1/4", 1: "1/4", 2: "1/4"})
    start = make_packing([set(), set()])
    both = frozenset({0, 1})
    sol = ConfigLpSolution(inst, start, (((both, Fraction(1)),), ((frozenset({1, 2}), Fraction(1)),)), Fraction(1), True, 1)
    res = round_config_lp(sol, 0)
    assert res.augmented.bins == (both, frozenset({2}))
    assert_results_equal(res, ref_round_config_lp(sol, 0))


def test_iteration_cap_falls_back_to_greedy(monkeypatch):
    monkeypatch.setattr(maxsize, "ITERATION_CAP_FACTOR", 0)
    capped = 0
    for seed in range(40):
        inst, start = reference_case(seed)
        info = recognize(inst)
        sol = solve_config_lp(inst, start)
        assert_solutions_equal(sol, ref_solve_config_lp(inst, start))
        res = max_size(inst, start, info, strategy="config-lp")
        assert_results_equal(res, ref_max_size(inst, start, info, strategy="config-lp"))
        if len(start.items()) == inst.n:
            continue  # nothing to add: no LP to cap
        capped += 1
        assert not sol.converged
        assert sol.iterations == 1
        assert sol.columns == ((),) * start.bin_count
        assert sol.objective == 0
        greedy = max_size(inst, start, info)
        assert res.augmented == greedy.augmented.with_flags("config-lp-cap-fallback")
        assert (res.added_items, res.added_size) == (greedy.added_items, greedy.added_size)
        assert (res.strategy, res.guarantee) == (greedy.strategy, greedy.guarantee)
    assert capped >= 30
