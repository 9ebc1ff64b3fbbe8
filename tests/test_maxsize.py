import math
from fractions import Fraction

import pytest

from cbp import (
    ConflictInstance,
    MaxSizeConfig,
    ParameterError,
    max_size,
    maxsize_brute,
    recognize,
    round_config_lp,
    solve_config_lp,
    validate_packing,
)
from cbp.maxsize import ConfigLpSolution, greedy_growth
from cbp.model import make_packing
from cbp.rng import SplitMix64

from conftest import seeded_instance, single_bin_problem


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


@pytest.mark.parametrize("eps", [0, Fraction(-1, 2), 1, 2])
def test_eps_checked_before_any_bin_is_solved(eps):
    # No bin, or a bin with nothing to add: eps is still checked.
    inst = ConflictInstance({0: "0.6", 1: "0.6"})
    info = recognize(inst)
    for start in (make_packing([]), make_packing([{0}, {1}])):
        for strategy in ("greedy-sequential", "config-lp"):
            with pytest.raises(ParameterError, match="eps must be in"):
                max_size(inst, start, info, eps=eps, strategy=strategy)
        with pytest.raises(ParameterError, match="eps must be in"):
            next(greedy_growth(inst, start, info, eps))


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
        info = recognize(inst)
        sol = solve_config_lp(inst, start, info)
        assert sol.converged
        best = maxsize_brute(inst, start)
        assert sol.objective >= best  # LP relaxation dominates the integral optimum


def test_config_lp_rounding_mean():
    target = 1 - 1 / math.e - 0.05
    for seed in range(10):
        inst, start = small_case(200 + seed)
        info = recognize(inst)
        best = maxsize_brute(inst, start)
        if best == 0:
            continue
        sol = solve_config_lp(inst, start, info)
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
