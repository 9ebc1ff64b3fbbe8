from fractions import Fraction

import pytest

from cbp import ParameterError, asymptotic_bp, classify_items, ffd, opt_bpc_exact, validate_packing
from cbp.harness import GeneratorSpec, SizeDist, generate
from cbp.packing_classic import DEFAULT_EXACT_THRESHOLD
from cbp.rng import SplitMix64


def random_bp_instance(seed, n_max=16, dist=None):
    rng = SplitMix64(seed)
    n = rng.below(n_max + 1)
    spec = GeneratorSpec(klass="edgeless", n=n, seed=rng.next_u64(), size_dist=dist or SizeDist())
    return generate(spec)


def ffd_bounds_hold(instance, packing) -> bool:
    count = Fraction(packing.bin_count)
    if instance.n == 0:
        return count <= 1
    max_s = max(instance.sizes.values())
    classes = classify_items(instance)
    first = (1 + 2 * max_s) * instance.total_size + 1
    second = (
        len(classes.large)
        + Fraction(3, 2) * instance.size_of(classes.medium)
        + Fraction(4, 3) * instance.size_of(classes.small)
        + 1
    )
    return count <= first and count <= second


def weight_bound_holds(instance, packing) -> bool:
    # Piecewise item weights: 1 for large, s + 1/6 for medium, s + 1/12
    # for small; bins never exceed total weight + 1.
    classes = classify_items(instance)
    w = Fraction(0)
    for i in instance.items:
        s = instance.sizes[i]
        if i in classes.large:
            w += 1
        elif i in classes.medium:
            w += s + Fraction(1, 6)
        else:
            w += s + Fraction(1, 12)
    return Fraction(packing.bin_count) <= w + 1


def test_ffd_examples():
    inst = {0: "0.6", 1: "0.6", 2: "0.3"}
    packing = ffd(inst.keys(), inst)
    assert packing.bins == (frozenset({0, 2}), frozenset({1}))

    assert ffd([], {}).bin_count == 0

    halves = {0: "0.5", 1: "0.5", 2: "0.5"}
    packing = ffd(halves.keys(), halves)
    assert packing.bins == (frozenset({0, 1}), frozenset({2}))


def test_ffd_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        ffd([0], {0: "1.5"})


def test_ffd_deterministic_tie_break():
    sizes = {3: "0.4", 1: "0.4", 2: "0.4"}
    packing = ffd(sizes.keys(), sizes)
    assert packing.bins == (frozenset({1, 2}), frozenset({3}))


def test_ffd_feasible_and_bounded():
    for seed in range(300):
        inst = random_bp_instance(seed)
        packing = ffd(inst.items, inst.sizes)
        assert validate_packing(inst, packing, require_cover=True).feasible
        assert ffd_bounds_hold(inst, packing)
        assert weight_bound_holds(inst, packing)


def test_ffd_two_bins_when_total_small():
    # Whenever the total size is at most 3/2, two bins always suffice.
    rng = SplitMix64(99)
    checked = 0
    while checked < 80:
        n = 1 + rng.below(8)
        sizes = {i: Fraction(1 + rng.below(20), 20) for i in range(n)}
        if sum(sizes.values()) > Fraction(3, 2):
            continue
        checked += 1
        assert ffd(sizes.keys(), sizes).bin_count <= 2


def test_asymptotic_examples():
    halves = {0: "0.5", 1: "0.5"}
    assert asymptotic_bp(halves.keys(), halves).bin_count == 1
    mix = {0: "0.7", 1: "0.7", 2: "0.3", 3: "0.3"}
    assert asymptotic_bp(mix.keys(), mix).bin_count == 2
    assert asymptotic_bp([], {}).bin_count == 0


def test_asymptotic_never_above_ffd_and_optimal_when_exact():
    for seed in range(60):
        inst = random_bp_instance(2000 + seed, n_max=12)
        best = asymptotic_bp(inst.items, inst.sizes)
        heuristic = ffd(inst.items, inst.sizes)
        assert best.bin_count <= heuristic.bin_count
        assert validate_packing(inst, best, require_cover=True).feasible
        _, opt = opt_bpc_exact(inst)
        assert best.bin_count == opt
        assert "exact-opt" in best.flags


def test_asymptotic_threshold_skips_exact():
    # One item beyond the exact threshold: FFD's bins, no exact-opt flag.
    sizes = {i: "0.3" for i in range(DEFAULT_EXACT_THRESHOLD + 1)}
    packing = asymptotic_bp(sizes.keys(), sizes)
    assert "exact-opt" not in packing.flags
    assert packing.bins == ffd(sizes.keys(), sizes).bins
