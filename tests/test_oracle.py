from fractions import Fraction

import pytest

from cbp import (
    BisProblem,
    CapabilityError,
    ConflictInstance,
    opt_bpc_exact,
    oracle,
    recognize,
    validate_packing,
)
from cbp.harness import GeneratorSpec, SizeDist, generate
from cbp.rng import SplitMix64

from conftest import CLASSES, bis_brute, brute_opt_bins, make_packing, maxsize_brute, seeded_instance, shuffle


def test_exact_examples():
    inst = ConflictInstance({0: "0.6", 1: "0.6", 2: "0.3"})
    packing, opt = opt_bpc_exact(inst)
    assert opt == 2
    assert validate_packing(inst, packing, require_cover=True).feasible

    single = ConflictInstance({0: "0.4"})
    assert opt_bpc_exact(single)[1] == 1

    k3 = ConflictInstance({0: "0.1", 1: "0.1", 2: "0.1"}, edges=[(0, 1), (1, 2), (0, 2)])
    assert opt_bpc_exact(k3)[1] == 3


def test_exact_limit():
    inst = ConflictInstance({i: "0.1" for i in range(19)})
    with pytest.raises(CapabilityError):
        opt_bpc_exact(inst, limit_n=18)


def exact_bins(inst, **limits):
    """``oracle._exact_bins`` on the instance's unit table, as the library calls it."""
    units, den = inst.unit_table
    return oracle._exact_bins(inst.items, units, den, inst.adjacency, **limits)


def test_exact_node_budget_exhausted():
    # First fit in size order packs 0 with 1 and needs a bin each for the
    # conflicting 2 and 3: three bins, over max_bins=2, so the search must
    # run, and one node is not enough for it.
    inst = ConflictInstance({i: "1/2" for i in range(4)}, edges=[(2, 3)])
    with pytest.raises(CapabilityError, match="exact solver node budget exhausted"):
        exact_bins(inst, max_bins=2, node_budget=1)
    bins = exact_bins(inst, max_bins=2, node_budget=1000)
    assert len(bins) == 2 and validate_packing(inst, make_packing(bins), require_cover=True).feasible


def test_exact_node_budget_exhausted_with_an_incumbent():
    # First fit finds 7 bins and three nodes do not improve on them, but
    # the optimum is 6: the incumbent left when the budget runs out is
    # unproven, so no count is returned.
    inst = seeded_instance("bipartite", 12, 0, density=0.3)
    _, opt = opt_bpc_exact(inst)
    assert opt == 6
    with pytest.raises(CapabilityError, match="exact solver node budget exhausted"):
        exact_bins(inst, node_budget=3)


# Sizes of the tiny-item bipartite benchmark instances: many items of at
# most 1/10000 beside a few of 2/5 to 1/2 make the search branch most.
TINY_SIZES = SizeDist(kind="discrete", values=("1/20000", "1/10000") * 2 + ("2/5", "9/20", "1/2"))


CHORDAL_15 = GeneratorSpec(klass="chordal", n=15, density=0.8, seed=13455859110366676592)


@pytest.mark.parametrize(
    "spec, max_bins, bins, nodes",
    [
        (GeneratorSpec(klass="bipartite", n=16, density=0.295, size_dist=TINY_SIZES, seed=7739275675771031516), None, 6, 2016),
        (GeneratorSpec(klass="bipartite", n=14, density=0.255, size_dist=TINY_SIZES, seed=236524050828677254), None, 6, 1870),
        (GeneratorSpec(klass="bipartite", n=16, density=0.235, size_dist=TINY_SIZES, seed=3693387093497865786), 3, 3, 1440),
        (GeneratorSpec(klass="chordal", n=16, density=0.6, seed=14559284743646537251), None, 10, 1505),
        (CHORDAL_15, None, 9, 29),
        (CHORDAL_15, 3, None, 1),
    ],
    ids=("bipartite-16", "bipartite-14", "bipartite-16-three-bins", "chordal-16", "chordal-15", "chordal-15-over-three-bins"),
)
def test_exact_search_node_counts_are_pinned(spec, max_bins, bins, nodes):
    # The search visits exactly ``nodes`` nodes, so a node budget of that
    # many ends it (with ``bins`` bins, or None if max_bins is too few) and
    # one fewer runs out.
    inst = generate(spec)
    if bins is None:
        with pytest.raises(CapabilityError, match=f"no packing within {max_bins} bins"):
            exact_bins(inst, max_bins=max_bins, node_budget=nodes)
    else:
        assert len(exact_bins(inst, max_bins=max_bins, node_budget=nodes)) == bins
    with pytest.raises(CapabilityError, match="exact solver node budget exhausted"):
        exact_bins(inst, max_bins=max_bins, node_budget=nodes - 1)


def test_exact_matches_naive_partition_search():
    for seed in range(40):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 3 + seed % 6, 1000 + seed)
        packing, opt = opt_bpc_exact(inst)
        assert validate_packing(inst, packing, require_cover=True).feasible
        assert packing.bin_count == opt
        assert opt == brute_opt_bins(inst)


def test_exact_relabel_invariant():
    rng = SplitMix64(17)
    for seed in range(10):
        inst = seeded_instance("bipartite", 9, 1100 + seed)
        _, opt = opt_bpc_exact(inst)
        perm = list(range(inst.n))
        shuffle(rng, perm)
        mapping = dict(zip(inst.items, perm))
        relabeled = ConflictInstance(
            {mapping[i]: inst.sizes[i] for i in inst.items},
            [(mapping[u], mapping[v]) for u, v in inst.edges],
        )
        assert opt_bpc_exact(relabeled)[1] == opt


def test_exact_bin_cap_mode():
    inst = ConflictInstance({i: "0.6" for i in range(5)})  # needs 5 bins
    with pytest.raises(CapabilityError):
        exact_bins(inst, max_bins=3)
    small = ConflictInstance({0: "0.6", 1: "0.6"})
    assert len(exact_bins(small, max_bins=3)) == 2


def test_bis_brute_examples():
    path = ConflictInstance({0: "0.1", 1: "0.1", 2: "0.1"}, edges=[(0, 1), (1, 2)])
    problem = BisProblem(
        vertices=(0, 1, 2),
        adjacency=path.adjacency,
        weights={0: Fraction(1), 1: Fraction(3), 2: Fraction(1)},
        budget=Fraction(10),
        class_info=recognize(path),
    )
    chosen, value = bis_brute(problem)
    assert chosen == {1} and value == 3

    zero_budget = BisProblem((0, 1), {0: 0, 1: 0}, {0: Fraction(1), 1: Fraction(2)}, Fraction(0), recognize(path))
    assert bis_brute(zero_budget) == (frozenset(), 0)

    edgeless = BisProblem((0, 1, 2), {i: 0 for i in range(3)}, {i: Fraction(1) for i in range(3)}, Fraction(10**9), recognize(path))
    chosen, value = bis_brute(edgeless)
    assert chosen == {0, 1, 2} and value == 3


def test_bis_brute_limit():
    problem = BisProblem(tuple(range(21)), {i: 0 for i in range(21)}, {i: Fraction(1) for i in range(21)}, Fraction(1), None)
    with pytest.raises(CapabilityError):
        bis_brute(problem)


def test_maxsize_brute_examples():
    inst = ConflictInstance({0: "0.7", 1: "0.6", 2: "0.3"})
    start = make_packing([set()])
    assert maxsize_brute(inst, start) == 1

    full = make_packing([{0}, {1}, {2}])
    assert maxsize_brute(inst, full) == 0

    conf = ConflictInstance({0: "0.5", 1: "0.2"}, edges=[(0, 1)])
    assert maxsize_brute(conf, make_packing([{0}])) == 0


def test_maxsize_brute_limits():
    inst = ConflictInstance({i: "0.05" for i in range(13)})
    with pytest.raises(CapabilityError):
        maxsize_brute(inst, make_packing([set()]))
    inst2 = ConflictInstance({0: "0.1"})
    with pytest.raises(CapabilityError):
        maxsize_brute(inst2, make_packing([set()] * 5))


def test_exact_below_every_approximation():
    from cbp import approx_bpc, color_sets, matching_pack, max_solve

    for seed in range(12):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 8 + seed % 5, 1200 + seed)
        info = recognize(inst)
        _, opt = opt_bpc_exact(inst)
        for algo in (color_sets, max_solve, matching_pack, approx_bpc):
            assert algo(inst, info).bin_count >= opt
