import collections
import dataclasses
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import cbp
from cbp import bis, bpc, graphs, maxsize, oracle, packing_classic
from cbp import (
    AssignConfig,
    CapabilityError,
    ConflictInstance,
    Packing,
    ParameterError,
    abs_bpb,
    approx_bpc,
    assign,
    classify_items,
    color_sets,
    matching_pack,
    max_solve,
    minimum_coloring,
    multipartite_pack,
    opt_bpc_exact,
    recognize,
    round_assignment,
    split_approx,
    validate_packing,
)
from cbp.bpc import _enumerate_feasible_packings
from cbp.graphs import restrict_class_info
from cbp.harness import ALGORITHMS, GeneratorSpec, SizeDist, generate, generate_b3dm, run_algorithm
from cbp.maxsize import max_size
from cbp.model import _mask_to_ids, bin_lower_bound, restrict_instance
from cbp.packing_classic import asymptotic_bp, ffd

import conftest
from conftest import (
    CLASSES,
    make_packing,
    mask_pairs,
    ref_abs_bpb,
    ref_approx_bpc,
    ref_assign,
    ref_best_bins,
    ref_build_assignment_lp,
    ref_enumerate_feasible_packings,
    ref_maximum_matching_general,
    ref_maximum_matching_masks,
    ref_round_assignment,
    ref_solve_assignment_lp,
    ref_split_approx,
    seeded_instance,
)

# Sizes of the tiny-item bipartite instances: tiny items at or below
# AssignConfig's eps = 1/10000, big ones between 2/5 and 1/2.
TINY_SIZES = SizeDist(kind="discrete", values=("1/20000", "1/10000") * 2 + ("2/5", "9/20", "1/2"))
# Sizes with small items tiny at AssignConfig(eps=1/20), where the
# rounding beats the coloring on some instances.
SMALL_ITEM_SIZES = SizeDist(kind="discrete", values=("2/5", "9/20", "1/2", "1/20", "1/25", "1/40"))


def coloring_bound(instance, info):
    chi = len(minimum_coloring(instance, info))
    classes = classify_items(instance)
    return (
        chi
        + len(classes.large)
        + Fraction(3, 2) * instance.size_of(classes.medium)
        + Fraction(4, 3) * instance.size_of(classes.small)
    )


def test_color_sets_examples():
    edgeless = ConflictInstance({0: "0.6", 1: "0.6", 2: "0.3"})
    packing = color_sets(edgeless)
    assert packing.bin_count == asymptotic_bp(edgeless.items, edgeless.sizes).bin_count

    bip = ConflictInstance(
        {0: "0.5", 1: "0.4", 2: "0.5", 3: "0.4"}, edges=[(0, 2), (0, 3), (1, 2)]
    )
    info = recognize(bip)
    x, y = info.bipartition
    assert bip.size_of(x) <= 1 and bip.size_of(y) <= 1
    assert color_sets(bip, info).bin_count == 2

    assert color_sets(ConflictInstance({})).bin_count == 0


def test_color_sets_bound_random():
    for seed in range(40):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 4 + seed % 12, 7000 + seed)
        info = recognize(inst)
        packing = color_sets(inst, info)
        assert validate_packing(inst, packing, require_cover=True).feasible
        assert Fraction(packing.bin_count) <= coloring_bound(inst, info)


def test_color_sets_bound_check_survives_optimize(monkeypatch):
    # Zero the bound's item terms so two 0.6 items (chi = 1, two bins)
    # break it; the check must raise even under python -O. Before that, on
    # an instance where the matching's floor decides, approx_bpc must give
    # the same bins and flags under -O as here.
    inst = seeded_instance("chordal", 20, 2)
    matcher = bpc.maximum_matching_masks
    calls = []
    monkeypatch.setattr(bpc, "maximum_matching_masks", lambda aux: calls.append(1) or matcher(aux))
    packing = approx_bpc(inst)
    assert calls == []
    code = (
        "import sys\n"
        "from cbp import ConflictInstance, SolverError, bpc\n"
        "from cbp.harness import GeneratorSpec, generate\n"
        "packing = bpc.approx_bpc(generate(GeneratorSpec(klass='chordal', n=20, density=0.4, seed=2)))\n"
        "print([sorted(b) for b in packing.bins], packing.flags)\n"
        "bpc._class_bound_terms = lambda instance: (0, 0, 0)\n"
        "try:\n"
        "    bpc.color_sets(ConflictInstance({0: '0.6', 1: '0.6'}))\n"
        "except SolverError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cbp.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == f"{[sorted(b) for b in packing.bins]} {packing.flags}\n1 coloring-based bound violated: 2 > 1\n"


def test_max_solve_examples():
    no_large = ConflictInstance({0: "0.3", 1: "0.4"})
    info = recognize(no_large)
    assert max_solve(no_large, info).bin_count == color_sets(no_large, info).bin_count

    pair = ConflictInstance({0: "0.7", 1: "0.3"})
    assert max_solve(pair).bin_count == 1

    conflicted = ConflictInstance({0: "0.7", 1: "0.3"}, edges=[(0, 1)])
    assert max_solve(conflicted).bin_count == 2


def test_size_zero_items_join_grown_bins():
    # Items 0 and 3 have size 0. The growth's solvers drop weight-0 items,
    # so each bin takes them after its pick, and none is left for a third
    # bin: max_solve grows {1} by 3 and {2} by 0; split_approx grows its
    # clique singleton {0} by 2 and 3.
    inst = ConflictInstance([0, "7/10", "3/5", 0], edges=[(0, 1), (1, 2)])
    assert opt_bpc_exact(inst)[1] == 2
    assert max_solve(inst).bins == (frozenset({1, 3}), frozenset({0, 2}))
    assert split_approx(inst).bins == (frozenset({0, 2, 3}), frozenset({1}))


def test_matching_pack_examples():
    mediums = ConflictInstance({0: "0.4", 1: "0.45", 2: "0.1"})
    packing = matching_pack(mediums)
    assert frozenset({0, 1}) in packing.bins

    clash = ConflictInstance({0: "0.4", 1: "0.45"}, edges=[(0, 1)])
    assert matching_pack(clash).bin_count == 2

    smalls = ConflictInstance({0: "0.2", 1: "0.2"})
    info = recognize(smalls)
    assert matching_pack(smalls, info).bin_count == color_sets(smalls, info).bin_count


def test_matching_pack_bound_with_oracle():
    for seed in range(20):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 6 + seed % 7, 7100 + seed)
        info = recognize(inst)
        packing = matching_pack(inst, info)
        assert validate_packing(inst, packing, require_cover=True).feasible
        _, opt = opt_bpc_exact(inst)
        chi = len(minimum_coloring(inst, info))
        smalls = classify_items(inst).small
        assert Fraction(packing.bin_count) <= opt + chi + Fraction(4, 3) * inst.size_of(smalls)


def nx_maximum_matching(vertices, edges):
    """Reference matcher: networkx's maximum-cardinality matching."""
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return frozenset((min(u, v), max(u, v)) for u, v in nx.max_weight_matching(g, maxcardinality=True))


def test_matching_pack_bin_count_independent_of_matcher(monkeypatch):
    # matching_pack makes |large + medium| - |M| bins for those items and
    # packs the small rest without looking at M, so any maximum matching M
    # gives the same bin count, and approx_bpc the same count and winner.
    instances = [seeded_instance(klass, n, 7300 + n) for klass in CLASSES for n in (12, 40, 80)]
    for variant in ("BPB", "BPS"):
        spec = GeneratorSpec(
            klass="b3dm-reduction", x_count=8, y_count=8, z_count=8, t_count=8, guess=4, variant=variant, seed=7301
        )
        instances.append(generate_b3dm(spec)[0])

    def run():
        out = []
        for inst in instances:
            info = recognize(inst)
            best = approx_bpc(inst, info)
            out.append((matching_pack(inst, info), best.bin_count, best.flags))
        return out

    ours = run()
    monkeypatch.setattr(
        bpc, "maximum_matching_masks", lambda adjacency: nx_maximum_matching(sorted(adjacency), mask_pairs(adjacency))
    )
    reference = run()
    for (packing, count, flags), (ref_packing, ref_count, ref_flags) in zip(ours, reference):
        assert packing.bin_count == ref_packing.bin_count
        assert (count, flags) == (ref_count, ref_flags)
    # The two matchers do pick different pairs, so the counts were not
    # equal merely because the packings were.
    assert any(a[0].bins != b[0].bins for a, b in zip(ours, reference))


def test_mask_matching_equals_edge_list_reference(monkeypatch):
    # The auxiliary graphs matching_pack builds as neighbour masks: the mask
    # core's matching is the edge-list reference's (sorted pairs, a greedy
    # pass over them, the same blossom searches) and is maximum.
    instances = [seeded_instance(klass, n, 7400 + n) for klass in CLASSES for n in (12, 40, 80, 160)]
    for variant in ("BPB", "BPS"):
        spec = GeneratorSpec(
            klass="b3dm-reduction", x_count=16, y_count=16, z_count=16, t_count=16, guess=8, variant=variant, seed=7401
        )
        instances.append(generate_b3dm(spec)[0])
    seen = []

    def recording(adjacency):
        seen.append(adjacency)
        return graphs.maximum_matching_masks(adjacency)

    monkeypatch.setattr(bpc, "maximum_matching_masks", recording)
    for inst in instances:
        matching_pack(inst, recognize(inst))
    assert len(seen) == len(instances)
    pairs_total = 0
    for adjacency in seen:
        pairs = mask_pairs(adjacency)
        got = graphs.maximum_matching_masks(adjacency)
        assert got == ref_maximum_matching_general(sorted(adjacency), pairs)
        assert got == ref_maximum_matching_masks(adjacency)
        assert len(got) == len(nx_maximum_matching(sorted(adjacency), pairs))
        pairs_total += len(pairs)
    assert pairs_total > 1000


def test_mask_matching_decodes_only_the_rows_it_scans(monkeypatch):
    # One pinned auxiliary graph of 106 vertices, 52 of them with a
    # neighbour: the matching decodes fewer masks than it has vertices with
    # a neighbour (the eager reference decodes one per vertex), so it reads
    # no isolated vertex's row and no row twice, and gives the same pairs.
    inst = seeded_instance("chordal", 160, 7560)
    seen = []
    matcher = bpc.maximum_matching_masks
    monkeypatch.setattr(bpc, "maximum_matching_masks", lambda aux: seen.append(aux) or matcher(aux))
    matching_pack(inst, recognize(inst))
    (aux,) = seen
    decode = graphs._mask_to_ids
    decoded = []
    monkeypatch.setattr(graphs, "_mask_to_ids", lambda mask: decoded.append(mask) or decode(mask))
    got = graphs.maximum_matching_masks(aux)
    assert len(aux) == 106
    assert len(decoded) < sum(1 for v in aux if aux[v] & ~(1 << v)) == 52
    assert got == ref_maximum_matching_masks(aux)


# Item sizes with zeros among them, large and medium ones to match, and
# small ones for the tail.
ZERO_SIZES = SizeDist(kind="discrete", values=(0, 0, "3/5", "1/2", "2/5", "1/3", "1/5"))


@settings(max_examples=200)
@given(
    klass=st.sampled_from(CLASSES + ("b3dm",)),
    sizes=st.sampled_from((SizeDist(), TINY_SIZES, ZERO_SIZES)),
    n=st.integers(0, 40),
    density=st.sampled_from((0.2, 0.4, 0.6)),
    variant=st.sampled_from(("BPB", "BPS")),
    seed=st.integers(0, 2**32 - 1),
)
def test_matching_floors_never_exceed_its_bin_count(klass, sizes, n, density, variant, seed):
    # approx_bpc skips the matching once a floor on its bin count reaches
    # the count to beat. Asked to beat one more than its own count, no
    # floor (the L1 bound of the small items, then their packed tail, each
    # plus a floor on the unmatched large and medium items) may skip it. A b3dm
    # instance has its own sizes and at most 36 items.
    if klass == "b3dm":
        q = 2 + n % 5
        spec = GeneratorSpec(
            klass="b3dm-reduction", x_count=q, y_count=q, z_count=q, t_count=q, guess=1 + n % q, variant=variant, seed=seed
        )
        inst = generate_b3dm(spec)[0]
    else:
        inst = generate(GeneratorSpec(klass=klass, n=n, density=density, size_dist=sizes, seed=seed))
    info = recognize(inst)
    packing = matching_pack(inst, info)
    floored = bpc._matching_pack(inst, info, packing.bin_count + 1)
    assert floored is not None
    assert (floored.bins, floored.source, floored.flags) == (packing.bins, packing.source, packing.flags)
    # At its own count a floor may decide, and the packing is unchanged.
    tied = bpc._matching_pack(inst, info, packing.bin_count)
    assert tied is None or tied.bins == packing.bins


FLOOR_CASES = [
    ("chordal", 16, 0, 0, 0, None),  # the item counts decide, before any mask
    ("chordal", 20, 2, 1, 0, None),  # the items with a partner decide
    ("chordal", 26, 4, 1, 1, "winner:matching_pack"),  # runs and wins
    ("split", 40, 3, 1, 1, None),  # runs and loses
]


@pytest.mark.parametrize(
    "klass, n, seed, masks, calls, winner",
    FLOOR_CASES,
    # Named without the mask count, as before it was counted.
    ids=["-".join(map(str, case[:3] + case[4:])) for case in FLOOR_CASES],
)
def test_approx_bpc_runs_the_matching_only_below_its_floor(monkeypatch, klass, n, seed, masks, calls, winner):
    inst = seeded_instance(klass, n, seed)
    info = recognize(inst)
    want = ref_approx_bpc(inst, info)
    matchings, classified, bounded, fitted = [], [], [], []
    matcher, classify, bound, fits = bpc.maximum_matching_masks, bpc.classify_items, bpc.bin_lower_bound, bpc.fits_within
    monkeypatch.setattr(bpc, "maximum_matching_masks", lambda aux: matchings.append(1) or matcher(aux))
    monkeypatch.setattr(bpc, "classify_items", lambda *a, **kw: classified.append(1) or classify(*a, **kw))
    monkeypatch.setattr(bpc, "bin_lower_bound", lambda *a: bounded.append(1) or bound(*a))
    monkeypatch.setattr(bpc, "fits_within", lambda *a: fitted.append(1) or fits(*a))
    packing = approx_bpc(inst, info)
    assert (packing.bins, packing.source, packing.flags) == (want.bins, want.source, want.flags)
    assert (len(fitted), len(matchings)) == (masks, calls)
    if winner is None:
        assert packing.flags[-1] != "winner:matching_pack"
    else:
        assert packing.flags[-1] == winner
    # The standalone matching has no floor: one matching, one
    # classification and no L1 bound.
    matchings.clear()
    classified.clear()
    bounded.clear()
    matching_pack(inst, info)
    assert (len(matchings), len(classified), len(bounded)) == (1, 1, 0)


@pytest.mark.parametrize("algorithm", [approx_bpc, max_solve, split_approx])
def test_bad_eps_rejected_before_any_work(algorithm):
    # On a five-cycle (no supported class) the first subroutine would raise
    # a CapabilityError; on an empty instance there is nothing to solve.
    c5 = ConflictInstance({i: "0.6" for i in range(5)}, edges=[(i, (i + 1) % 5) for i in range(5)])
    for inst in (c5, ConflictInstance({})):
        for eps in (0, 2):
            with pytest.raises(ParameterError, match="eps must be in"):
                algorithm(inst, recognize(inst), eps=eps)


@pytest.mark.parametrize("algorithm", [approx_bpc, max_solve])
def test_eps_over_the_enumeration_cap_rejected_without_a_split_certificate(algorithm):
    # eps = 1/7 puts ceil(1/eps) over the cap of the enumeration scheme that
    # every growth without a split certificate runs. It is rejected before
    # any packing is made, also where the coloring would meet the bound
    # and no bin would reach that scheme. Split instances run: the split
    # scheme has no cap.
    c4 = ConflictInstance({i: "1/2" for i in range(4)}, edges=[(i, (i + 1) % 4) for i in range(4)])
    c5 = ConflictInstance({i: "0.6" for i in range(5)}, edges=[(i, (i + 1) % 5) for i in range(5)])
    rejected = [c4, c5]
    rejected += [generate(GeneratorSpec(klass="bipartite", n=12, density=0.4, seed=s)) for s in range(8)]
    split = [seeded_instance("split", 12, 7400 + s) for s in range(4)]
    for inst in rejected:
        info = recognize(inst)
        assert info.split_partition is None
        with mock.patch.object(bpc, "color_sets", side_effect=AssertionError("a packing was made")):
            with pytest.raises(ParameterError, match="enumeration bound"):
                algorithm(inst, info, eps=Fraction(1, 7))
    for inst in split:
        packing = algorithm(inst, recognize(inst), eps=Fraction(1, 7))
        assert validate_packing(inst, packing, require_cover=True).feasible


def test_approx_bpc_examples():
    assert approx_bpc(ConflictInstance({})).bin_count == 0
    for seed in range(12):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 9, 7200 + seed)
        info = recognize(inst)
        combined = approx_bpc(inst, info)
        parts = [color_sets(inst, info), max_solve(inst, info), matching_pack(inst, info)]
        assert combined.bin_count == min(p.bin_count for p in parts)
        assert any(f.startswith("winner:") for f in combined.flags)
        # deterministic
        assert approx_bpc(inst, info).flags == combined.flags


def test_approx_bpc_bipartite_ceiling():
    for seed in range(15):
        inst = seeded_instance("bipartite", 12, 7300 + seed)
        _, opt = opt_bpc_exact(inst)
        packing = approx_bpc(inst)
        assert packing.bin_count <= math.ceil(Fraction(5, 3) * opt)


@pytest.mark.parametrize("m", [3, 12, 40, 200])
def test_approx_bpc_is_optimal_on_crossed_pairs(m):
    # m items of 3/5 and m of 2/5, the i-th of each conflicting. The m large
    # items need m bins, and 3/5_i with 2/5_(i+1 mod m) fill exactly m. The
    # coloring keeps the sides apart: m bins, then ceil(m/2) for the 2/5s.
    sizes = {i: "3/5" for i in range(m)} | {m + i: "2/5" for i in range(m)}
    inst = ConflictInstance(sizes, edges=[(i, m + i) for i in range(m)])
    info = recognize(inst)
    units, den = inst.unit_table
    assert bin_lower_bound(units.values(), den) == m
    planted = make_packing([{i, m + (i + 1) % m} for i in range(m)])
    assert validate_packing(inst, planted, require_cover=True).feasible
    assert color_sets(inst, info).bin_count == m + -(-m // 2)
    packing = approx_bpc(inst, info)
    assert validate_packing(inst, packing, require_cover=True).feasible
    assert packing.bin_count == m
    if m == 3:
        assert packing.flags[-1] == "winner:matching_pack"


@pytest.mark.parametrize("k", [1, 2, 5])
def test_approx_bpc_within_its_ratio_where_ffd_is_worst(k):
    # 6k items of 51/100, 6k of 27/100, 6k of 26/100 and 12k of 23/100, no
    # conflicts: 6k bins {51, 26, 23} and 3k bins {27, 27, 23, 23} are all
    # full, so OPT = 9k, while FFD opens 11k (its 11/9 worst case).
    sizes = ["51/100"] * 6 * k + ["27/100"] * 6 * k + ["26/100"] * 6 * k + ["23/100"] * 12 * k
    inst = ConflictInstance(dict(enumerate(sizes)))
    big, mid, low = (range(j * 6 * k, (j + 1) * 6 * k) for j in range(3))
    tiny = range(18 * k, 30 * k)
    planted = [{big[i], low[i], tiny[i]} for i in range(6 * k)]
    planted += [{mid[2 * j], mid[2 * j + 1], tiny[6 * k + 2 * j], tiny[6 * k + 2 * j + 1]} for j in range(3 * k)]
    assert validate_packing(inst, make_packing(planted), require_cover=True).feasible
    units, den = inst.unit_table
    assert bin_lower_bound(units.values(), den) == 9 * k
    assert ffd(inst.items, inst.sizes).bin_count == 11 * k
    packing = approx_bpc(inst)
    assert validate_packing(inst, packing, require_cover=True).feasible
    assert 9 * k <= packing.bin_count <= math.ceil(Fraction(2445, 1000) * 9 * k)


def test_split_approx_examples():
    one_bin = ConflictInstance({0: "0.4", 1: "0.3"})
    assert split_approx(one_bin).bin_count == 1

    clique = ConflictInstance({0: "0.5", 1: "0.5"}, edges=[(0, 1)])
    assert split_approx(clique).bin_count == 2

    with pytest.raises(CapabilityError):
        split_approx(
            ConflictInstance({i: "0.1" for i in range(4)}, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        )
    assert split_approx(ConflictInstance({})).bin_count == 0


def test_split_approx_ceiling():
    bound = 1 + 2 / math.e
    for seed in range(15):
        inst = seeded_instance("split", 12, 7400 + seed)
        info = recognize(inst)
        packing = split_approx(inst, info)
        assert validate_packing(inst, packing, require_cover=True).feasible
        _, opt = opt_bpc_exact(inst)
        assert packing.bin_count <= math.ceil(bound * opt)


def _split_approx_per_guess(instance, info, eps=Fraction(1, 10)):
    """Reference: a fresh max_size growth and FFD tail for every guess."""
    clique, _ = info.split_partition
    singles = tuple(frozenset({v}) for v in sorted(clique))
    best = None
    for alpha in range(math.ceil(2 * instance.total_size) + 2):
        start = Packing(singles + (frozenset(),) * alpha, "split_approx")
        grown = max_size(instance, start, info, eps=eps).augmented
        rest = [i for i in instance.items if i not in grown.items()]
        candidate = Packing(grown.bins + ffd(rest, instance.sizes).bins, "split_approx", grown.flags)
        if best is None or candidate.bin_count < best.bin_count:
            best = candidate
    return best


def test_split_approx_matches_per_guess_growth():
    cases = []
    for seed in range(12):
        inst = seeded_instance("split", 5 + seed, 7450 + seed, density=0.2 + 0.05 * (seed % 8))
        cases.append((inst, recognize(inst)))
    decimal = SizeDist(kind="uniform", lo=0.05, hi=0.6)
    for seed in range(4):
        inst = generate(GeneratorSpec(klass="split", n=9, density=0.5, size_dist=decimal, seed=7470 + seed))
        cases.append((inst, recognize(inst)))
    edgeless = ConflictInstance({0: "0.6", 1: "0.6", 2: "0.3", 3: "0.25"})
    no_clique = dataclasses.replace(
        recognize(edgeless), split_partition=(frozenset(), frozenset(edgeless.items))
    )
    cases.append((edgeless, no_clique))
    bps, _ = generate_b3dm(
        GeneratorSpec(
            klass="b3dm-reduction", x_count=3, y_count=3, z_count=3, t_count=4, guess=2,
            variant="BPS", seed=7480,
        )
    )
    cases.append((bps, recognize(bps)))
    for inst, info in cases:
        assert info.is_split
        got = split_approx(inst, info)
        want = _split_approx_per_guess(inst, info)
        assert (got.bins, got.source, got.flags) == (want.bins, want.source, want.flags)


def test_split_approx_matches_every_tail_reference(monkeypatch):
    # split_approx skips a guess's FFD tail when its floor, the guess's
    # bins plus the L1 bound of its pool, reaches the best count, and
    # stops its growth once no later guess can win; the reference grows
    # every bin below the best count and computes every tail, over the
    # list-pool growth. Bins, source and flags agree, and tails were
    # skipped.
    cases = list(_split_tail_cases())
    assert len(cases) == 92
    tails = collections.Counter()
    for module, name in ((packing_classic, "_ffd_bins"), (conftest, "ref_ffd_bins")):

        def counting(*args, _ffd=getattr(module, name), _name=name):
            tails[_name] += 1
            return _ffd(*args)

        monkeypatch.setattr(module, name, counting)
    for inst in cases:
        info = recognize(inst)
        assert info.is_split
        want = ref_split_approx(inst, info)
        got = split_approx(inst, info)
        assert (got.bins, got.source, got.flags) == (want.bins, want.source, want.flags)
    assert tails["_ffd_bins"] < tails["ref_ffd_bins"]


def _split_tail_cases():
    """92 seeded split instances: grid and decimal sizes at n 20-80, and
    b3dm BPS at q 4 and 8."""
    decimal = SizeDist(kind="uniform", lo=0.05, hi=0.6)
    for n in (20, 30, 40, 60, 80):
        for density in (0.1, 0.2, 0.5):
            for seed in range(7600 + n, 10600 + n, 1000):
                yield seeded_instance("split", n, seed, density=density)
                yield generate(GeneratorSpec(klass="split", n=n, density=density, size_dist=decimal, seed=seed + 100))
    for q in (4, 8):
        spec = GeneratorSpec(
            klass="b3dm-reduction", x_count=q, y_count=q, z_count=q, t_count=q, guess=q // 2, variant="BPS", seed=7800 + q
        )
        yield generate_b3dm(spec)[0]


def _split_approx_skipping_tails(instance, initial, class_info, eps):
    """The bin count of split_approx's loop as it was when it grew every
    bin below the best count and only skipped the FFD tails whose floor
    reached it, on the library's growth from ``initial``."""
    units, den = instance.unit_table
    singles = sum(1 for b in initial.bins if b)
    best = None
    for bins, pool in itertools.islice(maxsize.greedy_growth(instance, initial, class_info, eps), singles, None):
        if best is not None and len(bins) >= best:
            break
        left = _mask_to_ids(pool)
        if best is not None and len(bins) + bin_lower_bound(map(units.__getitem__, left), den) >= best:
            continue
        count = len(bins) + len(packing_classic._ffd_bins(left, units, den))
        best = count if best is None else min(best, count)
    return best


def test_split_approx_stops_growing_once_no_guess_can_win(monkeypatch):
    # The growth stops at the first guess whose floor or next bin count
    # reaches the best count. On each case: the reference's bins, no more
    # split knapsacks than the reference (which grows every bin below the
    # best count), and no more knapsacks or FFD tails than the loop that
    # only skipped tails, replayed from the same start. In all, strictly
    # fewer knapsacks than either.
    calls = collections.Counter()
    for module, name in ((bis, "_fptas_split"), (conftest, "ref_fptas_split"), (packing_classic, "_ffd_bins")):

        def counting(*args, _solve=getattr(module, name), _name=name):
            calls[_name] += 1
            return _solve(*args)

        monkeypatch.setattr(module, name, counting)
    starts = []
    growth = bpc.greedy_growth

    def recording_growth(*args):
        starts.append(args)
        return growth(*args)

    monkeypatch.setattr(bpc, "greedy_growth", recording_growth)
    knapsacks = collections.Counter()
    for inst in _split_tail_cases():
        info = recognize(inst)
        assert info.is_split
        calls.clear()
        starts.clear()
        want = ref_split_approx(inst, info)
        got = split_approx(inst, info)
        assert (got.bins, got.source, got.flags) == (want.bins, want.source, want.flags)
        assert calls["_fptas_split"] <= calls["ref_fptas_split"]
        new = calls.copy()
        calls.clear()
        (start,) = starts
        assert _split_approx_skipping_tails(*start) == got.bin_count
        assert new["_fptas_split"] <= calls["_fptas_split"]
        assert new["_ffd_bins"] <= calls["_ffd_bins"]
        knapsacks.update(new=new["_fptas_split"], ref=new["ref_fptas_split"], skipping=calls["_fptas_split"])
    assert knapsacks["new"] < knapsacks["ref"]
    assert knapsacks["new"] < knapsacks["skipping"]


@settings(max_examples=150)
@given(
    n=st.integers(1, 14),
    density=st.sampled_from((0.2, 0.5, 0.8)),
    sizes=st.sampled_from(("grid", "decimal", "zeros")),
    full=st.integers(0, 13),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_growth_floor_never_falls(n, density, sizes, full, seed):
    # split_approx stops growing once the floor, the bins plus the L1
    # bound of the pool, reaches the best count. Past the clique
    # singletons each state adds one bin grown from empty, which takes at
    # most one bin of size and one item above 1/2 from the pool, so the
    # floor never falls along the full growth.
    dist = {
        "grid": SizeDist(),
        "decimal": SizeDist(kind="uniform", lo=0.05, hi=1.0),
        "zeros": SizeDist(kind="discrete", values=("0", "0", "1/10", "1/4", "2/5", "1/2", "3/5", "7/10")),
    }[sizes]
    inst = generate(GeneratorSpec(klass="split", n=n, density=density, size_dist=dist, seed=seed))
    clique = sorted(recognize(inst).split_partition[0])
    if clique:
        inst = ConflictInstance({**inst.sizes, clique[full % len(clique)]: 1}, inst.edges)
    info = recognize(inst)
    starts = []
    growth = bpc.greedy_growth

    def recording_growth(*args):
        starts.append(args)
        return growth(*args)

    with mock.patch.object(bpc, "greedy_growth", recording_growth):
        split_approx(inst, info)
    units, den = inst.unit_table
    for _, start, _, eps in starts:
        singles = sum(1 for b in start.bins if b)
        states = itertools.islice(growth(inst, start, info, eps), singles, None)
        floors = [len(bins) + bin_lower_bound(map(units.__getitem__, _mask_to_ids(pool)), den) for bins, pool in states]
        assert len(floors) == len(start.bins) - singles + 1
        assert floors == sorted(floors)


@settings(max_examples=150)
@given(
    n=st.integers(1, 12),
    density=st.sampled_from((0.2, 0.5, 0.8)),
    decimal=st.booleans(),
    full=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_approx_start_packing_is_feasible(n, density, decimal, full, seed):
    # split_approx grows its start packing without validating it: clique
    # singletons plus empty bins are feasible for any sizes in [0, 1],
    # here with one clique item of size 1 when the clique is not empty.
    sizes = SizeDist(kind="uniform", lo=0.05, hi=1.0) if decimal else SizeDist()
    inst = generate(GeneratorSpec(klass="split", n=n, density=density, size_dist=sizes, seed=seed))
    clique = sorted(recognize(inst).split_partition[0])
    if clique:
        inst = ConflictInstance({**inst.sizes, clique[full % len(clique)]: 1}, inst.edges)
    info = recognize(inst)
    starts = []
    growth = bpc.greedy_growth

    def recording_growth(instance, initial, class_info, eps):
        starts.append(initial)
        return growth(instance, initial, class_info, eps)

    with mock.patch.object(bpc, "greedy_growth", recording_growth):
        packing = split_approx(inst, info)
    assert validate_packing(inst, packing, require_cover=True).feasible
    assert starts or packing.bin_count == 1
    for start in starts:
        assert validate_packing(inst, start, require_cover=False).feasible
        assert [b for b in start.bins if b] == [frozenset({v}) for v in sorted(info.split_partition[0])]


def _rounded_with_lps(module, rounding, *args):
    """``rounding(*args)`` and the ``(objective, rows, rhs)`` of each LP it
    hands ``module.solve_max_lp``."""
    calls = []
    solve = module.solve_max_lp

    def recording(objective, rows, rhs):
        calls.append((objective, rows, rhs))
        return solve(objective, rows, rhs)

    with mock.patch.object(module, "solve_max_lp", recording):
        return rounding(*args), calls


def assert_rounds_as_reference(instance, big, w):
    # Same bins (in order), source, flags and LP as the reference.
    got, got_lps = _rounded_with_lps(bpc, round_assignment, instance, big, w)
    want, want_lps = _rounded_with_lps(conftest, ref_round_assignment, instance, big, w)
    assert (got.bins, got.source, got.flags) == (want.bins, want.source, want.flags)
    assert got_lps == want_lps
    return got


def test_assignment_lp_examples():
    inst = ConflictInstance({0: "0.5", 1: "0.2", 2: "0.2", 3: "0.2"})
    big = make_packing([{0}])
    lp = ref_build_assignment_lp(inst, big, [1, 2, 3])
    sol = ref_solve_assignment_lp(inst, lp)
    assert sol.objective == Fraction(5, 2)
    assert_rounds_as_reference(inst, big, [1, 2, 3])

    lp_empty = ref_build_assignment_lp(inst, big, [])
    assert ref_solve_assignment_lp(inst, lp_empty).objective == 0
    assert assert_rounds_as_reference(inst, big, []).bins == big.bins

    conflicted = ConflictInstance({0: "0.5", 1: "0.2"}, edges=[(0, 1)])
    lp_conf = ref_build_assignment_lp(conflicted, make_packing([{0}]), [1])
    assert lp_conf.eligible == (frozenset(),)
    assert not lp_conf.variables
    assert assert_rounds_as_reference(conflicted, make_packing([{0}]), [1]).bins == (frozenset({0}),)

    with pytest.raises(ParameterError, match=r"assignment items overlap the packed items: \[0\]"):
        round_assignment(inst, big, [0, 1])
    with pytest.raises(ParameterError, match=r"assignment items not in instance: \[9\]"):
        round_assignment(inst, big, [1, 9])
    with pytest.raises(ParameterError, match="initial packing infeasible"):
        round_assignment(inst, make_packing([{0, 1, 2, 3}]), [])


def test_round_assignment_examples():
    inst = ConflictInstance({0: "0.5", 1: "0.2", 2: "0.2", 3: "0.2"})
    big = make_packing([{0}])
    rounded = round_assignment(inst, big, [1, 2, 3])
    assert rounded.bin_count == 1
    assert len(rounded.items() - {0}) >= 2  # >= LP opt (2.5) - t (1)
    assert "lemma12:ok" in rounded.flags

    fits = ConflictInstance({0: "0.5", 1: "0.2", 2: "0.2"})
    rounded2 = round_assignment(fits, make_packing([{0}]), [1, 2])
    assert rounded2.items() == {0, 1, 2}  # integral LP packs all of W

    empty = round_assignment(fits, make_packing([]), [1, 2])
    assert empty.bin_count == 0


def test_round_assignment_structure_random():
    from cbp.rng import SplitMix64

    rng = SplitMix64(42)
    for seed in range(25):
        inst = seeded_instance("bipartite", 10, 7500 + seed, density=0.5)
        info = recognize(inst)
        x, y = info.bipartition
        side = sorted(x) if seed % 2 == 0 else sorted(y)
        w = side[: min(4, len(side))]
        big_items = [i for i in inst.items if i not in w]
        big = color_sets(
            ConflictInstance(
                {i: inst.sizes[i] for i in big_items},
                [(u, v) for u, v in inst.edges if u in big_items and v in big_items],
            )
        )
        lp = ref_build_assignment_lp(inst, big, w)
        sol = ref_solve_assignment_lp(inst, lp)
        assert len(sol.fractional_items) <= lp.bin_count
        rounded = assert_rounds_as_reference(inst, big, w)
        assert rounded.bin_count == big.bin_count
        kept = len(rounded.items() - big.items())
        assert Fraction(kept) >= sol.objective - lp.bin_count
        assert validate_packing(inst, rounded).feasible


def _tiny_testbed():
    # two conflicting 0.5 items (forced apart) plus tiny items on one side
    sizes = {0: "0.5", 1: "0.5", 2: "0.05", 3: "0.05", 4: "0.05", 5: "0.05"}
    edges = [(0, 1)]
    return ConflictInstance(sizes, edges)


def test_assign_examples():
    inst = _tiny_testbed()
    info = recognize(inst)
    config = AssignConfig(eps=Fraction(1, 12), max_bins=4, max_big_items=6)
    tiny = classify_items(inst, eps=config.eps).tiny
    packing = assign(inst, sorted(tiny), info, config)
    assert validate_packing(inst, packing, require_cover=True).feasible
    _, opt = opt_bpc_exact(inst)
    assert packing.bin_count <= opt + 1

    # enumeration cap fallback
    capped = AssignConfig(eps=Fraction(1, 12), max_big_items=1)
    fallback = assign(inst, sorted(tiny), info, capped)
    assert "enumeration-skipped" in fallback.flags
    assert fallback.bin_count == color_sets(inst, info).bin_count

    # no big items at all
    all_tiny = ConflictInstance({0: "0.01", 1: "0.01"})
    t_info = recognize(all_tiny)
    t_cfg = AssignConfig(eps=Fraction(1, 50))
    packing2 = assign(all_tiny, [0, 1], t_info, t_cfg)
    assert packing2.bin_count <= color_sets(all_tiny, t_info).bin_count


def _assign_every_packing(instance, w, info, config):
    """Reference: assign's loop, rounding every enumerated packing with the
    reference rounding, and checking each packing's bin states."""
    best = color_sets(instance, info).with_source("assign")
    bigs = sorted(classify_items(instance, eps=config.eps).big)
    count = 0
    for bins, states in _enumerate_feasible_packings(instance, bigs, config.max_bins):
        count += 1
        assert states == [instance.bin_state(b) for b in bins]
        rounded = ref_round_assignment(instance, Packing(bins, "enumerated"), w)
        rest = restrict_instance(instance, set(instance.items) - rounded.items())
        tail = color_sets(rest, restrict_class_info(info, rest.items))
        candidate = Packing(rounded.bins + tail.bins, "assign", rounded.flags)
        if candidate.bin_count < best.bin_count:
            best = candidate
    return best.with_flags(f"enumerated:{count}")


def test_assign_skipping_keeps_result():
    inst = _tiny_testbed()
    info = recognize(inst)
    config = AssignConfig(eps=Fraction(1, 12), max_bins=4, max_big_items=6)
    packing = assign(inst, [2, 3, 4, 5], info, config)
    assert packing.bins == (frozenset({0, 2, 3, 4, 5}), frozenset({1}))
    assert packing.flags == ("enumerated:1",)

    config = AssignConfig(eps=Fraction(1, 20))
    winners = set()
    for seed in range(16):
        inst = generate(GeneratorSpec(klass="bipartite", n=9, density=0.3, size_dist=SMALL_ITEM_SIZES, seed=7800 + seed))
        info = recognize(inst)
        tiny = classify_items(inst, eps=config.eps).tiny
        for side in info.bipartition:
            w = sorted(side & tiny)
            got = assign(inst, w, info, config)
            want = _assign_every_packing(inst, w, info, config)
            assert (got.bins, got.source, got.flags) == (want.bins, want.source, want.flags)
            winners.add("lemma12:ok" in got.flags)
    assert winners == {True, False}  # both the LP rounding and coloring won


def test_assign_rejects_conflicting_w_when_every_packing_is_skipped():
    # Coloring's two bins are already optimal, so every packing is skipped.
    inst = ConflictInstance({0: "0.5", 1: "0.5", 2: "0.05", 3: "0.05"}, edges=[(0, 1), (2, 3)])
    with pytest.raises(ParameterError, match="conflict-free"):
        assign(inst, [2, 3], recognize(inst), AssignConfig(eps=Fraction(1, 12)))
    # Two big items over the enumeration cap of one: no packing is enumerated.
    with pytest.raises(ParameterError, match="conflict-free"):
        assign(inst, [2, 3], recognize(inst), AssignConfig(eps=Fraction(1, 12), max_big_items=1))
    with pytest.raises(ParameterError, match="conflict-free"):
        round_assignment(inst, make_packing([{0}, {1}]), [2, 3])


def test_assignment_matches_the_reference(monkeypatch):
    # assign, round_assignment and abs_bpb give the reference's bins (in
    # order), source and flags. Above ABS_BPB_EXACT_LIMIT items abs_bpb
    # runs _assign, which is counted.
    assign_runs = []
    real_assign = bpc._assign
    monkeypatch.setattr(bpc, "_assign", lambda *args: assign_runs.append(args) or real_assign(*args))
    cases = [(n, TINY_SIZES, AssignConfig()) for n in (12, 18)]
    cases += [(n, SMALL_ITEM_SIZES, AssignConfig(eps=Fraction(1, 20))) for n in (9, 12)]
    flags = collections.Counter()
    for n, sizes, config in cases:
        for seed in range(6):
            inst = generate(GeneratorSpec(klass="bipartite", n=n, density=0.3, size_dist=sizes, seed=8100 + seed))
            info = recognize(inst)
            classes = classify_items(inst, eps=config.eps)
            for side in info.bipartition:
                w = sorted(side & classes.tiny)
                got = assign(inst, w, info, config)
                want = ref_assign(inst, w, info, config)
                assert (got.bins, got.source, got.flags) == (want.bins, want.source, want.flags)
                flags.update(got.flags)
                packings = ref_enumerate_feasible_packings(inst, sorted(classes.big), config.max_bins)
                for big in itertools.islice(packings, 8):
                    flags.update(assert_rounds_as_reference(inst, big, w).flags)
    assert flags["lemma12:ok"] > 100 and len([f for f in flags if f.startswith("enumerated:")]) > 10
    instances = [_assign_wins_instance()]
    instances += [generate(GeneratorSpec(klass="bipartite", n=18, density=0.6, size_dist=TINY_SIZES, seed=s)) for s in range(6)]
    for inst in instances:
        info = recognize(inst)
        got, want = abs_bpb(inst, info), ref_abs_bpb(inst, info)
        assert (got.bins, got.source, got.flags) == (want.bins, want.source, want.flags)
    assert len(assign_runs) >= 8


def test_assign_validates_no_enumerated_packing(monkeypatch):
    # The search builds each packing feasible and holds its bin states, so
    # assign neither validates a packing nor recomputes a bin state.
    inst = generate(GeneratorSpec(klass="bipartite", n=12, density=0.3, size_dist=SMALL_ITEM_SIZES, seed=8100))
    info = recognize(inst)
    config = AssignConfig(eps=Fraction(1, 20))
    w = sorted(info.bipartition[0] & classify_items(inst, eps=config.eps).tiny)
    want = ref_assign(inst, w, info, config)
    calls = collections.Counter()
    counted = ((bpc, "validate_initial"), (maxsize, "validate_packing"), (ConflictInstance, "bin_state"), (bpc, "solve_max_lp"))
    for owner, name in counted:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **kw: calls.update([name]) or real(*a, **kw))
    packing = assign(inst, w, info, config)
    assert (packing.bins, packing.flags) == (want.bins, want.flags)
    assert packing.flags == ("enumerated:26",)
    # One LP per packing with fewer bins than the coloring, none checked.
    assert calls == {"solve_max_lp": calls["solve_max_lp"]} and calls["solve_max_lp"] >= 10


def test_assign_needs_a_bipartite_certificate():
    triangle = ConflictInstance({0: "0.1", 1: "0.1", 2: "0.1"}, edges=[(0, 1), (1, 2), (0, 2)])
    with pytest.raises(CapabilityError, match="bipartite certificate required"):
        assign(triangle, [], recognize(triangle))


def test_assign_rejects_non_tiny_w():
    inst = _tiny_testbed()
    with pytest.raises(ParameterError):
        assign(inst, [0], recognize(inst), AssignConfig(eps=Fraction(1, 12)))


def test_abs_bpb_examples():
    assert abs_bpb(ConflictInstance({})).bin_count == 0

    one = ConflictInstance({0: "0.4", 1: "0.3"})
    assert abs_bpb(one).bin_count == 1

    with pytest.raises(CapabilityError):
        abs_bpb(ConflictInstance({0: "0.1", 1: "0.1", 2: "0.1"}, edges=[(0, 1), (1, 2), (0, 2)]))

    for seed in range(12):
        inst = seeded_instance("bipartite", 10 + seed % 5, 7600 + seed)
        packing = abs_bpb(inst)
        assert validate_packing(inst, packing, require_cover=True).feasible
        _, opt = opt_bpc_exact(inst)
        assert packing.bin_count <= math.ceil(Fraction(5, 3) * opt)


def test_abs_bpb_keeps_the_coloring_when_the_three_bin_search_fails(monkeypatch):
    # 18 items of 1/6 on K_{9,9}: the L1 bound is 3, but a bin holds one
    # side only and a side needs 2 bins, so OPT is 4. The bounded search
    # runs, finds no packing into 3 bins, and the coloring wins.
    inst = ConflictInstance({i: "1/6" for i in range(18)}, edges=[(u, v) for u in range(9) for v in range(9, 18)])
    units, den = inst.unit_table
    assert bin_lower_bound(units.values(), den) == 3
    assert opt_bpc_exact(inst)[1] == 4
    raised = []
    exact = oracle._exact_bins

    def recording(*args, **kwargs):
        try:
            return exact(*args, **kwargs)
        except CapabilityError as exc:
            raised.append((kwargs, str(exc)))
            raise

    monkeypatch.setattr(oracle, "_exact_bins", recording)
    packing = abs_bpb(inst)
    assert raised == [({"max_bins": 3, "node_budget": 200_000}, "no packing within 3 bins")]
    assert packing.bin_count == 4 and packing.flags[-1] == "winner:abs_bpb/color_sets"
    assert validate_packing(inst, packing, require_cover=True).feasible


def test_abs_bpb_large_instance_uses_bounded_search():
    # 18 items, optimum 2: the n > 16 path must still find a small packing.
    sizes = {i: "0.1" for i in range(18)}
    inst = ConflictInstance(sizes)
    packing = abs_bpb(inst)
    assert packing.bin_count == 2
    assert validate_packing(inst, packing, require_cover=True).feasible
    # Coloring's 4 bins sit above the bound of 3, so the bounded search runs and wins.
    inst = generate(GeneratorSpec(klass="bipartite", n=18, density=0.3, size_dist=TINY_SIZES, seed=1))
    packing = abs_bpb(inst)
    assert "winner:abs_bpb/exact-small" in packing.flags
    assert validate_packing(inst, packing, require_cover=True).feasible


def assert_best_of_matches_eager_reference(inst) -> list[Packing]:
    """``approx_bpc`` and, on a bipartite graph, ``abs_bpb``, each equal to
    its eager reference in ``conftest`` (every candidate computed, FFD and
    the exact search both run in ``_best_bins``): same bins, source, flags."""
    info = recognize(inst)
    runs = [(approx_bpc, ref_approx_bpc)]
    if info.bipartition is not None:
        runs.append((abs_bpb, ref_abs_bpb))
    packings = []
    for algorithm, reference in runs:
        packing = algorithm(inst, info)
        with mock.patch.object(packing_classic, "_best_bins", ref_best_bins):
            want = reference(inst, info)
        assert (packing.bins, packing.source, packing.flags) == (want.bins, want.source, want.flags)
        packings.append(packing)
    return packings


@settings(max_examples=200)
@given(
    klass=st.sampled_from(CLASSES + ("tiny-bipartite",)),
    n=st.integers(0, 14),
    density=st.sampled_from((0.2, 0.4, 0.6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_best_of_matches_eager_reference(klass, n, density, seed):
    if klass == "tiny-bipartite":
        spec = GeneratorSpec(klass="bipartite", n=n, density=density, size_dist=TINY_SIZES, seed=seed)
    else:
        spec = GeneratorSpec(klass=klass, n=n, density=density, seed=seed)
    assert_best_of_matches_eager_reference(generate(spec))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda klass=klass, n=n: seeded_instance(klass, n, 7900 + n), id=f"{klass}-{n}")
        for klass in CLASSES
        for n in (80, 160)
    ]
    + [
        pytest.param(
            lambda variant=variant: generate_b3dm(
                GeneratorSpec(
                    klass="b3dm-reduction", x_count=16, y_count=16, z_count=16, t_count=16, guess=8, variant=variant, seed=7901
                )
            )[0],
            id=f"b3dm-{variant}",
        )
        for variant in ("BPB", "BPS")
    ],
)
def test_best_of_matches_eager_reference_at_scale(make):
    # The property cases stop at n = 14, where the matching's floor seldom
    # decides; on these cases the matching never runs, skipped by its floor
    # or by the bin lower bound.
    assert_best_of_matches_eager_reference(make())


def _assign_wins_instance():
    # a0..a3 (3/5) and b0..b3 (39/100) on opposite sides, joined by a0-b0
    # only; tiny items s0..s2 join b_i, b_i+1 and t0..t2 join a_i, a_i+1,
    # which fixes the 2-coloring; three tiny items are isolated. Coloring
    # packs 4 + 2 bins; {a_i, b_i+1 mod 4} with the s items in them plus
    # one bin for the t items make 5. The bound is 4 and so is the
    # optimum, so the bounded exact search (at most 3 bins) finds nothing.
    sizes = {i: "3/5" for i in range(4)} | {i: "39/100" for i in range(4, 8)} | {i: "1/20000" for i in range(8, 17)}
    edges = [(0, 4)] + [(8 + i, 4 + j) for i in range(3) for j in (i, i + 1)]
    edges += [(11 + i, j) for i in range(3) for j in (i, i + 1)]
    return ConflictInstance(sizes, edges)


@pytest.mark.parametrize(
    "make, winners",
    [
        (lambda: seeded_instance("chordal", 12, 0, density=0.2), ["winner:max_solve"]),
        (lambda: seeded_instance("chordal", 26, 14, density=0.4), ["winner:matching_pack"]),
        (lambda: seeded_instance("split", 16, 104, density=0.4), ["winner:matching_pack"]),
        (
            lambda: generate(GeneratorSpec(klass="bipartite", n=14, density=0.4, size_dist=TINY_SIZES, seed=14)),
            ["winner:color_sets", "winner:abs_bpb/exact"],
        ),
        (
            lambda: generate(GeneratorSpec(klass="bipartite", n=18, density=0.3, size_dist=TINY_SIZES, seed=1)),
            ["winner:color_sets", "winner:abs_bpb/exact-small"],
        ),
        (_assign_wins_instance, ["winner:max_solve", "winner:assign"]),
    ],
)
def test_best_of_matches_eager_reference_when_a_later_candidate_wins(make, winners):
    packings = assert_best_of_matches_eager_reference(make())
    assert [p.flags[-1] for p in packings] == winners


def test_abs_bpb_skips_the_three_bin_search_above_the_bound(monkeypatch):
    # n 17 > 16 and an L1 bound of 4: no packing into at most 3 bins exists,
    # so the bounded exact search is never started. Bins, source and flags
    # stay the eager reference's, which runs that search and finds nothing.
    inst = _assign_wins_instance()
    info = recognize(inst)
    units, den = inst.unit_table
    assert inst.n == 17 and bin_lower_bound(units.values(), den) == 4
    want = ref_abs_bpb(inst, info)
    calls = []
    exact = oracle._exact_bins

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return exact(*args, **kwargs)

    monkeypatch.setattr(oracle, "_exact_bins", counting)
    packing = abs_bpb(inst, info)
    assert (packing.bins, packing.source, packing.flags) == (want.bins, want.source, want.flags)
    # color_sets may solve a class exactly, with no bin cap.
    assert [kw for kw in calls if "max_bins" in kw] == []


@pytest.mark.parametrize(
    "make, n, assign_calls",
    [
        # {0, 1, 2} completely joined to {3, 4}: the optimum 3 lies above
        # the bound 2, which the parent left to both assignment runs.
        (
            lambda: ConflictInstance(
                {0: "1/2", 1: "1/2", 2: "1/20000", 3: "2/5", 4: "2/5"},
                edges=[(u, v) for u in (0, 1, 2) for v in (3, 4)],
            ),
            5,
            0,
        ),
        # Coloring wins at the optimum, which also lies above the bound.
        (lambda: generate(GeneratorSpec(klass="bipartite", n=16, density=0.3, size_dist=TINY_SIZES, seed=1)), 16, 0),
        (_assign_wins_instance, 17, 2),
    ],
)
def test_abs_bpb_runs_assign_only_above_the_exact_limit(monkeypatch, make, n, assign_calls):
    # Up to ABS_BPB_EXACT_LIMIT items the exact candidate is the optimum,
    # so no assignment run is made; above it both sides are tried. Bins,
    # source and flags stay the eager reference's, which runs them all.
    inst = make()
    info = recognize(inst)
    assert inst.n == n
    want = ref_abs_bpb(inst, info)
    calls = []
    original = bpc._assign

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bpc, "_assign", counting)
    packing = abs_bpb(inst, info)
    assert (packing.bins, packing.source, packing.flags) == (want.bins, want.source, want.flags)
    assert len(calls) == assign_calls


def test_abs_bpb_colors_its_instance_once(monkeypatch):
    # Its own candidate and both one-sided assign runs share one coloring
    # of the whole instance; bins, source and flags stay the eager
    # reference's, where each assign colors the instance again.
    inst = _assign_wins_instance()
    info = recognize(inst)
    want = ref_abs_bpb(inst, info)
    calls = []
    coloring = bpc.color_sets

    def counting(instance, info=None):
        calls.append(instance is inst)
        return coloring(instance, info)

    monkeypatch.setattr(bpc, "color_sets", counting)
    packing = abs_bpb(inst, info)
    assert (packing.bins, packing.source, packing.flags) == (want.bins, want.source, want.flags)
    assert "winner:assign" in packing.flags
    assert calls.count(True) == 1
    calls.clear()
    assign(inst, sorted(info.bipartition[0] & classify_items(inst, eps=AssignConfig().eps).tiny), info)
    assert calls.count(True) == 1


def test_multipartite_examples():
    two_parts = ConflictInstance(
        {0: "0.6", 1: "0.6", 2: "0.6", 3: "0.6"},
        edges=[(0, 2), (0, 3), (1, 2), (1, 3)],
    )
    packing = multipartite_pack(two_parts)
    assert packing.bin_count == 4
    _, opt = opt_bpc_exact(two_parts)
    assert packing.bin_count == opt

    one_part = ConflictInstance({0: "0.6", 1: "0.3"})
    assert multipartite_pack(one_part).bin_count == asymptotic_bp([0, 1], one_part.sizes).bin_count

    assert multipartite_pack(ConflictInstance({})).bin_count == 0

    with pytest.raises(CapabilityError):
        multipartite_pack(ConflictInstance({0: "0.1", 1: "0.1", 2: "0.1"}, edges=[(0, 1)]))


def test_multipartite_decomposition():
    for seed in range(15):
        inst = seeded_instance("complete-multipartite", 6 + seed % 9, 7700 + seed)
        info = recognize(inst)
        packing = multipartite_pack(inst, info)
        assert validate_packing(inst, packing, require_cover=True).feasible
        _, opt = opt_bpc_exact(inst)
        per_part = 0
        for part in info.parts:
            sub = ConflictInstance({i: inst.sizes[i] for i in part})
            per_part += opt_bpc_exact(sub)[1]
        assert per_part == opt
        assert packing.bin_count <= math.ceil(1.5 * opt)


@pytest.mark.parametrize("relabel", [lambda i: i + 1000, lambda i: 3 * i + 5], ids=["shift", "sparse"])
def test_order_preserving_relabeling_keeps_every_algorithm(relabel):
    # Ties break by id, so a map that keeps the id order keeps every
    # algorithm's bins (up to the map), source and flags, or its refusal.
    instances = [seeded_instance(klass, n, 8800 + n) for klass in CLASSES for n in (6, 13, 20)]
    b3dm = GeneratorSpec(klass="b3dm-reduction", x_count=3, y_count=3, z_count=3, t_count=4, guess=2, seed=7)
    instances.append(generate_b3dm(b3dm)[0])
    for inst in instances:
        mapped = ConflictInstance(
            {relabel(i): s for i, s in inst.sizes.items()}, [(relabel(u), relabel(v)) for u, v in inst.edges]
        )
        info, mapped_info = recognize(inst), recognize(mapped)
        for name in ALGORITHMS:
            try:
                packing = run_algorithm(name, inst, info)
            except CapabilityError:
                with pytest.raises(CapabilityError):
                    run_algorithm(name, mapped, mapped_info)
                continue
            got = run_algorithm(name, mapped, mapped_info)
            assert got.bins == tuple(frozenset(map(relabel, b)) for b in packing.bins)
            assert (got.source, got.flags) == (packing.source, packing.flags)
