import collections
import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import cbp
from cbp import (
    CapabilityError,
    ConflictInstance,
    GraphClassInfo,
    ParameterError,
    bpc,
    graphs,
    harness,
    maximum_matching_general,
    minimum_coloring,
    recognize,
    restrict_class_info,
)
from cbp.model import _ids_mask, restrict_instance
from cbp.rng import SplitMix64

from conftest import (
    CLASSES,
    brute_chromatic,
    brute_matching_size,
    brute_mwis_value,
    brute_split_partition_exists,
    ref_maximum_matching_general,
    ref_maximum_matching_masks,
    run_every_algorithm,
    seeded_instance,
)


def sizes(n, value="0.1"):
    return {i: value for i in range(n)}


def mwis(inst, info, weights):
    """``graphs._mwis_core`` on the mask of every item, the call
    ``bis._ptas`` makes on a residual."""
    return graphs._mwis_core(list(inst.items), inst.adjacency, _ids_mask(inst.items), info, weights)


def test_recognize_four_cycle():
    inst = ConflictInstance(sizes(4), edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    info = recognize(inst)
    assert info.is_bipartite
    x, y = info.bipartition
    assert len(x) == len(y) == 2
    assert not info.is_split
    assert not info.is_chordal


def test_recognize_triangle():
    inst = ConflictInstance(sizes(3), edges=[(0, 1), (1, 2), (0, 2)])
    info = recognize(inst)
    assert not info.is_bipartite
    assert info.is_split and info.split_partition[0] == {0, 1, 2}
    assert info.is_complete_multipartite and len(info.parts) == 3
    assert info.is_chordal
    assert info.is_cluster


def test_recognize_edgeless():
    inst = ConflictInstance(sizes(3))
    info = recognize(inst)
    assert info.is_edgeless and info.is_bipartite and info.is_cluster and info.is_chordal
    assert info.is_complete_multipartite and len(info.parts) == 1


def test_recognize_five_cycle_unsupported():
    inst = ConflictInstance(sizes(5), edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    info = recognize(inst)
    assert info.supported_classes() == ()
    with pytest.raises(CapabilityError):
        minimum_coloring(inst, info)
    with pytest.raises(CapabilityError):
        mwis(inst, info, {i: Fraction(1) for i in inst.items})


def _as_nx(inst):
    g = nx.Graph()
    g.add_nodes_from(inst.items)
    g.add_edges_from(inst.edges)
    return g


def _random_instance(seed, n, p):
    rng = SplitMix64(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.unit() < p]
    return ConflictInstance(sizes(n), edges)


def _cycle_off_clique(k, m, cone, fan):
    """Clique 0..m-1 and a cycle on m..m+k-1, one edge apart. With ``cone``
    every cycle vertex also joins the whole clique (a wheel for m = 1);
    with ``fan`` the cycle is triangulated from vertex m, which makes the
    graph chordal."""
    cycle = list(range(m, m + k))
    edges = {(u, v) for u in range(m) for v in range(u + 1, m)}
    edges |= {(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    edges.add((0, cycle[k // 2]))
    if cone:
        edges |= {(u, v) for u in range(m) for v in cycle}
    if fan:
        edges |= {(cycle[0], v) for v in cycle[2:-1]}
    return ConflictInstance(sizes(m + k), edges)


def test_recognizers_against_networkx_and_brute():
    for seed in range(60):
        n = 3 + seed % 7
        inst = _random_instance(seed, n, 0.15 + 0.1 * (seed % 8))
        info = recognize(inst)
        g = _as_nx(inst)
        assert info.is_bipartite == nx.is_bipartite(g)
        assert info.is_chordal == nx.is_chordal(g)
        assert info.is_split == brute_split_partition_exists(inst)
    # Larger graphs: sparse ones (forests, mostly chordal and bipartite),
    # dense ones, and seeded chordal and bipartite graphs with an edge added.
    answers = set()
    for n in range(10, 61):
        rng = SplitMix64(n)
        for inst in (
            _random_instance(100 + n, n, 1.5 / n),
            _random_instance(200 + n, n, 0.3),
            _random_instance(300 + n, n, 1 - 1.5 / n),
            seeded_instance(("chordal", "bipartite")[n % 2], n, 700 + n),
        ):
            u, v = rng.below(n), rng.below(n)
            plus_one = inst.edges | {(u, v)} if u != v else inst.edges
            for edges in (inst.edges, plus_one):
                g_inst = ConflictInstance(sizes(n), edges)
                info = recognize(g_inst)
                g = _as_nx(g_inst)
                assert info.is_bipartite == nx.is_bipartite(g)
                assert info.is_chordal == nx.is_chordal(g)
                answers.add((info.is_bipartite, info.is_chordal))
    assert len(answers) == 4
    # Induced cycles C4..C12 hung off cliques, plus their triangulations.
    for k in range(4, 13):
        for m in range(1, 5):
            for cone in (False, True):
                for fan in (False, True):
                    inst = _cycle_off_clique(k, m, cone, fan)
                    info = recognize(inst)
                    g = _as_nx(inst)
                    assert info.is_chordal == nx.is_chordal(g) == fan
                    assert info.is_bipartite == nx.is_bipartite(g)


def assert_certificates_hold(inst, info):
    """Every certificate in ``info`` checked edge by edge on ``inst``."""
    items = set(inst.items)

    def is_clique(vs):
        return all(inst.has_edge(u, v) for u in vs for v in vs if u < v)

    def is_partition(blocks):
        return all(blocks) and sum(map(len, blocks)) == len(items) and set().union(*blocks) == items

    if info.bipartition is not None:
        x, y = info.bipartition
        assert inst.is_independent(x) and inst.is_independent(y)
        assert not (x & y) and (x | y) == items
    if info.split_partition is not None:
        k, s = info.split_partition
        assert is_clique(k) and inst.is_independent(s)
        assert not (k & s) and (k | s) == items
    if info.cluster_components is not None:
        comps = info.cluster_components
        assert is_partition(comps) and all(is_clique(c) for c in comps)
        assert not any(inst.has_edge(u, v) for a in comps for b in comps if a != b for u in a for v in b)
    if info.parts is not None:
        parts = info.parts
        assert is_partition(parts) and all(inst.is_independent(p) for p in parts)
        assert all(inst.has_edge(u, v) for a in parts for b in parts if a != b for u in a for v in b)
    if info.elimination_order is not None:
        order = info.elimination_order
        assert sorted(order) == sorted(items)
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [u for u in inst.neighbors(v) if pos[u] > pos[v]]
            assert is_clique(later)


def chordless_cycle(n):
    return ConflictInstance(sizes(n), [(i, (i + 1) % n) for i in range(n)])


def test_class_names_are_pinned():
    assert graphs.SUPPORTED_CLASS_NAMES == (
        "edgeless", "bipartite", "split", "cluster", "complete-multipartite", "chordal"
    )
    assert harness.GENERATOR_CLASSES == (
        "bipartite", "split", "cluster", "complete-multipartite", "chordal", "edgeless", "b3dm-reduction"
    )


def test_has_class_agrees_with_recognize():
    instances = [chordless_cycle(5), chordless_cycle(4)]
    for klass in harness.GENERATOR_CLASSES:
        for seed in range(3):
            if klass == "b3dm-reduction":
                spec = harness.GeneratorSpec(
                    klass=klass, x_count=3, y_count=3, z_count=3, t_count=4, guess=seed,
                    variant=("BPB", "BPS")[seed % 2], seed=seed,
                )
            else:
                spec = harness.GeneratorSpec(klass=klass, n=4 * seed + 3, density=0.2 + 0.3 * seed, seed=seed)
            instances.append(harness.generate(spec))
    for inst in instances:
        held = recognize(inst).supported_classes()
        assert [name for name in graphs.SUPPORTED_CLASS_NAMES if graphs.has_class(inst, name)] == list(held)
    assert recognize(chordless_cycle(5)).supported_classes() == ()
    assert recognize(chordless_cycle(4)).supported_classes() == ("bipartite", "complete-multipartite")


def test_verify_declared_class_rejects_a_5_cycle():
    with pytest.raises(AssertionError, match="non-bipartite"):
        harness._verify_declared_class(chordless_cycle(5), "bipartite")


def test_certificates_verify():
    for seed in range(40):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 4 + seed % 10, 300 + seed)
        info = recognize(inst)
        assert klass in info.supported_classes() or (
            klass == "edgeless" and info.is_edgeless
        )
        assert_certificates_hold(inst, info)


def test_minimum_coloring_examples():
    c4 = ConflictInstance(sizes(4), edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(minimum_coloring(c4, recognize(c4))) == 2
    k3 = ConflictInstance(sizes(3), edges=[(0, 1), (1, 2), (0, 2)])
    assert len(minimum_coloring(k3, recognize(k3))) == 3
    split = ConflictInstance(sizes(3), edges=[(0, 1), (0, 2)])
    coloring = minimum_coloring(split, recognize(split))
    assert len(coloring) == 2


def test_minimum_coloring_matches_brute_chromatic():
    for seed in range(50):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 3 + seed % 8, 400 + seed)
        info = recognize(inst)
        coloring = minimum_coloring(inst, info)
        for cls in coloring:
            assert inst.is_independent(cls)
        covered = set()
        for cls in coloring:
            assert not (cls & covered)
            covered |= cls
        assert covered == set(inst.items)
        assert len(coloring) == brute_chromatic(inst)


def test_mwis_examples():
    path = ConflictInstance(sizes(3), edges=[(0, 1), (1, 2)])
    w = {0: Fraction(1), 1: Fraction(3), 2: Fraction(1)}
    assert mwis(path, recognize(path), w) == {1}

    edgeless = ConflictInstance(sizes(3))
    w1 = {i: Fraction(1) for i in range(3)}
    assert mwis(edgeless, recognize(edgeless), w1) == {0, 1, 2}

    k3 = ConflictInstance(sizes(3), edges=[(0, 1), (1, 2), (0, 2)])
    w2 = {0: Fraction(2), 1: Fraction(5), 2: Fraction(1)}
    assert mwis(k3, recognize(k3), w2) == {1}


def test_mwis_matches_brute():
    for seed in range(70):
        klass = CLASSES[seed % len(CLASSES)]
        n = 4 + seed % 13
        inst = seeded_instance(klass, n, 500 + seed)
        rng = SplitMix64(seed)
        weights = {i: Fraction(1 + rng.below(8), 4) for i in inst.items}
        info = recognize(inst)
        chosen = mwis(inst, info, weights)
        assert inst.is_independent(chosen)
        value = sum((weights[v] for v in chosen), Fraction(0))
        assert value == brute_mwis_value(inst, weights)


def test_mwis_ignores_zero_weight():
    edgeless = ConflictInstance(sizes(3))
    w = {0: Fraction(0), 1: Fraction(2), 2: Fraction(0)}
    assert mwis(edgeless, recognize(edgeless), w) == {1}


def _brute_mwis_minimal_x(adj, vertices, x_side, weights):
    """Among the maximum-weight independent sets of the positive-weight
    ``vertices``, the one whose part in ``x_side`` is inclusion-minimal,
    and the number of maximum-weight sets."""
    positive = [v for v in vertices if weights[v] > 0]
    best_w, optima = None, []
    for bits in range(1 << len(positive)):
        chosen = [v for k, v in enumerate(positive) if bits >> k & 1]
        mask = sum(1 << v for v in chosen)
        if any(adj[v] & mask for v in chosen):
            continue
        w = sum((weights[v] for v in chosen), Fraction(0))
        if best_w is None or w > best_w:
            best_w, optima = w, []
        if w == best_w:
            optima.append(frozenset(chosen))
    minimal = [s for s in optima if all(s & x_side <= t & x_side for t in optima)]
    assert len(minimal) == 1
    return minimal[0], len(optima)


def test_bipartite_mwis_is_the_minimal_cut_optimum():
    # The flow-based MWIS returns the X side the last search reaches plus
    # the Y side it does not: the inclusion-minimal minimum cut, which
    # every maximum flow leaves. Small repeated weights, zeros included,
    # make ties between optima common, so the tie rule is checked too.
    rng = SplitMix64(2024)
    ties = 0
    for _ in range(300):
        n = 2 + rng.below(11)
        inst = seeded_instance("bipartite", n, rng.next_u64(), density=0.2 + 0.7 * rng.unit())
        bipartition = recognize(inst).bipartition
        weights = {v: Fraction(rng.below(3)) for v in inst.items}
        sub = [v for v in inst.items if rng.below(4)]
        mask = sum(1 << v for v in sub)
        got = graphs._mwis_core(sub, inst.adjacency, mask, GraphClassInfo(bipartition=bipartition), weights)
        want, optima = _brute_mwis_minimal_x(inst.adjacency, sub, bipartition[0], weights)
        assert got == want
        ties += optima > 1
    assert ties >= 40


def test_coloring_reads_supergraph_certificates():
    # color_sets' callers hand minimum_coloring the certificates of the
    # whole instance with a restricted instance: it must color exactly as
    # with the certificates restricted to the kept items first.
    rng = SplitMix64(77)
    branches = collections.Counter()
    for k in range(180):
        inst = seeded_instance(CLASSES[k % len(CLASSES)], 4 + rng.below(14), rng.next_u64(), 0.2 + 0.7 * rng.unit())
        info = recognize(inst)
        # minimum_coloring's dispatch order.
        branch = next(
            name
            for name, cert in (
                ("edgeless", info.is_edgeless),
                ("bipartite", info.bipartition),
                ("chordal", info.elimination_order),
                ("complete-multipartite", info.parts),
            )
            if cert
        )
        for _ in range(3):
            kept = [v for v in inst.items if rng.below(3)]
            sub = restrict_instance(inst, kept)
            assert minimum_coloring(sub, info) == minimum_coloring(sub, restrict_class_info(info, kept))
            branches[branch] += 1
    assert min(branches[b] for b in ("bipartite", "chordal", "complete-multipartite")) >= 20


def test_matching_examples():
    assert len(maximum_matching_general([0, 1, 2], [(0, 1), (1, 2), (0, 2)])) == 1
    pairs = maximum_matching_general([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    assert pairs == {(0, 1), (2, 3)}
    assert maximum_matching_general([0, 1], []) == frozenset()


def test_matching_matches_brute():
    for seed in range(40):
        n = 3 + seed % 10
        inst = _random_instance(8000 + seed, n, 0.3)
        pairs = maximum_matching_general(inst.items, inst.edges)
        used = set()
        for u, v in pairs:
            assert (u, v) in inst.edges
            assert u not in used and v not in used
            used |= {u, v}
        assert len(pairs) == brute_matching_size(inst.items, inst.edges)


def nx_matching_size(vertices, edges) -> int:
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return len(nx.max_weight_matching(g, maxcardinality=True))


def assert_maximum_matching(vertices, edges, seed=0):
    """Valid, as large as networkx's, blind to the input's order, and the
    edge-list reference's matching (the wrapper runs the mask core)."""
    vertices = list(vertices)
    pairs = maximum_matching_general(vertices, edges)
    assert pairs == ref_maximum_matching_general(vertices, edges)
    sorted_edges = {(min(u, v), max(u, v)) for u, v in edges}
    used = set()
    for u, v in pairs:
        assert (u, v) in sorted_edges
        assert u not in used and v not in used
        used |= {u, v}
    assert len(pairs) == nx_matching_size(vertices, edges)
    rng = random.Random(seed)
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(shuffled)
    assert maximum_matching_general(vertices[::-1], shuffled) == pairs
    assert maximum_matching_general(vertices, [(v, u) for u, v in edges]) == pairs
    return pairs


def cycle(vertices):
    return [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]


def test_matching_petersen_is_perfect():
    g = nx.petersen_graph()
    assert len(assert_maximum_matching(g.nodes, list(g.edges))) == 5


@pytest.mark.parametrize("length", range(3, 16, 2))
def test_matching_odd_cycles(length):
    pairs = assert_maximum_matching(range(length), cycle(list(range(length))))
    assert len(pairs) == length // 2
    # A pendant vertex makes a perfect matching exist; reaching it from the
    # other free vertex may need a path through the contracted cycle.
    with_tail = cycle(list(range(length))) + [(length - 1, length)]
    assert len(assert_maximum_matching(range(length + 1), with_tail)) == (length + 1) // 2


def test_matching_two_triangles_joined_by_path():
    for path_len in range(0, 5):
        path = [2] + list(range(6, 6 + path_len)) + [3]
        edges = cycle([0, 1, 2]) + cycle([3, 4, 5]) + list(zip(path, path[1:]))
        assert_maximum_matching(range(6 + path_len), edges, seed=path_len)


def test_matching_nested_blossom_flower():
    # A stem 0-1 into the five-cycle 1..5, a triangle 3-6-7 hung on it and a
    # triangle 6-8-9 hung on that: the odd cycles share vertices, so a search
    # contracts blossoms that contain blossoms. A pendant vertex on one cycle
    # vertex, or on all of them, moves where an augmenting path must leave.
    base_edges = [(0, 1)] + cycle([1, 2, 3, 4, 5]) + cycle([3, 6, 7]) + cycle([6, 8, 9])
    for extra, v in enumerate([2, 4, 5, 7, 9], start=10):
        edges = base_edges + [(v, extra)]
        assert_maximum_matching(range(extra + 1), edges, seed=extra)
    pendants = [(v, 20 + k) for k, v in enumerate([2, 3, 4, 5, 6, 7, 8, 9])]
    assert_maximum_matching(list(range(10)) + list(range(20, 28)), base_edges + pendants)


@settings(max_examples=150)
@given(
    n=st.integers(0, 60),
    density=st.sampled_from([0.03, 0.08, 0.3, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matching_size_equals_networkx(n, density, seed):
    rng = random.Random(seed)
    ids = rng.sample(range(4 * n + 1), n)
    edges = [(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
    assert_maximum_matching(ids, edges, seed=seed)


def test_matching_size_equals_networkx_at_n_40_to_60():
    for seed in range(24):
        rng = random.Random(seed)
        n = 40 + seed % 21
        density = (0.04, 0.1, 0.5)[seed % 3]
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
        assert_maximum_matching(range(n), edges, seed=seed)


@settings(max_examples=300)
@given(
    n=st.integers(0, 40),
    spread=st.integers(1, 8),
    density=st.sampled_from([0.05, 0.2, 0.6, 0.95]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_matching_equals_eager_reference(n, spread, density, seed):
    # Sparse ids (up to spread * n + 1), isolated vertices, and some
    # vertices' own bits set: the lazy-row core gives the matching of the
    # eager-row reference, which builds every neighbour row up front.
    rng = random.Random(seed)
    ids = rng.sample(range(spread * n + 1), n)
    isolated = set(rng.sample(ids, n // 4))
    adjacency = {v: (1 << v if rng.random() < 0.3 else 0) for v in ids}
    for a, u in enumerate(ids):
        for v in ids[a + 1 :]:
            if u not in isolated and v not in isolated and rng.random() < density:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    assert graphs.maximum_matching_masks(adjacency) == ref_maximum_matching_masks(adjacency)


def test_mask_matching_rejects_a_bit_that_is_not_a_vertex():
    # Vertex 1's mask holds bit 2, and 2 is not a key.
    with pytest.raises(ParameterError, match="vertex 1 holds 2, which is not a vertex"):
        graphs.maximum_matching_masks({0: 0b10, 1: 0b101})
    # Bit 9 of vertex 5 is checked even though no search would read it:
    # the greedy start matches 3 and 5 and leaves no root.
    with pytest.raises(ParameterError, match="vertex 5 holds 9"):
        graphs.maximum_matching_masks({3: 1 << 5, 5: 1 << 3 | 1 << 9})
    assert graphs.maximum_matching_masks({3: 1 << 5 | 1 << 3, 5: 1 << 3}) == {(3, 5)}


def test_algorithms_run_without_networkx():
    # networkx is a test-only oracle: with every import of it failing, each
    # harness algorithm runs on one seeded instance of every generator class
    # and gives the bins it gives here. Importing cbp loads no process pool:
    # run_suite imports one only for --jobs above 1.
    code = textwrap.dedent(
        """
        import json, sys
        sys.modules["networkx"] = None
        import cbp
        pools = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
        assert not pools, pools
        from conftest import run_every_algorithm
        print(json.dumps(run_every_algorithm()))
        """
    )
    src = Path(cbp.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, tests))))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    expected = run_every_algorithm()
    assert json.loads(out) == expected
    assert all(expected[f"{klass}/matching_pack"] != "unfit" for klass in harness.GENERATOR_CLASSES)


def test_restrict_class_info_certificates_hold():
    for seed in range(30):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 10, 900 + seed)
        info = recognize(inst)
        kept = set(list(inst.items)[::2])
        sub = restrict_instance(inst, kept)
        sub_info = restrict_class_info(info, kept)
        fresh = recognize(sub)
        for flag in ("is_bipartite", "is_split", "is_cluster", "is_complete_multipartite", "is_chordal"):
            if getattr(sub_info, flag):
                assert getattr(fresh, flag)
        assert_certificates_hold(sub, sub_info)


# --- Recognition on first read -------------------------------------------------


FIELDS = tuple(f.name for f in dataclasses.fields(GraphClassInfo))


def eager_fields(instance) -> dict:
    """Every GraphClassInfo field, as its recognizer computes it."""
    certificates = {cert: recognizer(instance) for cert, recognizer in graphs.CLASS_TABLE.values()}
    return {"is_edgeless": graphs.has_class(instance, "edgeless"), **certificates}


def assert_recognized_on_read(instance) -> None:
    eager = eager_fields(instance)
    explicit = GraphClassInfo(**eager)
    # Each field read first, then the rest in both orders.
    for field in eager:
        info = recognize(instance)
        assert getattr(info, field) == eager[field]
        assert {f: getattr(info, f) for f in eager} == eager
        assert {f: getattr(info, f) for f in reversed(eager)} == eager
    # Compared or hashed before any field is read.
    assert recognize(instance) == explicit and explicit == recognize(instance)
    assert hash(recognize(instance)) == hash(explicit)
    assert recognize(instance).supported_classes() == explicit.supported_classes()


def test_recognize_fields_equal_their_recognizers():
    for klass in CLASSES:
        for n, seed in ((1, 0), (7, 1), (20, 2), (40, 3)):
            assert_recognized_on_read(seeded_instance(klass, n, 1300 + seed, (0.2, 0.5)[seed % 2]))
    for variant in ("BPB", "BPS"):
        spec = harness.GeneratorSpec(
            klass="b3dm-reduction", x_count=4, y_count=4, z_count=4, t_count=4, guess=2, variant=variant, seed=5
        )
        assert_recognized_on_read(harness.generate(spec))
    assert_recognized_on_read(ConflictInstance({}))


@settings(max_examples=150)
@given(
    n=st.integers(0, 12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
)
def test_recognize_fields_equal_their_recognizers_on_random_graphs(n, pairs):
    edges = [(u, v) for u, v in pairs if u != v and max(u, v) < n]
    assert_recognized_on_read(ConflictInstance(sizes(n), edges=edges))


@pytest.fixture
def recognizer_calls(monkeypatch):
    """Counts the runs of each class recognizer (and the edgeless test)."""
    calls = collections.Counter()
    for name, (cert, recognizer) in graphs.CLASS_TABLE.items():

        def counting(instance, name=name, recognizer=recognizer):
            calls[name] += 1
            return recognizer(instance)

        monkeypatch.setitem(graphs.CLASS_TABLE, name, (cert, counting))
    has_class = graphs.has_class

    def counting_has_class(instance, name):
        # Other names reach a counting recognizer through CLASS_TABLE.
        if name == "edgeless":
            calls[name] += 1
        return has_class(instance, name)

    monkeypatch.setattr(graphs, "has_class", counting_has_class)
    return calls


def test_split_approx_runs_only_the_split_recognizer(recognizer_calls):
    for k, n in enumerate((8, 20, 34)):
        inst = seeded_instance("split", n, 1400 + k)
        recognizer_calls.clear()  # the generator verifies the class it builds
        assert bpc.split_approx(inst, recognize(inst)).bin_count > 0
        assert recognizer_calls == {"split": 1}


def test_each_recognizer_runs_once_per_info(recognizer_calls):
    inst = seeded_instance("chordal", 20, 1500)
    recognizer_calls.clear()  # the generator verifies the class it builds
    info = recognize(inst)
    assert recognizer_calls == {}
    for _ in range(3):
        for field in FIELDS:
            getattr(info, field)
        assert info.is_chordal and not info.is_cluster
        info.supported_classes()
        minimum_coloring(inst, info)
        restrict_class_info(info, inst.items[::2])
        hash(info)
    assert recognizer_calls == dict.fromkeys(graphs.SUPPORTED_CLASS_NAMES, 1)
    other = recognize(inst)
    assert other == info and hash(other) == hash(info) and other == info
    assert recognizer_calls == dict.fromkeys(graphs.SUPPORTED_CLASS_NAMES, 2)
    # An info built with its fields runs no recognizer.
    explicit = GraphClassInfo(**{field: getattr(info, field) for field in FIELDS})
    assert explicit == info and explicit.supported_classes() == info.supported_classes()
    assert recognizer_calls == dict.fromkeys(graphs.SUPPORTED_CLASS_NAMES, 2)
