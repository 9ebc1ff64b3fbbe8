import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

import cbp
from cbp import (
    CapabilityError,
    ConflictInstance,
    max_weight_independent_set,
    maximum_matching_general,
    minimum_coloring,
    recognize,
    restrict_class_info,
)
from cbp.model import restrict_instance
from cbp.rng import SplitMix64

from conftest import (
    CLASSES,
    brute_chromatic,
    brute_matching_size,
    brute_mwis_value,
    brute_split_partition_exists,
    seeded_instance,
)


def sizes(n, value="0.1"):
    return {i: value for i in range(n)}


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
        max_weight_independent_set(inst, info, {i: Fraction(1) for i in inst.items})


def _as_nx(inst):
    g = nx.Graph()
    g.add_nodes_from(inst.items)
    g.add_edges_from(inst.edges)
    return g


def _random_instance(seed, n, p):
    rng = SplitMix64(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.unit() < p]
    return ConflictInstance(sizes(n), edges)


def test_recognizers_against_networkx_and_brute():
    for seed in range(60):
        n = 3 + seed % 7
        inst = _random_instance(seed, n, 0.15 + 0.1 * (seed % 8))
        info = recognize(inst)
        g = _as_nx(inst)
        assert info.is_bipartite == nx.is_bipartite(g)
        assert info.is_chordal == nx.is_chordal(g)
        assert info.is_split == brute_split_partition_exists(inst)


def test_certificates_verify():
    for seed in range(40):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 4 + seed % 10, 300 + seed)
        info = recognize(inst)
        assert klass in info.supported_classes() or (
            klass == "edgeless" and info.is_edgeless
        )
        if info.bipartition:
            x, y = info.bipartition
            assert inst.is_independent(x) and inst.is_independent(y)
            assert not (x & y) and (x | y) == set(inst.items)
        if info.split_partition:
            k, s = info.split_partition
            assert inst.is_independent(s)
            assert all(inst.has_edge(u, v) for u in k for v in k if u < v)
        if info.cluster_components:
            for comp in info.cluster_components:
                assert all(inst.has_edge(u, v) for u in comp for v in comp if u < v)
        if info.parts:
            for part in info.parts:
                assert inst.is_independent(part)
            for a in info.parts:
                for b in info.parts:
                    if a != b:
                        assert all(inst.has_edge(u, v) for u in a for v in b)
        if info.elimination_order is not None:
            order = info.elimination_order
            pos = {v: i for i, v in enumerate(order)}
            for v in order:
                later = [u for u in inst.neighbors(v) if pos[u] > pos[v]]
                assert all(inst.has_edge(a, b) for a in later for b in later if a < b)


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
    assert max_weight_independent_set(path, recognize(path), w) == {1}

    edgeless = ConflictInstance(sizes(3))
    w1 = {i: Fraction(1) for i in range(3)}
    assert max_weight_independent_set(edgeless, recognize(edgeless), w1) == {0, 1, 2}

    k3 = ConflictInstance(sizes(3), edges=[(0, 1), (1, 2), (0, 2)])
    w2 = {0: Fraction(2), 1: Fraction(5), 2: Fraction(1)}
    assert max_weight_independent_set(k3, recognize(k3), w2) == {1}


def test_mwis_matches_brute():
    for seed in range(70):
        klass = CLASSES[seed % len(CLASSES)]
        n = 4 + seed % 13
        inst = seeded_instance(klass, n, 500 + seed)
        rng = SplitMix64(seed)
        weights = {i: Fraction(1 + rng.below(8), 4) for i in inst.items}
        info = recognize(inst)
        chosen = max_weight_independent_set(inst, info, weights)
        assert inst.is_independent(chosen)
        value = sum((weights[v] for v in chosen), Fraction(0))
        assert value == brute_mwis_value(inst, weights)


def test_mwis_ignores_zero_weight():
    edgeless = ConflictInstance(sizes(3))
    w = {0: Fraction(0), 1: Fraction(2), 2: Fraction(0)}
    assert max_weight_independent_set(edgeless, recognize(edgeless), w) == {1}


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


def test_import_cbp_leaves_networkx_unimported():
    # networkx is imported on the first matching call, not by ``import cbp``.
    code = (
        "import sys\n"
        "import cbp\n"
        "print('networkx' in sys.modules)\n"
        "cbp.maximum_matching_general([0, 1], [(0, 1)])\n"
        "print('networkx' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cbp.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\nTrue\n"


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
        if sub_info.elimination_order is not None and fresh.is_chordal:
            pos = {v: i for i, v in enumerate(sub_info.elimination_order)}
            for v in sub_info.elimination_order:
                later = [u for u in sub.neighbors(v) if pos[u] > pos[v]]
                assert all(sub.has_edge(a, b) for a in later for b in later if a < b)
