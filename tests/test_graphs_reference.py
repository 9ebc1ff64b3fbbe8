"""Mask-based recognition and chordal coloring against list-based references.

The references are the recognizers and the chordal coloring as they were
before they moved onto neighbour bitmasks: components by search, a
co-adjacency dict for the multipartite parts, a heap-driven
maximum-cardinality search with a clique check on every vertex, and a
smallest-unused-colour loop. They are kept here, independent of the
library code, and every certificate, flag and colour class must be equal.
"""

import heapq

from hypothesis import given, settings, strategies as st

from cbp import ConflictInstance, graphs
from cbp.graphs import GraphClassInfo
from cbp.harness import GeneratorSpec, generate
from cbp.model import restrict_instance
from cbp.rng import SplitMix64

from conftest import CLASSES, seeded_instance


# --- list-based references --------------------------------------------------


def ids_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def ref_components(vertices, adj):
    todo = set(vertices)
    comps = []
    while todo:
        start = min(todo)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in ids_of(adj[v]):
                if u in todo and u not in comp:
                    comp.add(u)
                    frontier.append(u)
        todo -= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def ref_is_clique(instance, items):
    return all(instance.has_edge(u, v) for u in items for v in items if u < v)


def ref_bipartition(instance):
    color = {}
    for start in instance.items:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in ids_of(instance.adjacency[v]):
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    x = frozenset(i for i in instance.items if color[i] == 0)
    y = frozenset(i for i in instance.items if color[i] == 1)
    return x, y


def ref_split(instance):
    if not instance.items:
        return frozenset(), frozenset()
    order = sorted(instance.items, key=lambda v: (-instance.adjacency[v].bit_count(), v))
    degs = [instance.adjacency[v].bit_count() for v in order]
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    clique = frozenset(order[:m])
    stable = frozenset(order[m:])
    if ref_is_clique(instance, clique) and instance.is_independent(stable):
        return clique, stable
    return None


def ref_cluster(instance):
    comps = ref_components(instance.items, instance.adjacency)
    if all(ref_is_clique(instance, comp) for comp in comps):
        return tuple(comps)
    return None


def ref_complete_multipartite(instance):
    if not instance.items:
        return ()
    items_mask = sum(1 << i for i in instance.items)
    co_adj = {v: items_mask & ~(instance.adjacency[v] | (1 << v)) for v in instance.items}
    parts = ref_components(instance.items, co_adj)
    if not all(instance.is_independent(part) for part in parts):
        return None
    total = sum(len(p) for p in parts)
    if sum(len(p) * (total - len(p)) for p in parts) // 2 != len(instance.edges):
        return None
    return tuple(parts)


def ref_peo(instance):
    items = instance.items
    if not items:
        return ()
    weight = {v: 0 for v in items}
    visited = set()
    heap = [(0, v) for v in items]
    heapq.heapify(heap)
    visit_order = []
    while heap:
        negw, v = heapq.heappop(heap)
        if v in visited or -negw != weight[v]:
            continue
        visited.add(v)
        visit_order.append(v)
        for u in ids_of(instance.adjacency[v]):
            if u not in visited:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    peo = tuple(reversed(visit_order))
    pos = {v: k for k, v in enumerate(peo)}
    for v in peo:
        later = [u for u in ids_of(instance.adjacency[v]) if pos[u] > pos[v]]
        if not ref_is_clique(instance, later):
            return None
    return peo


def ref_recognize(instance):
    bip = ref_bipartition(instance)
    split = ref_split(instance)
    cluster = ref_cluster(instance)
    parts = ref_complete_multipartite(instance)
    peo = ref_peo(instance)
    return GraphClassInfo(
        is_edgeless=not instance.edges,
        bipartition=bip,
        split_partition=split,
        cluster_components=cluster,
        parts=parts,
        elimination_order=peo,
    )


def ref_chordal_coloring(instance, peo):
    color = {}
    for v in reversed(peo):
        used = {color[u] for u in ids_of(instance.adjacency[v]) if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    classes = [set() for _ in range(max(color.values()) + 1)]
    for v, c in color.items():
        classes[c].add(v)
    return tuple(frozenset(c) for c in classes)


# --- inputs -----------------------------------------------------------------


def without_one_edge(instance, rng, in_triangle=False):
    """``instance`` minus one seeded edge; with ``in_triangle``, an edge
    with a common neighbour (a chord) when there is one."""
    edges = sorted(instance.edges)
    if in_triangle:
        edges = [e for e in edges if instance.adjacency[e[0]] & instance.adjacency[e[1]]] or edges
    if not edges:
        return instance
    drop = edges[rng.below(len(edges))]
    return ConflictInstance(instance.sizes, instance.edges - {drop})


def random_instance(n, seed, density):
    rng = SplitMix64(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.unit() < density]
    return ConflictInstance([0] * n, edges)


FAMILIES = CLASSES + ("random", "cluster-minus-edge", "multipartite-minus-edge", "chordal-minus-chord")


def family_instance(family, n, seed, density):
    rng = SplitMix64(seed)
    if family == "random":
        return random_instance(n, seed, density)
    if family == "cluster-minus-edge":
        return without_one_edge(seeded_instance("cluster", n, seed, density), rng)
    if family == "multipartite-minus-edge":
        return without_one_edge(seeded_instance("complete-multipartite", n, seed, density), rng)
    if family == "chordal-minus-chord":
        return without_one_edge(seeded_instance("chordal", n, seed, density), rng, in_triangle=True)
    return seeded_instance(family, n, seed, density)


# --- the property -----------------------------------------------------------


@settings(max_examples=500)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    density=st.sampled_from([0.05, 0.2, 0.4, 0.6, 0.9]),
    restrict=st.booleans(),
)
def test_recognition_and_coloring_match_references(family, n, seed, density, restrict):
    instance = family_instance(family, n, seed, density)
    if restrict:
        # Sparse ids: the induced subgraph keeps the original item ids.
        rng = SplitMix64(seed ^ 0x5EED)
        instance = restrict_instance(instance, [i for i in instance.items if rng.below(3)])
    info = graphs.recognize(instance)
    assert info == ref_recognize(instance)
    if info.is_chordal and instance.items:
        chordal_only = GraphClassInfo(elimination_order=info.elimination_order)
        coloring = graphs.minimum_coloring(instance, chordal_only)
        assert coloring == ref_chordal_coloring(instance, info.elimination_order)


# --- the search at scale ----------------------------------------------------


def with_chordless_square(instance, rng):
    """``instance`` plus four new items on a chordless 4-cycle, bridged to
    one seeded item: the graph is no longer chordal, and the search meets
    the square only once it reaches the bridge."""
    n = len(instance.items)
    a, b, c, d = range(n, n + 4)
    square = [(a, b), (b, c), (c, d), (a, d), (rng.below(n), a)]
    return ConflictInstance([*instance.sizes.values(), 0, 0, 0, 0], [*instance.edges, *square])


def test_recognition_matches_reference_at_scale():
    for k, n in enumerate((80, 160, 320)):
        q = n // 6
        chordal = seeded_instance("chordal", n, k, 0.05)
        b3dm = GeneratorSpec(klass="b3dm-reduction", x_count=q, y_count=q, z_count=q, t_count=q,
                             guess=q // 2, variant=("BPB", "BPS")[k % 2], seed=k)
        near_miss = with_chordless_square(chordal, SplitMix64(n))
        cases = [
            chordal,
            seeded_instance("split", n, k, 0.15),
            seeded_instance("cluster", n, k, 0.8),
            generate(b3dm),
            near_miss,
        ]
        for instance in cases:
            assert graphs.recognize(instance) == ref_recognize(instance)
        assert not graphs.recognize(near_miss).is_chordal
