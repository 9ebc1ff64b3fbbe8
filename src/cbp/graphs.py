"""Graph-class recognition, class-specific coloring, weighted independent
sets, and general maximum matching.

Every recognizer produces a verifiable certificate (bipartition, clique/
independent split, cluster components, multipartite parts, or a perfect
elimination ordering) and the certificate is re-checked before the flag is
set. All supported classes are hereditary, so certificates restrict to
induced subgraphs without re-verification (:func:`restrict_class_info`).

Recognition works on the neighbour bitmasks of ``instance.adjacency``.
Cluster components and multipartite parts are items grouped by closed or
open neighbourhood. The elimination ordering comes from a maximum-
cardinality search with one bitmask bucket per weight, and is checked as it
is built with Tarjan & Yannakakis' one-parent test (SIAM J. Comput. 1984),
one mask test per vertex.

Maximum matching is Edmonds' unweighted blossom algorithm, computed in this
module on integer-indexed neighbour lists: no third-party library is
imported, neither at import time nor lazily on the first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import CapabilityError
from .model import ConflictInstance, _mask_to_ids

Certificate = Optional[tuple]

# Disjoint vertex pairs, each an edge of the queried graph.
Matching = frozenset[tuple[int, int]]


@dataclass(frozen=True)
class GraphClassInfo:
    """Recognition flags plus the certificates backing them."""

    is_edgeless: bool = False
    is_bipartite: bool = False
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]] = None
    is_split: bool = False
    split_partition: Optional[tuple[frozenset[int], frozenset[int]]] = None
    is_cluster: bool = False
    cluster_components: Optional[tuple[frozenset[int], ...]] = None
    is_complete_multipartite: bool = False
    parts: Optional[tuple[frozenset[int], ...]] = None
    is_chordal: bool = False
    elimination_order: Optional[tuple[int, ...]] = None

    def supported_classes(self) -> tuple[str, ...]:
        names = []
        if self.is_edgeless:
            names.append("edgeless")
        if self.is_bipartite:
            names.append("bipartite")
        if self.is_split:
            names.append("split")
        if self.is_cluster:
            names.append("cluster")
        if self.is_complete_multipartite:
            names.append("complete-multipartite")
        if self.is_chordal:
            names.append("chordal")
        return tuple(names)


SUPPORTED_CLASS_NAMES = (
    "edgeless",
    "bipartite",
    "split",
    "cluster",
    "complete-multipartite",
    "chordal",
)


def _ids_mask(ids: Iterable[int]) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def _try_bipartition(instance: ConflictInstance) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    # Breadth-first layers on masks, from the smallest item of each
    # component. Layers alternate sides; an edge inside a layer closes an
    # odd cycle.
    adj = instance.adjacency
    sides = [0, 0]
    todo = _ids_mask(instance.items)
    while todo:
        layer = todo & -todo
        side = 0
        while layer:
            todo ^= layer
            sides[side] |= layer
            reach = 0
            for v in _mask_to_ids(layer):
                reach |= adj[v]
            if reach & layer:
                return None
            layer = reach & todo
            side ^= 1
    return frozenset(_mask_to_ids(sides[0])), frozenset(_mask_to_ids(sides[1]))


def _try_split(instance: ConflictInstance) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    # Degree-sequence characterization: with d_1 >= ... >= d_n and
    # m = max{i : d_i >= i-1}, the graph is split iff
    # sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i, and the m highest-degree
    # vertices then form a clique. The certificate is verified regardless.
    adj = instance.adjacency
    order = sorted(instance.items, key=lambda v: (-adj[v].bit_count(), v))
    degs = [adj[v].bit_count() for v in order]
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    clique, stable = order[:m], order[m:]
    clique_mask = _ids_mask(clique)
    if any((adj[v] | 1 << v) & clique_mask != clique_mask for v in clique):
        return None
    if not instance.is_independent(stable):
        return None
    return frozenset(clique), frozenset(stable)


def _try_cluster(instance: ConflictInstance) -> Optional[tuple[frozenset[int], ...]]:
    # Group the items by closed neighbourhood. The graph is a disjoint union
    # of cliques iff each group is its own closed neighbourhood; the groups
    # are then the components. Items are scanned in increasing order, so
    # the groups come out sorted by their smallest member.
    groups: dict[int, int] = {}
    for v in instance.items:
        closed = instance.adjacency[v] | 1 << v
        groups[closed] = groups.get(closed, 0) | 1 << v
    if any(closed != members for closed, members in groups.items()):
        return None
    return tuple(frozenset(_mask_to_ids(members)) for members in groups.values())


def _try_complete_multipartite(instance: ConflictInstance) -> Optional[tuple[frozenset[int], ...]]:
    # Group the items by open neighbourhood. The graph is complete
    # multipartite iff each group's neighbourhood is every other item; the
    # groups are then the parts, sorted by their smallest member.
    groups: dict[int, int] = {}
    for v in instance.items:
        nbhd = instance.adjacency[v]
        groups[nbhd] = groups.get(nbhd, 0) | 1 << v
    items_mask = _ids_mask(instance.items)
    if any(nbhd != items_mask ^ members for nbhd, members in groups.items()):
        return None
    return tuple(frozenset(_mask_to_ids(members)) for members in groups.values())


def _try_peo(instance: ConflictInstance) -> Optional[tuple[int, ...]]:
    # Maximum-cardinality search with one bitmask bucket per weight (count
    # of visited neighbours): visit the smallest id in the heaviest bucket.
    # The reverse visit order is a perfect elimination ordering iff the
    # graph is chordal. Tarjan & Yannakakis' one-parent test checks it as
    # each vertex v is visited: with p the neighbour of v visited last,
    # v's other visited neighbours must all be neighbours of p.
    adj = instance.adjacency
    buckets = [0] * (len(instance.items) + 1)
    buckets[0] = _ids_mask(instance.items)
    parent: dict[int, int] = {}
    visited = 0
    top = 0
    order = []
    for _ in instance.items:
        while not buckets[top]:
            top -= 1
        bit = buckets[top] & -buckets[top]
        buckets[top] ^= bit
        v = bit.bit_length() - 1
        if v in parent:
            p = parent[v]
            if adj[v] & visited & ~(adj[p] | 1 << p):
                return None
        visited |= bit
        order.append(v)
        fresh = adj[v] & ~visited
        if fresh:
            # Each unvisited neighbour moves up one bucket; top down, so
            # none moves twice.
            for w in range(top, -1, -1):
                moved = buckets[w] & fresh
                if moved:
                    buckets[w] ^= moved
                    buckets[w + 1] |= moved
            parent.update(dict.fromkeys(_mask_to_ids(fresh), v))
        top += 1
    return tuple(reversed(order))


def recognize(instance: ConflictInstance) -> GraphClassInfo:
    """Compute all class flags with verified certificates.

    A declared class_hint on the instance is never trusted; only verified
    certificates drive algorithm dispatch.
    """
    bip = _try_bipartition(instance)
    split = _try_split(instance)
    cluster = _try_cluster(instance)
    parts = _try_complete_multipartite(instance)
    peo = _try_peo(instance)
    return GraphClassInfo(
        is_edgeless=not instance.edges,
        is_bipartite=bip is not None,
        bipartition=bip,
        is_split=split is not None,
        split_partition=split,
        is_cluster=cluster is not None,
        cluster_components=cluster,
        is_complete_multipartite=parts is not None,
        parts=parts,
        is_chordal=peo is not None,
        elimination_order=peo,
    )


def restrict_class_info(info: GraphClassInfo, kept: Iterable[int]) -> GraphClassInfo:
    """Certificates for the induced subgraph on ``kept``.

    All supported classes are hereditary: a restricted bipartition stays a
    bipartition, a restricted PEO stays a PEO, and so on, so no
    re-verification is needed.
    """
    k = frozenset(kept)
    bip = None
    if info.bipartition is not None:
        bip = (info.bipartition[0] & k, info.bipartition[1] & k)
    split = None
    if info.split_partition is not None:
        split = (info.split_partition[0] & k, info.split_partition[1] & k)
    cluster = None
    if info.cluster_components is not None:
        cluster = tuple(c & k for c in info.cluster_components if c & k)
    parts = None
    if info.parts is not None:
        parts = tuple(p & k for p in info.parts if p & k)
    peo = None
    if info.elimination_order is not None:
        peo = tuple(v for v in info.elimination_order if v in k)
    return GraphClassInfo(
        is_edgeless=info.is_edgeless,
        is_bipartite=info.is_bipartite,
        bipartition=bip,
        is_split=info.is_split,
        split_partition=split,
        is_cluster=info.is_cluster,
        cluster_components=cluster,
        is_complete_multipartite=info.is_complete_multipartite,
        parts=parts,
        is_chordal=info.is_chordal,
        elimination_order=peo,
    )


def minimum_coloring(instance: ConflictInstance, info: GraphClassInfo) -> tuple[frozenset[int], ...]:
    """Minimum coloring for a supported class, as a tuple of color classes.

    Dispatch order: edgeless (one class), bipartite (the two sides),
    chordal (greedy on the reverse perfect elimination ordering, which uses
    exactly clique-number many colors), complete multipartite (one class
    per part).
    """
    if not instance.items:
        return ()
    if info.is_edgeless:
        return (frozenset(instance.items),)
    if info.is_bipartite and info.bipartition is not None:
        x, y = info.bipartition
        return tuple(side for side in (x, y) if side)
    if info.is_chordal and info.elimination_order is not None:
        # One mask per colour class; each vertex takes the first class it
        # has no neighbour in.
        classes: list[int] = []
        for v in reversed(info.elimination_order):
            for k, members in enumerate(classes):
                if not instance.adjacency[v] & members:
                    classes[k] = members | 1 << v
                    break
            else:
                classes.append(1 << v)
        return tuple(frozenset(_mask_to_ids(members)) for members in classes)
    if info.is_complete_multipartite and info.parts is not None:
        return info.parts
    raise CapabilityError(
        "minimum coloring needs a certificate for one of: "
        + ", ".join(SUPPORTED_CLASS_NAMES)
        + f"; recognized: {info.supported_classes() or ('none',)}"
    )


def _mwis_chordal(
    vertices: list[int],
    adj: Mapping[int, int],
    sub_mask: int,
    peo: tuple[int, ...],
    weights: Mapping[int, Fraction],
) -> frozenset[int]:
    # Residual-weight sweep along the elimination ordering, then a reverse
    # greedy pick of the marked vertices.
    residual = {v: weights[v] for v in vertices}
    pos = {v: k for k, v in enumerate(peo)}
    marked = []
    for v in peo:
        rv = residual[v]
        if rv <= 0:
            continue
        marked.append(v)
        for u in _mask_to_ids(adj[v] & sub_mask):
            if pos[u] > pos[v]:
                residual[u] -= rv
    chosen_mask = 0
    chosen = []
    for v in reversed(marked):
        if not (adj[v] & chosen_mask):
            chosen.append(v)
            chosen_mask |= 1 << v
    return frozenset(chosen)


def _mwis_bipartite(
    vertices: list[int],
    adj: Mapping[int, int],
    sub_mask: int,
    sides: tuple[frozenset[int], frozenset[int]],
    weights: Mapping[int, Fraction],
) -> frozenset[int]:
    # Min-weight vertex cover via max flow (source->X with capacity w,
    # Y->sink with capacity w, conflict edges unbounded); the independent
    # set is the complement of the cover.
    xs = sorted(v for v in vertices if v in sides[0] and weights[v] > 0)
    ys = sorted(v for v in vertices if v in sides[1] and weights[v] > 0)
    node = {"s": 0, "t": 1}
    for v in xs + ys:
        node[v] = len(node)
    graph: list[dict[int, Fraction]] = [dict() for _ in range(len(node))]
    inf = sum(weights[v] for v in xs + ys) + 1

    def add_edge(a: int, b: int, cap: Fraction) -> None:
        graph[a][b] = graph[a].get(b, 0) + cap
        graph[b].setdefault(a, 0)

    for v in xs:
        add_edge(0, node[v], weights[v])
        for u in _mask_to_ids(adj[v] & sub_mask):
            if u in node and u in sides[1]:
                add_edge(node[v], node[u], inf)
    for v in ys:
        add_edge(node[v], 1, weights[v])

    # Dinic's algorithm with exact capacities (ints or Fractions).
    def bfs_levels() -> Optional[list[int]]:
        level = [-1] * len(graph)
        level[0] = 0
        queue = [0]
        for v in queue:
            for u, cap in graph[v].items():
                if cap > 0 and level[u] < 0:
                    level[u] = level[v] + 1
                    queue.append(u)
        return level if level[1] >= 0 else None

    def dfs_push(v: int, limit: Fraction, level: list[int], it: list[list[int]]) -> Fraction:
        if v == 1:
            return limit
        while it[v]:
            u = it[v][-1]
            cap = graph[v].get(u, 0)
            if cap > 0 and level[u] == level[v] + 1:
                pushed = dfs_push(u, min(limit, cap), level, it)
                if pushed > 0:
                    graph[v][u] -= pushed
                    graph[u][v] = graph[u].get(v, 0) + pushed
                    return pushed
            it[v].pop()
        return 0

    while True:
        level = bfs_levels()
        if level is None:
            break
        iters = [sorted(graph[v], reverse=True) for v in range(len(graph))]
        while True:
            pushed = dfs_push(0, inf, level, iters)
            if pushed <= 0:
                break

    reach = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u, cap in graph[v].items():
            if cap > 0 and u not in reach:
                reach.add(u)
                stack.append(u)
    keep = [v for v in xs if node[v] in reach] + [v for v in ys if node[v] not in reach]
    return frozenset(keep)


def max_weight_independent_set(
    instance: ConflictInstance,
    info: GraphClassInfo,
    weights: Mapping[int, Fraction],
) -> frozenset[int]:
    """Maximum-weight independent set for a supported class.

    Ties between optima are broken by the fixed scan order of the class
    algorithm (deterministic, documented, not globally canonical).
    Zero-weight vertices are never included.
    """
    sub_mask = _ids_mask(instance.items)
    return _mwis_core(list(instance.items), instance.adjacency, sub_mask, info, weights)


def _mwis_core(
    vertices: list[int],
    adj: Mapping[int, int],
    sub_mask: int,
    info: GraphClassInfo,
    weights: Mapping[int, Fraction],
) -> frozenset[int]:
    if not vertices:
        return frozenset()
    vset = frozenset(vertices)
    no_edges = all((adj[v] & sub_mask) == 0 for v in vertices)
    if no_edges:
        return frozenset(v for v in vertices if weights[v] > 0)
    if info.is_chordal and info.elimination_order is not None:
        peo = tuple(v for v in info.elimination_order if v in vset)
        return _mwis_chordal(vertices, adj, sub_mask, peo, weights)
    if info.is_bipartite and info.bipartition is not None:
        return _mwis_bipartite(vertices, adj, sub_mask, info.bipartition, weights)
    if info.is_complete_multipartite and info.parts is not None:
        best: frozenset[int] = frozenset()
        best_w = 0
        for part in info.parts:
            cand = frozenset(v for v in part & vset if weights[v] > 0)
            w = sum(weights[v] for v in cand)
            if w > best_w:
                best, best_w = cand, w
        return best
    raise CapabilityError(
        "max-weight independent set needs a certificate for one of: "
        + ", ".join(SUPPORTED_CLASS_NAMES)
    )


def maximum_matching_general(
    vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> Matching:
    """Maximum-cardinality matching on an arbitrary graph.

    Edmonds' blossom algorithm ("Paths, trees, and flowers", 1965), computed
    here with no outside library: a greedy matching, then one breadth-first
    search per free vertex for an augmenting path, contracting every odd
    cycle (blossom) it closes into the cycle's base. A search that finds no
    augmenting path leaves a Hungarian tree, which no later augmenting path
    can enter, so its vertices are dropped from the remaining searches and
    one search per vertex suffices: O(V^3) overall. Vertices and edges are
    sorted first, so the result depends on the graph only, not on the input
    order. Returns disjoint edges as sorted pairs; self-loops are ignored
    and edge endpoints missing from ``vertices`` are added.
    """
    pairs = sorted({(u, v) if u < v else (v, u) for u, v in edges if u != v})
    ids = sorted(set(vertices).union(*zip(*pairs)))
    index = {v: i for i, v in enumerate(ids)}
    nbrs: list[list[int]] = [[] for _ in ids]
    mate = [-1] * len(ids)
    for u, v in pairs:
        a, b = index[u], index[v]
        nbrs[a].append(b)
        nbrs[b].append(a)
        if mate[a] < 0 and mate[b] < 0:
            mate[a], mate[b] = b, a
    dead = [False] * len(ids)
    for root in range(len(ids)):
        if mate[root] < 0 and nbrs[root]:
            _augment(root, nbrs, mate, dead)
    return frozenset((ids[a], ids[b]) for a, b in enumerate(mate) if a < b)


def _augment(root: int, nbrs: list[list[int]], mate: list[int], dead: list[bool]) -> None:
    # One alternating BFS tree from the free ``root``. ``parent`` links each
    # odd vertex to the even vertex that reached it (and, after a blossom is
    # contracted, its even members back around the cycle); ``base`` maps a
    # vertex to the base of its outermost blossom. Flips the first augmenting
    # path found into ``mate``; if there is none, marks the tree ``dead``.
    n = len(mate)
    parent = [-1] * n
    base = list(range(n))
    even = [False] * n
    even[root] = True
    queue = [root]

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while not seen[base[b]]:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:
        for w in nbrs[v]:
            if dead[w] or base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                b = lca(v, w)
                blossom = [False] * n
                mark(v, b, w, blossom)
                mark(w, b, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = b
                        if not even[i]:
                            even[i] = True
                            queue.append(i)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    while w >= 0:
                        u = parent[w]
                        w_next = mate[u]
                        mate[u], mate[w] = w, u
                        w = w_next
                    return
                even[mate[w]] = True
                queue.append(mate[w])
    for v in range(n):
        if even[v] or parent[v] >= 0:
            dead[v] = True
