"""Graph-class recognition, class-specific coloring, weighted independent
sets (:func:`_mwis_core`, which ``bis._ptas`` runs on each light residual;
there is no public wrapper), and general maximum matching.

Every recognizer produces a verifiable certificate (bipartition, clique/
independent split, cluster components, multipartite parts, or a perfect
elimination ordering), checked before it is kept, and a class flag holds
exactly when its certificate exists. :func:`recognize` runs none of them:
each runs the first time its field of the returned info is read, and the
info keeps the result, so an algorithm that reads only its own certificate
pays for only that recognizer. All supported classes are hereditary,
so a certificate intersected with the items of an induced subgraph
certifies the subgraph. Readers intersect certificates with their own
items, so the certificates of an instance serve each of its subinstances
(:func:`restrict_class_info` does the intersection up front).

:data:`CLASS_TABLE` maps each class name to its certificate field of
:class:`GraphClassInfo` and the recognizer that computes it;
:func:`recognize`, :func:`has_class`, :data:`SUPPORTED_CLASS_NAMES` and
``harness.GENERATOR_CLASSES`` all read it. ``edgeless`` has no certificate:
it holds when no neighbour mask has a bit set.

Recognition works on the neighbour bitmasks of ``instance.adjacency``.
Cluster components and multipartite parts are items grouped by closed or
open neighbourhood. The elimination ordering comes from a maximum-
cardinality search with one bitmask bucket per weight, and is checked as it
is built with Tarjan & Yannakakis' one-parent test (SIAM J. Comput. 1984),
one mask test per vertex. A vertex's parent, its neighbour visited last,
is found by bisection over the prefix masks of the visit order (O(log n)
mask tests), and a visit moves its unvisited neighbours up one bucket,
scanning the buckets downward only until all of them have moved.

Maximum matching is Edmonds' unweighted blossom algorithm, computed in this
module: no third-party library is imported, neither at import time nor
lazily on the first call. Its core, :func:`maximum_matching_masks`, reads
a graph as neighbour bitmasks, the form ``bpc.matching_pack`` builds its
auxiliary graph in; :func:`maximum_matching_general` is a thin wrapper
that writes an edge list as such masks, so both give the same matching
of the same graph. The greedy start pairs vertices by mask tests, and the
blossom searches turn a mask into a neighbour list only for the vertices
they scan.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import CapabilityError, ParameterError
from .model import ConflictInstance, _ids_mask, _mask_to_ids

# Disjoint vertex pairs, each an edge of the queried graph.
Matching = frozenset[tuple[int, int]]


class _Recognized:
    """A :class:`GraphClassInfo` field that :func:`recognize` leaves unset.

    Read on the class, it is the field's default (False or None). The first
    read on an info from :func:`recognize` runs the field's recognizer on
    the info's instance and keeps the result in the info, where later reads
    find it without coming here. An info built with explicit fields holds
    them all, so it never comes here.
    """

    def __init__(self, default):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, info, owner=None):
        if info is None:
            return self.default
        instance = info.__dict__["_instance"]
        if self.name == "is_edgeless":
            value = has_class(instance, "edgeless")
        else:
            value = next(run for cert, run in CLASS_TABLE.values() if cert == self.name)(instance)
        info.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class GraphClassInfo:
    """Verified certificates, one per recognized class.

    ``is_edgeless`` and the five certificates are the only fields; each
    other class flag is a property that holds exactly when its certificate
    exists. A certificate may belong to a supergraph of the graph it is
    read with: readers intersect it with their own items. Fields given to
    the constructor are kept as given; an info from :func:`recognize`
    computes each field on its first read. Equality and hash compare the
    six field values either way.
    """

    is_edgeless: bool = _Recognized(False)
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]] = _Recognized(None)
    split_partition: Optional[tuple[frozenset[int], frozenset[int]]] = _Recognized(None)
    cluster_components: Optional[tuple[frozenset[int], ...]] = _Recognized(None)
    parts: Optional[tuple[frozenset[int], ...]] = _Recognized(None)
    elimination_order: Optional[tuple[int, ...]] = _Recognized(None)

    is_bipartite = property(lambda self: self.bipartition is not None)
    is_split = property(lambda self: self.split_partition is not None)
    is_cluster = property(lambda self: self.cluster_components is not None)
    is_complete_multipartite = property(lambda self: self.parts is not None)
    is_chordal = property(lambda self: self.elimination_order is not None)

    def supported_classes(self) -> tuple[str, ...]:
        """The names of the classes held, in SUPPORTED_CLASS_NAMES order."""
        certified = tuple(name for name, (cert, _) in CLASS_TABLE.items() if getattr(self, cert) is not None)
        return ("edgeless",) + certified if self.is_edgeless else certified


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
    # v's other visited neighbours must all be neighbours of p. The
    # prefixes of the visit order grow by inclusion, so p is the vertex
    # visited at the first prefix holding all of v's visited neighbours,
    # found by bisection.
    adj = instance.adjacency
    buckets = [0] * (len(instance.items) + 1)
    buckets[0] = _ids_mask(instance.items)
    prefix: list[int] = []  # prefix[k]: the first k + 1 visited
    visited = 0
    top = 0
    order = []
    for _ in instance.items:
        while not buckets[top]:
            top -= 1
        bit = buckets[top] & -buckets[top]
        buckets[top] ^= bit
        v = bit.bit_length() - 1
        prior = adj[v] & visited
        if prior:
            # prefix[k] & prior ascends with k and reaches prior first at p.
            p = order[bisect_left(prefix, prior, key=prior.__and__)]
            if prior & ~(adj[p] | 1 << p):
                return None
        visited |= bit
        prefix.append(visited)
        order.append(v)
        fresh = adj[v] & ~visited
        # Each unvisited neighbour moves up one bucket; top down, so none
        # moves twice, and only until all of them have moved.
        w = top
        while fresh:
            moved = buckets[w] & fresh
            if moved:
                buckets[w] ^= moved
                buckets[w + 1] |= moved
                fresh ^= moved
            w -= 1
        top += 1
    return tuple(reversed(order))


# Class name -> (its GraphClassInfo certificate field, the recognizer that
# returns the verified certificate or None).
CLASS_TABLE = {
    "bipartite": ("bipartition", _try_bipartition),
    "split": ("split_partition", _try_split),
    "cluster": ("cluster_components", _try_cluster),
    "complete-multipartite": ("parts", _try_complete_multipartite),
    "chordal": ("elimination_order", _try_peo),
}
SUPPORTED_CLASS_NAMES = ("edgeless", *CLASS_TABLE)


def has_class(instance: ConflictInstance, name: str) -> bool:
    """Whether ``instance`` belongs to the class ``name`` (one of
    SUPPORTED_CLASS_NAMES), running only that class's recognizer."""
    if name == "edgeless":
        return not any(instance.adjacency.values())
    return CLASS_TABLE[name][1](instance) is not None


def recognize(instance: ConflictInstance) -> GraphClassInfo:
    """The class certificates of ``instance``, each verified.

    No recognizer runs here: each runs the first time its field is read,
    once per info. A declared class_hint on the instance is never trusted;
    only verified certificates drive algorithm dispatch.
    """
    # Bypass __init__, which would fill every field: the unset fields are
    # the class's _Recognized descriptors, which read the instance.
    info = object.__new__(GraphClassInfo)
    info.__dict__["_instance"] = instance
    return info


def restrict_class_info(info: GraphClassInfo, kept: Iterable[int]) -> GraphClassInfo:
    """Certificates for the induced subgraph on ``kept``.

    All supported classes are hereditary: a restricted bipartition stays a
    bipartition, a restricted PEO stays a PEO, and so on, so no
    re-verification is needed. Each certificate keeps existing (or not),
    so every class flag is unchanged. It reads every field of ``info``, so
    an info from :func:`recognize` runs each recognizer it has not yet run.
    """
    k = frozenset(kept)

    def sides(cert):
        return None if cert is None else (cert[0] & k, cert[1] & k)

    def groups(cert):
        return None if cert is None else tuple(g & k for g in cert if g & k)

    peo = info.elimination_order
    return GraphClassInfo(
        is_edgeless=info.is_edgeless,
        bipartition=sides(info.bipartition),
        split_partition=sides(info.split_partition),
        cluster_components=groups(info.cluster_components),
        parts=groups(info.parts),
        elimination_order=None if peo is None else tuple(v for v in peo if v in k),
    )


def minimum_coloring(instance: ConflictInstance, info: GraphClassInfo) -> tuple[frozenset[int], ...]:
    """Minimum coloring for a supported class, as a tuple of color classes.

    Dispatch order: edgeless (one class), bipartite (the two sides),
    chordal (greedy on the reverse perfect elimination ordering, which uses
    exactly clique-number many colors), complete multipartite (one class
    per part). ``info`` may certify a supergraph: each certificate is
    intersected with ``instance.items``, which gives the same classes as
    :func:`restrict_class_info` to those items.
    """
    if not instance.items:
        return ()
    if info.is_edgeless:
        return (frozenset(instance.items),)
    items = frozenset(instance.items)
    if info.bipartition is not None:
        return tuple(side & items for side in info.bipartition if side & items)
    if info.elimination_order is not None:
        # One mask per colour class; each vertex takes the first class it
        # has no neighbour in.
        classes: list[int] = []
        for v in reversed(info.elimination_order):
            if v not in items:
                continue
            for k, members in enumerate(classes):
                if not instance.adjacency[v] & members:
                    classes[k] = members | 1 << v
                    break
            else:
                classes.append(1 << v)
        return tuple(frozenset(_mask_to_ids(members)) for members in classes)
    if info.parts is not None:
        return tuple(part & items for part in info.parts if part & items)
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
    sides: tuple[frozenset[int], frozenset[int]],
    weights: Mapping[int, Fraction],
) -> frozenset[int]:
    # Min-weight vertex cover as a minimum cut (source->x with capacity w,
    # y->sink with capacity w, conflict edges x->y unbounded); the
    # independent set is the complement of the cover. Flow is augmented
    # along breadth-first paths until none is left; the last search then
    # reaches the source side of a minimum cut. Every maximum flow leaves
    # the same set reachable, the inclusion-minimal minimum cut (Picard &
    # Queyranne 1980), so the set does not depend on the paths taken.
    xs = [v for v in vertices if v in sides[0] and weights[v] > 0]
    ys = [v for v in vertices if v in sides[1] and weights[v] > 0]
    y_mask = _ids_mask(ys)
    nbrs = {x: list(_mask_to_ids(adj[x] & y_mask)) for x in xs}
    source = {x: weights[x] for x in xs}  # residual capacity source->x
    sink = {y: weights[y] for y in ys}  # residual capacity y->sink
    flow: dict[int, dict[int, Fraction]] = {y: {} for y in ys}  # flow[y][x] on x->y
    while True:
        # prev[x] is None (reached from the source) or a y; prev[y] is an x.
        prev: dict[int, Optional[int]] = {x: None for x in xs if source[x] > 0}
        queue = list(prev)
        end = None
        for x in queue:
            for y in nbrs[x]:
                if y in prev:
                    continue
                prev[y] = x
                if sink[y] > 0:
                    end = y
                    break
                for x2, f in flow[y].items():
                    if f > 0 and x2 not in prev:
                        prev[x2] = y
                        queue.append(x2)
            if end is not None:
                break
        if end is None:
            break
        path = []  # forward edges (x, y), from the sink end back
        y = end
        while y is not None:
            path.append((prev[y], y))
            y = prev[prev[y]]
        first = path[-1][0]
        push = min([source[first], sink[end]] + [flow[prev[x]][x] for x, _ in path[:-1]])
        for x, y in path:
            flow[y][x] = flow[y].get(x, 0) + push
            if prev[x] is not None:
                flow[prev[x]][x] -= push
        source[first] -= push
        sink[end] -= push
    return frozenset(x for x in xs if x in prev) | frozenset(y for y in ys if y not in prev)


def _mwis_core(
    vertices: list[int],
    adj: Mapping[int, int],
    sub_mask: int,
    info: GraphClassInfo,
    weights: Mapping[int, Fraction],
) -> frozenset[int]:
    """A maximum-weight independent set of ``vertices`` (the bits of
    ``sub_mask``) by the algorithm of the first class ``info`` certifies.
    Ties go by its fixed scan order; zero weights are never included."""
    if not vertices:
        return frozenset()
    vset = frozenset(vertices)
    no_edges = all((adj[v] & sub_mask) == 0 for v in vertices)
    if no_edges:
        return frozenset(v for v in vertices if weights[v] > 0)
    if info.elimination_order is not None:
        peo = tuple(v for v in info.elimination_order if v in vset)
        return _mwis_chordal(vertices, adj, sub_mask, peo, weights)
    if info.bipartition is not None:
        return _mwis_bipartite(vertices, adj, info.bipartition, weights)
    if info.parts is not None:
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
    """Maximum-cardinality matching on an arbitrary graph given by edges.

    Writes the graph as neighbour masks and returns
    :func:`maximum_matching_masks` of them, so the result depends on the
    graph only, not on the input order. Returns disjoint edges as sorted
    pairs; self-loops are ignored and edge endpoints missing from
    ``vertices`` are added.
    """
    adjacency = dict.fromkeys(vertices, 0)
    for u, v in edges:
        adjacency[u] = adjacency.get(u, 0) | 1 << v
        adjacency[v] = adjacency.get(v, 0) | 1 << u
    return maximum_matching_masks(adjacency)


def maximum_matching_masks(adjacency: Mapping[int, int]) -> Matching:
    """Maximum-cardinality matching of the graph whose vertices are the
    keys of ``adjacency`` and whose neighbour masks are its values.

    Each mask holds the bits of the vertex's neighbours, all of them keys
    (a bit that is not a key raises ``ParameterError`` naming the vertex);
    the relation must be symmetric, and a vertex's own bit is ignored.
    Edmonds' blossom algorithm ("Paths, trees, and flowers", 1965),
    computed here with no outside library: a greedy matching (each vertex,
    in ascending order, takes its first free higher neighbour, which is
    the greedy pass over the edges in sorted order), then one breadth-first
    search per free vertex for an augmenting path, contracting every odd
    cycle (blossom) it closes into the cycle's base. A search that finds no
    augmenting path leaves a Hungarian tree, which no later augmenting path
    can enter, so its vertices are dropped from the remaining searches and
    one search per vertex suffices: O(V^3) overall. The greedy start reads
    the masks themselves, and a search decodes a vertex's mask into its
    list of neighbours only when it first scans the vertex. Returns
    disjoint edges as sorted pairs.
    """
    ids = sorted(adjacency)
    index = {v: i for i, v in enumerate(ids)}
    keys = _ids_mask(ids)
    outside = ~keys
    mate = [-1] * len(ids)
    free = keys
    for a, v in enumerate(ids):
        mask = adjacency[v]
        if mask & outside:
            stray = _mask_to_ids(mask & outside)[0]
            raise ParameterError(f"neighbour mask of vertex {v} holds {stray}, which is not a vertex")
        if (free >> v) & 1:
            # -(2 << v) masks the ids above v.
            higher = mask & free & -(2 << v)
            if higher:
                low = higher & -higher
                b = index[low.bit_length() - 1]
                mate[a], mate[b] = b, a
                free ^= low | 1 << v
    nbrs = _Rows(ids, index, adjacency)
    dead = [False] * len(ids)
    # Only a vertex the greedy start left free can be a root.
    for v in _mask_to_ids(free):
        root = index[v]
        if mate[root] < 0 and adjacency[v] & ~(1 << v):
            _augment(root, nbrs, mate, dead)
    return frozenset((ids[a], ids[b]) for a, b in enumerate(mate) if a < b)


class _Rows(dict):
    """Ascending neighbour indices per vertex index, for :func:`_augment`:
    a row is decoded from its neighbour mask on its first read."""

    def __init__(self, ids, index, adjacency):
        self.ids, self.index, self.adjacency = ids, index, adjacency

    def __missing__(self, a: int) -> list[int]:
        v = self.ids[a]
        index = self.index
        row = self[a] = [index[w] for w in _mask_to_ids(self.adjacency[v] & ~(1 << v))]
        return row


def _augment(root: int, nbrs: list[list[int]], mate: list[int], dead: list[bool]) -> None:
    # One alternating BFS tree from the free ``root``. ``parent`` links each
    # odd vertex to the even vertex that reached it (and, after a blossom is
    # contracted, its even members back around the cycle); ``base`` maps a
    # vertex to the base of its outermost blossom. Flips the first augmenting
    # path found into ``mate``; if there is none, marks the tree ``dead``.
    # ``nbrs[v]`` lists v's neighbours ascending (a ``_Rows`` may stand in).
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
