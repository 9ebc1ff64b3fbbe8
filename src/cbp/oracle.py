"""Exact branch and bound for small instances: the ground truth.

One dependency-free, trivially auditable search, :class:`_BnB`. The library
runs it through :func:`_exact_bins` on its instances' unit tables, and
:func:`opt_bpc_exact` on sizes converted afresh: the optimum that the tests
and the benchmark's ratios compare against.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .errors import CapabilityError
from .model import ConflictInstance, Packing, _mask_to_ids, bin_lower_bound, size_units

DEFAULT_EXACT_LIMIT = 18


class _BnB:
    """Branch and bound over item-to-bin assignments with symmetry breaking.

    Items are processed in non-increasing size order; item k may only open
    bin number <= current_bins. Interchangeable items (equal size, equal
    adjacency outside the pair) are forced into non-decreasing bin indices.
    Bins with identical residual capacity and identical conflict footprint
    on the remaining items are tried once.

    Sizes are integer ``units`` over ``den`` (a bin holds ``den``), and
    ``adjacency`` holds neighbour bitmasks of which only the bits of
    ``items`` are read.
    """

    def __init__(
        self,
        items: Iterable[int],
        units: Mapping[int, int],
        den: int,
        adjacency: Mapping[int, int],
        max_bins: Optional[int],
        node_budget: Optional[int],
    ):
        order = sorted(items, key=lambda i: (-units[i], i))
        self.order = order
        self.n = len(order)
        self.pos = {v: k for k, v in enumerate(order)}
        sizes = [units[i] for i in order]
        self.sizes = sizes
        self.cap = den
        # Bins that the total size alone needs.
        self.size_lb = -(-sum(sizes) // den)
        # Adjacency in order-index space.
        inside = 0
        for v in order:
            inside |= 1 << v
        self.adj = [0] * self.n
        for k, v in enumerate(order):
            mask = 0
            for u in _mask_to_ids(adjacency[v] & inside):
                mask |= 1 << self.pos[u]
            self.adj[k] = mask
        # Interchangeability groups: previous equal item in scan order.
        self.prev_equal = [-1] * self.n
        for k in range(1, self.n):
            j = k - 1
            if sizes[j] == sizes[k]:
                if (self.adj[j] & ~(1 << k)) == (self.adj[k] & ~(1 << j)):
                    self.prev_equal[k] = j
        self.max_bins = max_bins
        self.node_budget = node_budget
        self.nodes = 0
        self.best_bins: Optional[list[int]] = None
        self.best_count = 0
        self.budget_exhausted = False

    def greedy(self) -> list[int]:
        """Conflict-aware first fit in the sorted order (initial incumbent)."""
        loads: list[int] = []
        blocks: list[int] = []
        assign = [0] * self.n
        for k in range(self.n):
            placed = False
            for b in range(len(loads)):
                if loads[b] + self.sizes[k] <= self.cap and not (blocks[b] >> k) & 1:
                    loads[b] += self.sizes[k]
                    blocks[b] |= self.adj[k]
                    assign[k] = b
                    placed = True
                    break
            if not placed:
                loads.append(self.sizes[k])
                blocks.append(self.adj[k])
                assign[k] = len(loads) - 1
        return assign

    def _greedy_clique(self) -> int:
        by_degree = sorted(range(self.n), key=lambda k: (-self.adj[k].bit_count(), k))
        clique_mask = 0
        size = 0
        for k in by_degree:
            if clique_mask & ~self.adj[k]:
                continue
            clique_mask |= 1 << k
            size += 1
        return size

    def solve(self) -> Optional[tuple[list[int], int]]:
        if self.n == 0:
            return [], 0
        incumbent = self.greedy()
        count = max(incumbent) + 1
        if self.max_bins is not None and count > self.max_bins:
            incumbent, count = None, self.max_bins + 1
        self.best_bins, self.best_count = incumbent, count
        # The L1 bound or a greedy clique, which holds an item as n > 0.
        root_lb = max(bin_lower_bound(self.sizes, self.cap), self._greedy_clique())
        if incumbent is not None and count == root_lb:
            return incumbent, count
        loads = [0] * (self.n + 1)
        blocks = [0] * (self.n + 1)
        assign = [0] * self.n
        self._search(0, 0, loads, blocks, assign, root_lb)
        if self.best_bins is None:
            return None
        return list(self.best_bins), self.best_count

    def _search(self, k: int, used: int, loads, blocks, assign, root_lb: int) -> None:
        if self.budget_exhausted or (self.best_count == root_lb and self.best_bins is not None):
            return
        if self.node_budget is not None:
            self.nodes += 1
            if self.nodes > self.node_budget:
                self.budget_exhausted = True
                return
        if k == self.n:
            self.best_bins = assign[:]
            self.best_count = used
            return
        # Capacity-based completion bound. The placed items fill the used
        # bins' loads, so the rest overflows them exactly when the total
        # exceeds ``used * cap``, and then needs ``size_lb`` bins in all.
        if max(used, self.size_lb) >= self.best_count:
            return
        size_k = self.sizes[k]
        adj_k = self.adj[k]
        start = 0
        if self.prev_equal[k] >= 0:
            start = assign[self.prev_equal[k]]
        seen: set = set()
        for b in range(start, used):
            if loads[b] + size_k > self.cap or (blocks[b] >> k) & 1:
                continue
            key = (loads[b], blocks[b] >> k)
            if key in seen:
                continue
            seen.add(key)
            old_block = blocks[b]
            loads[b] += size_k
            blocks[b] |= adj_k
            assign[k] = b
            self._search(k + 1, used, loads, blocks, assign, root_lb)
            loads[b] -= size_k
            blocks[b] = old_block
            if self.budget_exhausted:
                return
        if used + 1 < self.best_count and (self.max_bins is None or used < self.max_bins):
            loads[used] = size_k
            blocks[used] = adj_k
            assign[k] = used
            self._search(k + 1, used + 1, loads, blocks, assign, root_lb)
            loads[used] = 0
            blocks[used] = 0


def _exact_bins(
    items: Iterable[int],
    units: Mapping[int, int],
    den: int,
    adjacency: Mapping[int, int],
    max_bins: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> tuple[frozenset[int], ...]:
    """Optimal bins of ``items`` by branch and bound, on integer units.

    The library's one entry to the search, on its instances' unit tables;
    :func:`opt_bpc_exact` is the ground truth over it. With ``max_bins``
    set, searches only packings within that many bins and raises
    CapabilityError if none exists. Raises it too whenever the node budget
    runs out, as the best packing found is then unproven.
    """
    solver = _BnB(items, units, den, adjacency, max_bins, node_budget)
    result = solver.solve()
    # An incumbent found before the budget ran out is not proven optimal.
    if solver.budget_exhausted:
        raise CapabilityError("exact solver node budget exhausted")
    if result is None:
        raise CapabilityError(f"no packing within {max_bins} bins")
    assign, count = result
    bins: list[set[int]] = [set() for _ in range(count)]
    for k, b in enumerate(assign):
        bins[b].add(solver.order[k])
    return tuple(frozenset(b) for b in bins)


def opt_bpc_exact(instance: ConflictInstance, limit_n: int = DEFAULT_EXACT_LIMIT) -> tuple[Packing, int]:
    """Provably optimal packing by branch and bound: the ground truth.

    Sizes are converted here from ``instance.sizes``, not read from the
    instance's unit table, so the ground truth stays independent of it.
    """
    if instance.n > limit_n:
        raise CapabilityError(f"exact solver limited to n <= {limit_n}, got {instance.n}")
    units, den = size_units(instance.sizes.values())
    bins = _exact_bins(instance.items, dict(zip(instance.items, units)), den, instance.adjacency)
    return Packing(bins, "exact"), len(bins)
