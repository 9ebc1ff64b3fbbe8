"""Conflict-free bin packing subroutines.

``ffd`` is the deterministic first-fit-decreasing heuristic; ``asymptotic_bp``
is a best-of strategy that on small inputs also runs the exact solver,
unless FFD already meets the lower bound, and therefore returns an
optimal packing whenever its input is small.
Both check and convert their sizes once, with ``model._unit_table`` as
every instance does, then run the integer cores
``_ffd_bins`` and ``_best_bins``, which the conflict-graph algorithms call
directly with an instance's unit table.

``_ffd_bins`` scans the open bins in order, but an item of the same size
as the one before it starts at that item's bin: every earlier bin already
failed that size and loads only grow, so the bins are exact first fit.
``_best_bins`` returns items whose units fit one bin as that bin, which is
what FFD gives them, without sorting them.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import oracle
from .model import Packing, SizeLike, _unit_table, as_size, bin_lower_bound

DEFAULT_EXACT_THRESHOLD = 18


def _ffd_bins(items: Iterable[int], units: Mapping[int, int], den: int) -> tuple[frozenset[int], ...]:
    # First-fit decreasing on integer units over ``den``; ties by ascending id.
    # Within a run of equal units the scan starts at the last item's bin ``b``.
    bins: list[set[int]] = []
    loads: list[int] = []
    b = last = -1
    for i in sorted(items, key=lambda i: (-units[i], i)):
        u = units[i]
        if u != last:
            b, last = 0, u
        cap = den - u
        for b in range(b, len(loads)):
            if loads[b] <= cap:
                bins[b].add(i)
                loads[b] += u
                break
        else:
            b = len(loads)
            bins.append({i})
            loads.append(u)
    return tuple(frozenset(b) for b in bins)


def _best_bins(
    items: Iterable[int],
    units: Mapping[int, int],
    den: int,
    adjacency: Mapping[int, int],
) -> tuple[frozenset[int], ...]:
    # ``asymptotic_bp`` on integer units of an independent set ``items``;
    # ``adjacency`` holds masks of which only the bits of ``items`` are read.
    items = list(items)
    # Units within one bin: FFD puts every item in bin 0, and one bin is optimal.
    if items and sum(units[i] for i in items) <= den:
        return (frozenset(items),)
    heuristic = _ffd_bins(items, units, den)
    if len(items) > DEFAULT_EXACT_THRESHOLD:
        return heuristic
    # FFD bins at the lower bound are optimal: no search can beat them.
    if len(heuristic) <= bin_lower_bound((units[i] for i in items), den):
        return heuristic
    exact = oracle._exact_bins(items, units, den, adjacency)
    return exact if len(exact) < len(heuristic) else heuristic


def ffd(items: Iterable[int], sizes: Mapping[int, SizeLike]) -> Packing:
    """First-fit decreasing; ties in size broken by ascending item id."""
    units, den = _unit_table({i: as_size(sizes[i]) for i in items})
    return Packing(_ffd_bins(units, units, den), "ffd")


def asymptotic_bp(items: Iterable[int], sizes: Mapping[int, SizeLike]) -> Packing:
    """Best of first-fit decreasing and (for n <= DEFAULT_EXACT_THRESHOLD)
    the exact solver.

    The exact solver runs only when FFD uses more bins than
    ``model.bin_lower_bound``: FFD at that bound is already optimal. So
    for n <= DEFAULT_EXACT_THRESHOLD the bin count is the optimum (flag
    "exact-opt"), whichever path gave it.
    """
    units, den = _unit_table({i: as_size(sizes[i]) for i in items})
    bins = _best_bins(units, units, den, dict.fromkeys(units, 0))
    flags = ("exact-opt",) if len(units) <= DEFAULT_EXACT_THRESHOLD else ()
    return Packing(bins, "asymptotic_bp", flags)
