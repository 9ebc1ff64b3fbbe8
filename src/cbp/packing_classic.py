"""Conflict-free bin packing subroutines.

``ffd`` is the deterministic first-fit-decreasing heuristic; ``asymptotic_bp``
is a best-of strategy that additionally runs the exact solver on small
inputs and therefore returns an optimal packing whenever that path ran.
Both check and convert their sizes once, then run the integer cores
``_ffd_bins`` and ``_best_bins``, which the conflict-graph algorithms call
directly with an instance's unit table.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import oracle
from .errors import ParameterError
from .model import Packing, SizeLike, as_size, size_units, ONE, ZERO

DEFAULT_EXACT_THRESHOLD = 18


def _checked_units(items: Iterable[int], sizes: Mapping[int, SizeLike]) -> tuple[dict[int, int], int]:
    sized = {}
    for i in items:
        s = as_size(sizes[i])
        if not (ZERO <= s <= ONE):
            raise ParameterError(f"size of item {i} is {s}, outside [0, 1]")
        sized[i] = s
    units, den = size_units(sized.values())
    return dict(zip(sized, units)), den


def _ffd_bins(items: Iterable[int], units: Mapping[int, int], den: int) -> tuple[frozenset[int], ...]:
    # First-fit decreasing on integer units over ``den``; ties by ascending id.
    bins: list[set[int]] = []
    loads: list[int] = []
    for i in sorted(items, key=lambda i: (-units[i], i)):
        u = units[i]
        for b, load in enumerate(loads):
            if load + u <= den:
                bins[b].add(i)
                loads[b] = load + u
                break
        else:
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
    heuristic = _ffd_bins(items, units, den)
    if len(items) > DEFAULT_EXACT_THRESHOLD:
        return heuristic
    exact = oracle._exact_bins(items, units, den, adjacency)
    return exact if len(exact) < len(heuristic) else heuristic


def ffd(items: Iterable[int], sizes: Mapping[int, SizeLike]) -> Packing:
    """First-fit decreasing; ties in size broken by ascending item id."""
    units, den = _checked_units(items, sizes)
    return Packing(_ffd_bins(units, units, den), "ffd")


def asymptotic_bp(items: Iterable[int], sizes: Mapping[int, SizeLike]) -> Packing:
    """Best of first-fit decreasing and (for n <= DEFAULT_EXACT_THRESHOLD)
    the exact solver.

    The returned bin count is never below the optimum, and equals the
    optimum whenever the exact path ran (flag "exact-opt").
    """
    units, den = _checked_units(items, sizes)
    bins = _best_bins(units, units, den, dict.fromkeys(units, 0))
    flags = ("exact-opt",) if len(units) <= DEFAULT_EXACT_THRESHOLD else ()
    return Packing(bins, "asymptotic_bp", flags)
