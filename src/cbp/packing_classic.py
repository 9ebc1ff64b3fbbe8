"""Conflict-free bin packing subroutines.

``ffd`` is the deterministic first-fit-decreasing heuristic; ``asymptotic_bp``
is a best-of strategy that additionally runs the exact solver on small
inputs and therefore returns an optimal packing whenever that path ran.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from . import oracle
from .errors import ParameterError
from .model import ConflictInstance, Packing, SizeLike, as_size, size_units, ONE, ZERO

DEFAULT_EXACT_THRESHOLD = 18


def _checked_sizes(items: Iterable[int], sizes: Mapping[int, SizeLike]) -> dict[int, Fraction]:
    out = {}
    for i in items:
        s = as_size(sizes[i])
        if not (ZERO <= s <= ONE):
            raise ParameterError(f"size of item {i} is {s}, outside [0, 1]")
        out[i] = s
    return out


def ffd(items: Iterable[int], sizes: Mapping[int, SizeLike]) -> Packing:
    """First-fit decreasing; ties in size broken by ascending item id."""
    sized = _checked_sizes(items, sizes)
    units, cap = size_units(sized.values())
    order = sorted(zip(sized, units), key=lambda iu: (-iu[1], iu[0]))
    bins: list[set[int]] = []
    loads: list[int] = []
    for i, u in order:
        for b, load in enumerate(loads):
            if load + u <= cap:
                bins[b].add(i)
                loads[b] = load + u
                break
        else:
            bins.append({i})
            loads.append(u)
    return Packing(tuple(frozenset(b) for b in bins), "ffd")


def asymptotic_bp(
    items: Iterable[int],
    sizes: Mapping[int, SizeLike],
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> Packing:
    """Best of first-fit decreasing and (for small n) the exact solver.

    The returned bin count is never below the optimum, and equals the
    optimum whenever the exact path ran (flag "exact-opt").
    """
    sized = _checked_sizes(items, sizes)
    heuristic = ffd(sized, sized)
    if len(sized) > exact_threshold:
        return Packing(heuristic.bins, "asymptotic_bp")
    instance = ConflictInstance(sized)
    exact, count = oracle.opt_bpc_exact(instance, limit_n=exact_threshold)
    best = exact if count < heuristic.bin_count else heuristic
    return Packing(best.bins, "asymptotic_bp", ("exact-opt",))
