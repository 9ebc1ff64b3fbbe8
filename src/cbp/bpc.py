"""Top-level packing algorithms.

Each algorithm returns a Packing whose ``source`` names it and whose
``flags`` carry fallback/bookkeeping notes for the harness. All functions
are pure; recognition info is computed on demand when not supplied.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import bis, oracle, packing_classic
from .errors import CapabilityError, ParameterError, SolverError
from .graphs import GraphClassInfo, maximum_matching_masks, minimum_coloring, recognize
from .maxsize import PRACTICAL_EPS, _check_growth_eps, greedy_growth, validate_initial
from .model import (
    ConflictInstance,
    Packing,
    _mask_to_ids,
    bin_lower_bound,
    classify_items,
    fits_within,
    restrict_instance,
    ONE,
    ZERO,
)
from .simplex import solve_max_lp

# ``abs_bpb`` solves instances of at most this many items exactly.
ABS_BPB_EXACT_LIMIT = 16


def _info(instance: ConflictInstance, info: Optional[GraphClassInfo]) -> GraphClassInfo:
    return info if info is not None else recognize(instance)


def _best_of(
    instance: ConflictInstance, source: str, *solvers: Callable[[Optional[int]], Optional[Packing]]
) -> Packing:
    """The first packing with the fewest bins, flagged ``winner:<source>``.

    Calls ``solvers`` in order, each with the bin count it must beat (None
    for the first); one may return None for no candidate. A packing
    replaces the incumbent only with strictly fewer bins, so a solver that
    can show it would not may return None. No packing of ``instance`` uses
    fewer than ``bin_lower_bound`` bins, so a packing that meets it can at
    most be tied, and the solvers after it are not called.
    """
    units, den = instance.unit_table
    bound = bin_lower_bound(units.values(), den)
    best: Optional[Packing] = None
    for solve in solvers:
        candidate = solve(None if best is None else best.bin_count)
        if candidate is not None and (best is None or candidate.bin_count < best.bin_count):
            best = candidate
            if best.bin_count <= bound:
                break
    return Packing(best.bins, source, best.flags + (f"winner:{best.source}",))


def _class_bound_terms(instance: ConflictInstance) -> tuple[int, int, int]:
    """``(|large|, medium units, small units)``: the large count and the unit
    sums of the medium and small items, classified as ``classify_items``."""
    units, den = instance.unit_table
    n_large = medium = small = 0
    for u in units.values():
        if 2 * u > den:
            n_large += 1
        elif 3 * u > den:
            medium += u
        else:
            small += u
    return n_large, medium, small


def lemma4_bound(instance: ConflictInstance, chi: int) -> Fraction:
    """Lemma 4's bin bound for packing the classes of a chi-coloring:
    chi + |large| + (3/2) s(medium) + (4/3) s(small)."""
    n_large, medium, small = _class_bound_terms(instance)
    return chi + n_large + Fraction(9 * medium + 8 * small, 6 * instance.unit_table[1])


def color_sets(instance: ConflictInstance, info: Optional[GraphClassInfo] = None) -> Packing:
    """Pack each color class of a minimum coloring as a separate instance.

    Each class is packed by ``asymptotic_bp`` (first-fit decreasing, or
    the exact optimum when that is strictly better); the concatenation
    satisfies
    #bins <= chi + |large| + (3/2) s(medium) + (4/3) s(small), checked
    exactly on every run.
    """
    info = _info(instance, info)
    coloring = minimum_coloring(instance, info)
    units, den = instance.unit_table
    bins: tuple[frozenset[int], ...] = ()
    for cls in coloring:
        bins += packing_classic._best_bins(cls, units, den, instance.adjacency)
    result = Packing(bins, "color_sets")
    # lemma4_bound in units: bins > chi + large + (9m + 8s) / (6 den).
    n_large, medium, small = _class_bound_terms(instance)
    if 6 * den * (result.bin_count - len(coloring) - n_large) > 9 * medium + 8 * small:
        bound = lemma4_bound(instance, len(coloring))
        raise SolverError(f"coloring-based bound violated: {result.bin_count} > {bound}")
    return result


def max_solve(
    instance: ConflictInstance,
    info: Optional[GraphClassInfo] = None,
    eps=PRACTICAL_EPS,
) -> Packing:
    """Singleton bins for the large items, grown greedily, rest by coloring.

    The singletons are a feasible start by construction: a size is at most
    1, and a singleton has no inner edge. The growth checks ``eps`` before
    it solves a bin.
    """
    info = _info(instance, info)
    large = sorted(classify_items(instance).large)
    seed = Packing(tuple(frozenset({v}) for v in large), "max_solve")
    for bins, pool in greedy_growth(instance, seed, info, eps):
        pass
    tail = color_sets(restrict_instance(instance, _mask_to_ids(pool)), info)
    return Packing(tuple(bins) + tail.bins, "max_solve")


def matching_pack(instance: ConflictInstance, info: Optional[GraphClassInfo] = None) -> Packing:
    """Pair up large/medium items that fit together, color the small rest.

    The auxiliary graph joins two non-conflicting large-or-medium items
    whose sizes sum to at most one; a maximum matching of it gives the
    two-item bins. Each item's auxiliary neighbours are one mask: the
    items that fit its room, less its conflicts.
    """
    return _matching_pack(instance, _info(instance, info))


def _matching_pack(instance: ConflictInstance, info: GraphClassInfo, beat: Optional[int] = None) -> Optional[Packing]:
    # ``matching_pack``, or None once a floor on its bin count reaches
    # ``beat``. It makes |lm| - |M| bins for the large and medium items
    # ``lm`` and the tail's bins for the small ones. A pair holds a medium
    # item (two items over 1/2 never share a bin) and two items with an
    # auxiliary neighbour, so |M| is at most ``most``, which is at most
    # min(|lm| // 2, |medium|); the tail uses at least the L1 bound of the
    # small items, then its own count. The coarse floor needs no masks.
    classes = classify_items(instance)
    lm = sorted(classes.large | classes.medium)
    units, den = instance.unit_table
    if beat is not None:
        small_floor = bin_lower_bound(map(units.__getitem__, classes.small), den)
        if len(lm) - min(len(lm) // 2, len(classes.medium)) + small_floor >= beat:
            return None
    fits = fits_within(lm, units)
    aux = {u: fits(den - units[u]) & ~instance.adjacency[u] for u in lm}
    if beat is not None:
        paired = [u for u in lm if aux[u] & ~(1 << u)]
        most = min(len(paired) // 2, sum(2 * units[u] <= den for u in paired))
        singles = len(lm) - most
        if singles + small_floor >= beat:
            return None
    tail = color_sets(restrict_instance(instance, classes.small), info)
    if beat is not None and singles + tail.bin_count >= beat:
        return None
    bins = [frozenset(pair) for pair in sorted(maximum_matching_masks(aux))]
    matched = set().union(*bins)
    bins += [frozenset({v}) for v in lm if v not in matched]
    return Packing(tuple(bins) + tail.bins, "matching_pack")


def approx_bpc(
    instance: ConflictInstance,
    info: Optional[GraphClassInfo] = None,
    eps=PRACTICAL_EPS,
) -> Packing:
    """Best of the three subroutines by bin count (ties by listed order).

    ``color_sets``, ``max_solve`` and ``matching_pack`` run in that order
    until one meets ``bin_lower_bound``; the later ones could only tie.
    The matching is skipped once a floor on its bin count reaches the
    incumbent's: the large and medium items less the most pairs a matching
    could form, plus the L1 bound of the small items or the bin count of
    their coloring-based tail. The pairs are bounded first by the item
    counts alone, then by the items that have a partner. A skipped
    matching could only tie or lose, so the result is the same.
    ``eps`` is checked first, as ``max_solve``'s growth would check it.
    """
    info = _info(instance, info)
    _check_growth_eps(eps, info)
    return _best_of(
        instance,
        "approx_bpc",
        lambda beat: color_sets(instance, info),
        lambda beat: max_solve(instance, info, eps=eps),
        functools.partial(_matching_pack, instance, info),
    )


def split_approx(
    instance: ConflictInstance,
    info: Optional[GraphClassInfo] = None,
    eps=Fraction(1, 10),
) -> Packing:
    """Clique singletons plus guessed empty bins, grown, remainder by FFD.

    Tries every guess alpha of how many bins beyond the clique the optimum
    uses: the clique singletons plus alpha empty bins are grown with the
    split-graph single-bin scheme, the leftovers (all from the independent
    side) are packed with FFD, and the first guess with the fewest bins is
    kept. Greedy growth fills bins in order, so the growth for alpha is
    the first |clique| + alpha bins of one growth over the largest guess;
    every guess is read off that single growth. A guess's floor, its bins
    plus the L1 bound of its leftovers, bounds its count, since no FFD
    tail is below L1. The floor never falls along the growth: each later
    guess adds one empty bin, which takes at most a bin's worth of size
    and one item above 1/2 from the leftovers, so their L1 bound falls by
    at most one. A guess whose floor reaches the best count gets no tail,
    and the growth stops once the floor or the next guess's bin count
    reaches it: only a guess with strictly fewer bins replaces the best.
    The start packing is feasible by construction: the model bounds every
    size by 1, and a singleton or an empty bin holds no edge.
    """
    bis._check_eps(eps)
    info = _info(instance, info)
    if info.split_partition is None:
        raise CapabilityError("split certificate required")
    if instance.n == 0:
        return Packing((), "split_approx")
    units, den = instance.unit_table
    total = sum(units.values())
    if total <= den and instance.is_independent(instance.items):
        return Packing((frozenset(instance.items),), "split_approx")
    clique = info.split_partition[0] & frozenset(instance.items)
    singles = tuple(frozenset({v}) for v in sorted(clique))
    alpha_top = -(-2 * total // den) + 1  # ceil(2 s(I)) + 1
    start = Packing(singles + (frozenset(),) * alpha_top, "split_approx")
    growth = greedy_growth(instance, start, info, eps)
    best: Optional[Packing] = None
    for bins, pool in itertools.islice(growth, len(singles), None):
        left = _mask_to_ids(pool)
        floor = len(bins) + bin_lower_bound(map(units.__getitem__, left), den)
        if best is None or floor < best.bin_count:
            tail = packing_classic._ffd_bins(left, units, den)
            if best is None or len(bins) + len(tail) < best.bin_count:
                best = Packing(tuple(bins) + tail, "split_approx")
        if max(floor, len(bins) + 1) >= best.bin_count:
            break
    return best


def round_assignment(
    instance: ConflictInstance, big_packing: Packing, w_items: Iterable[int]
) -> Packing:
    """Extend ``big_packing`` by the items ``w_items`` that the assignment LP
    assigns whole.

    The one-sided item-to-bin assignment LP has a variable x[i, v] for bin
    i and item v of ``w_items`` with no edge into it; it maximizes the
    total assignment subject to one row per bin (the units of its items at
    most the bin's room, in the unit table's units) and one row per item
    (assigned at most once). A basic optimal solution has at most one
    fractional item per bin; keeping its x = 1 assignments and dropping
    the fractional items leaves the bin count unchanged and keeps at least
    LP-opt minus bin-count items. The flag ``lemma12:ok`` certifies both,
    ``lemma12:fail`` marks a solution without that structure.

    ``w_items`` must be mutually conflict-free items of the instance that
    no bin holds, and ``big_packing`` a feasible partial packing; anything
    else raises a ParameterError.
    """
    w = sorted(set(w_items))
    packed = big_packing.items()
    overlap = [v for v in w if v in packed]
    if overlap:
        raise ParameterError(f"assignment items overlap the packed items: {overlap}")
    unknown = [v for v in w if v not in instance.sizes]
    if unknown:
        raise ParameterError(f"assignment items not in instance: {unknown}")
    if not instance.is_independent(w):
        raise ParameterError("assignment items must be mutually conflict-free (one side)")
    validate_initial(instance, big_packing)
    return _round(instance, big_packing.bins, [instance.bin_state(b) for b in big_packing.bins], w)


def _round(instance: ConflictInstance, bins, states, w: list[int]) -> Packing:
    # ``round_assignment`` on checked input: ``states`` holds each bin's
    # ``(blocked, room)`` and ``w`` the sorted items to assign. One column
    # per bin and item with no edge into it, in bin order, then item order.
    units = instance.unit_table[0]
    cols = [(i, v) for i, (blocked, _) in enumerate(states) for v in w if not (blocked >> v) & 1]
    rows = [[units[v] if ci == i else 0 for ci, v in cols] for i in range(len(bins))]
    rows += [[int(cv == v) for _, cv in cols] for v in w]
    result = solve_max_lp([1] * len(cols), rows, [room for _, room in states] + [1] * len(w))
    extra: list[set[int]] = [set() for _ in bins]
    fractional = set()
    for (i, v), x in zip(cols, result.x):
        if x == ONE:
            extra[i].add(v)
        elif x > ZERO:
            fractional.add(v)
    t = len(bins)
    ok = len(fractional) <= t and sum(map(len, extra)) >= result.objective - t
    flag = "lemma12:ok" if ok else "lemma12:fail"
    return Packing(tuple(frozenset(b) | e for b, e in zip(bins, extra)), "round_assignment", (flag,))


@dataclass(frozen=True)
class AssignConfig:
    eps: Fraction = Fraction(1, 10000)
    max_bins: int = 6
    max_big_items: int = 10


def _enumerate_feasible_packings(
    instance: ConflictInstance, items: list[int], max_bins: int
):
    """All packings of ``items`` into at most max_bins feasible bins.

    Yields each packing's bins with their ``(blocked, room)`` states, both
    copied. Canonical generation (an item may only open the next unused
    bin), so each partition appears exactly once.
    """
    items = sorted(items)
    n = len(items)
    units, den = instance.unit_table
    loads: list[int] = []
    blocks: list[int] = []
    bins: list[list[int]] = []

    def dfs(k: int):
        if k == n:
            yield tuple(map(frozenset, bins)), [(blocked, den - load) for blocked, load in zip(blocks, loads)]
            return
        v = items[k]
        s = units[v]
        for b in range(len(bins)):
            if loads[b] + s <= den and not (blocks[b] >> v) & 1:
                bins[b].append(v)
                loads[b] += s
                old = blocks[b]
                blocks[b] |= instance.adjacency[v]
                yield from dfs(k + 1)
                bins[b].pop()
                loads[b] -= s
                blocks[b] = old
        if len(bins) < max_bins:
            bins.append([v])
            loads.append(s)
            blocks.append(instance.adjacency[v])
            yield from dfs(k + 1)
            bins.pop()
            loads.pop()
            blocks.pop()

    yield from dfs(0)


def assign(
    instance: ConflictInstance,
    w_items: Iterable[int],
    info: Optional[GraphClassInfo] = None,
    config: Optional[AssignConfig] = None,
) -> Packing:
    """Enumerate packings of the big items, round the assignment LP on each.

    Starts from the coloring-based packing; every enumerated big-item
    packing is extended by LP rounding over ``w_items`` and a coloring-based
    packing of whatever remains. Enumeration limits trigger a silent
    fallback to the initialization (flagged, never fatal).
    """
    info = _info(instance, info)
    if info.bipartition is None:
        raise CapabilityError("bipartite certificate required")
    return _assign(instance, w_items, info, config or AssignConfig(), color_sets(instance, info))


def _assign(
    instance: ConflictInstance,
    w_items: Iterable[int],
    info: GraphClassInfo,
    config: AssignConfig,
    colored: Packing,
) -> Packing:
    # ``assign`` from ``colored``, the coloring-based packing of the whole
    # instance, which ``abs_bpb`` computes once for its candidates.
    classes = classify_items(instance, eps=config.eps)
    assert classes.tiny is not None and classes.big is not None
    w = sorted(set(w_items))
    outside = [v for v in w if v not in classes.tiny]
    if outside:
        raise ParameterError(f"assignment items must be tiny at eps={config.eps}: {outside}")
    best = colored.with_source("assign")
    if not instance.is_independent(w):
        raise ParameterError("assignment items must be mutually conflict-free (one side)")
    bigs = sorted(classes.big)
    if len(bigs) > config.max_big_items:
        return best.with_flags("enumeration-skipped")
    count = 0
    # Each enumerated packing is feasible and ``w`` is checked above, so
    # the rounding reads the search's bin states as they are.
    for bins, states in _enumerate_feasible_packings(instance, bigs, config.max_bins):
        count += 1
        # Rounding keeps the bin count, so this packing cannot beat best.
        if len(bins) >= best.bin_count:
            continue
        rounded = _round(instance, bins, states, w)
        rest = restrict_instance(instance, set(instance.items) - rounded.items())
        tail = color_sets(rest, info)
        candidate = Packing(rounded.bins + tail.bins, "assign", rounded.flags)
        if candidate.bin_count < best.bin_count:
            best = candidate
    return best.with_flags(f"enumerated:{count}")


def abs_bpb(instance: ConflictInstance, info: Optional[GraphClassInfo] = None) -> Packing:
    """Best of a few candidates on a bipartite conflict graph.

    Up to ABS_BPB_EXACT_LIMIT items: the coloring and the exact optimum,
    which no assignment run could beat. Above it: the coloring, a search
    for a packing into at most 3 bins, and both one-sided LP-assignment
    runs. The candidates run in that order until one meets
    ``bin_lower_bound``; the later ones could only tie.
    """
    info = _info(instance, info)
    if info.bipartition is None:
        raise CapabilityError("bipartite certificate required")
    colored = color_sets(instance, info)
    units, den = instance.unit_table

    def exact(beat: Optional[int]) -> Packing:
        return Packing(oracle._exact_bins(instance.items, units, den, instance.adjacency), "abs_bpb/exact")

    def at_most_3_bins(beat: Optional[int]) -> Optional[Packing]:
        # Too large to solve exactly: look only for a packing into at most
        # 3 bins, none of which exists above the L1 bound, and give up when
        # the node budget runs out.
        if bin_lower_bound(units.values(), den) > 3:
            return None
        try:
            bins = oracle._exact_bins(instance.items, units, den, instance.adjacency, max_bins=3, node_budget=200_000)
        except CapabilityError:
            return None
        return Packing(bins, "abs_bpb/exact-small")

    # The candidates ignore the bin count to beat.
    candidates = [lambda beat: colored.with_source("abs_bpb/color_sets")]
    if instance.n <= ABS_BPB_EXACT_LIMIT:
        candidates.append(exact)
    else:
        config = AssignConfig()
        tiny = classify_items(instance, eps=config.eps).tiny
        assert tiny is not None
        candidates.append(at_most_3_bins)
        candidates += (
            lambda beat, w=sorted(side & tiny): _assign(instance, w, info, config, colored)
            for side in info.bipartition
        )
    return _best_of(instance, "abs_bpb", *candidates)


def multipartite_pack(instance: ConflictInstance, info: Optional[GraphClassInfo] = None) -> Packing:
    """Pack each part of a complete multipartite graph on its own.

    Bins never mix parts (every cross pair conflicts), and the per-part
    optima add up to the overall optimum, so a good per-part packing is a
    good packing.
    """
    info = _info(instance, info)
    if info.parts is None:
        raise CapabilityError("complete-multipartite certificate required")
    items = frozenset(instance.items)
    units, den = instance.unit_table
    bins: tuple[frozenset[int], ...] = ()
    for part in info.parts:
        bins += packing_classic._best_bins(part & items, units, den, instance.adjacency)
    return Packing(bins, "multipartite_pack")
