"""Top-level packing algorithms.

Each algorithm returns a Packing whose ``source`` names it and whose
``flags`` carry fallback/bookkeeping notes for the harness. All functions
are pure; recognition info is computed on demand when not supplied.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import bis, oracle, packing_classic
from .errors import CapabilityError, ParameterError, SolverError
from .graphs import GraphClassInfo, maximum_matching_general, minimum_coloring, recognize
from .maxsize import greedy_growth, max_size, validate_initial
from .model import (
    ConflictInstance,
    Packing,
    classify_items,
    concat_packings,
    restrict_instance,
    validate_packing,
    ONE,
    ZERO,
)
from .simplex import solve_max_lp

PRACTICAL_EPS = Fraction(1, 6)


def _info(instance: ConflictInstance, info: Optional[GraphClassInfo]) -> GraphClassInfo:
    return info if info is not None else recognize(instance)


def _class_bound_terms(instance: ConflictInstance) -> tuple[int, Fraction, Fraction]:
    classes = classify_items(instance)
    s_m = instance.size_of(classes.medium)
    s_s = instance.size_of(classes.small)
    return len(classes.large), s_m, s_s


def lemma4_bound(instance: ConflictInstance, chi: int) -> Fraction:
    """Lemma 4's bin bound for packing the classes of a chi-coloring:
    chi + |large| + (3/2) s(medium) + (4/3) s(small)."""
    n_large, s_m, s_s = _class_bound_terms(instance)
    return chi + n_large + Fraction(3, 2) * s_m + Fraction(4, 3) * s_s


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
    bound = lemma4_bound(instance, len(coloring))
    if Fraction(result.bin_count) > bound:
        raise SolverError(f"coloring-based bound violated: {result.bin_count} > {bound}")
    return result


def max_solve(
    instance: ConflictInstance,
    info: Optional[GraphClassInfo] = None,
    eps=PRACTICAL_EPS,
) -> Packing:
    """Singleton bins for the large items, grown greedily, rest by coloring."""
    info = _info(instance, info)
    classes = classify_items(instance)
    large = sorted(classes.large)
    seed = Packing(tuple(frozenset({v}) for v in large), "max_solve")
    grown = max_size(instance, seed, info, eps=eps)
    rest = restrict_instance(instance, grown.augmented.items(), mode="subtract")
    tail = color_sets(rest, info)
    out = concat_packings(grown.augmented, tail)
    return Packing(out.bins, "max_solve", grown.augmented.flags)


def matching_pack(instance: ConflictInstance, info: Optional[GraphClassInfo] = None) -> Packing:
    """Pair up large/medium items that fit together, color the small rest.

    The auxiliary graph joins two non-conflicting large-or-medium items
    whose sizes sum to at most one; a maximum matching of it gives the
    two-item bins.
    """
    info = _info(instance, info)
    classes = classify_items(instance)
    lm = sorted(classes.large | classes.medium)
    units = instance.unit_table[0]
    aux_edges: list[tuple[int, int]] = []
    for k, u in enumerate(lm):
        blocked, room = instance.bin_state((u,))
        aux_edges += [(u, v) for v in lm[k + 1 :] if units[v] <= room and not (blocked >> v) & 1]
    matching = maximum_matching_general(lm, aux_edges)
    matched: set[int] = set()
    bins: list[frozenset[int]] = []
    for u, v in sorted(matching):
        bins.append(frozenset({u, v}))
        matched |= {u, v}
    for v in lm:
        if v not in matched:
            bins.append(frozenset({v}))
    rest = restrict_instance(instance, set(lm), mode="subtract")
    tail = color_sets(rest, info)
    return Packing(tuple(bins) + tail.bins, "matching_pack")


def approx_bpc(
    instance: ConflictInstance,
    info: Optional[GraphClassInfo] = None,
    eps=PRACTICAL_EPS,
) -> Packing:
    """Best of the three subroutines by bin count (ties by listed order)."""
    bis._check_eps(eps)
    info = _info(instance, info)
    candidates = [
        color_sets(instance, info),
        max_solve(instance, info, eps=eps),
        matching_pack(instance, info),
    ]
    best = min(candidates, key=lambda p: p.bin_count)
    return Packing(best.bins, "approx_bpc", best.flags + (f"winner:{best.source}",))


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
    every guess is read off that single growth, which stops once a guess
    can no longer beat the best (it has at least |clique| + alpha bins).
    """
    bis._check_eps(eps)
    info = _info(instance, info)
    if info.split_partition is None:
        raise CapabilityError("split certificate required")
    if instance.n == 0:
        return Packing((), "split_approx")
    total = instance.total_size
    if total <= ONE and instance.is_independent(instance.items):
        return Packing((frozenset(instance.items),), "split_approx")
    clique = info.split_partition[0] & frozenset(instance.items)
    singles = tuple(frozenset({v}) for v in sorted(clique))
    alpha_top = math.ceil(2 * total) + 1
    start = Packing(singles + (frozenset(),) * alpha_top, "split_approx")
    validate_initial(instance, start)
    growth = greedy_growth(instance, start, info, eps)
    units, den = instance.unit_table
    best: Optional[Packing] = None
    for bins, pool in itertools.islice(growth, len(singles), None):
        if best is not None and len(bins) >= best.bin_count:
            break
        tail = packing_classic._ffd_bins(pool, units, den)
        if best is None or len(bins) + len(tail) < best.bin_count:
            best = Packing(tuple(bins) + tail, "split_approx")
    return best


@dataclass(frozen=True)
class AssignmentLp:
    """The one-sided item-to-bin assignment LP.

    Variables x[i, v] exist for bin i and item v eligible for it (the bin
    stays an independent set with v added); rows bound per-bin residual
    capacity and per-item total assignment.
    """

    big_packing: Packing
    items_w: tuple[int, ...]
    capacities: tuple[Fraction, ...]
    eligible: tuple[frozenset[int], ...]
    variables: tuple[tuple[int, int], ...]  # (bin index, item) per column

    @property
    def bin_count(self) -> int:
        return len(self.capacities)


@dataclass(frozen=True)
class LpSolution:
    values: dict[tuple[int, int], Fraction]
    objective: Fraction
    basis: tuple[int, ...]
    fractional_items: frozenset[int]
    integral_items: frozenset[int]


def build_assignment_lp(
    instance: ConflictInstance, big_packing: Packing, w_items: Iterable[int]
) -> AssignmentLp:
    w = tuple(sorted(set(w_items)))
    packed = big_packing.items()
    overlap = [v for v in w if v in packed]
    if overlap:
        raise ParameterError(f"assignment items overlap the packed items: {overlap}")
    unknown = [v for v in w if v not in instance.sizes]
    if unknown:
        raise ParameterError(f"assignment items not in instance: {unknown}")
    if not instance.is_independent(w):
        raise ParameterError("assignment items must be mutually conflict-free (one side)")
    report = validate_packing(instance, big_packing, require_cover=False)
    if not report.feasible:
        first = report.violations[0]
        raise ParameterError(f"packed bins infeasible: {first.kind} ({first.detail})")

    den = instance.unit_table[1]
    capacities = []
    eligible = []
    variables: list[tuple[int, int]] = []
    for i, members in enumerate(big_packing.bins):
        blocked, room = instance.bin_state(members)
        capacities.append(Fraction(room, den))
        q = frozenset(v for v in w if not (blocked >> v) & 1)
        eligible.append(q)
        for v in w:
            if v in q:
                variables.append((i, v))
    return AssignmentLp(big_packing, w, tuple(capacities), tuple(eligible), tuple(variables))


def solve_assignment_lp(instance: ConflictInstance, lp: AssignmentLp) -> LpSolution:
    """Maximize total assignment; returns an optimal basic feasible solution.

    Basicness matters: it caps the number of fractionally assigned items by
    the number of bins, which the rounding step exploits.
    """
    t = lp.bin_count
    cols = lp.variables
    objective = [ONE] * len(cols)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(t):
        rows.append(
            [instance.sizes[v] if ci == i else ZERO for (ci, v) in cols]
        )
        rhs.append(lp.capacities[i])
    for v in lp.items_w:
        rows.append([ONE if cv == v else ZERO for (_, cv) in cols])
        rhs.append(ONE)
    result = solve_max_lp(objective, rows, rhs)
    values = {col: x for col, x in zip(cols, result.x)}
    fractional = frozenset(
        v for (i, v), x in values.items() if ZERO < x < ONE
    )
    integral = frozenset(lp.items_w) - fractional
    return LpSolution(values, result.objective, result.basis, fractional, integral)


def round_assignment(
    instance: ConflictInstance, big_packing: Packing, w_items: Iterable[int]
) -> Packing:
    """Keep the x = 1 assignments of a basic optimal solution.

    Dropping the (at most one per bin) fractional items leaves the bin
    count unchanged and keeps at least LP-opt minus bin-count items.
    """
    lp = build_assignment_lp(instance, big_packing, w_items)
    sol = solve_assignment_lp(instance, lp)
    bins = []
    kept = 0
    for i, members in enumerate(big_packing.bins):
        extra = {v for v in lp.eligible[i] if sol.values.get((i, v)) == ONE}
        kept += len(extra)
        bins.append(frozenset(members) | extra)
    ok = len(sol.fractional_items) <= lp.bin_count and Fraction(kept) >= sol.objective - lp.bin_count
    return Packing(
        tuple(bins),
        "round_assignment",
        ("lemma12:ok",) if ok else ("lemma12:fail",),
    )


@dataclass(frozen=True)
class AssignConfig:
    eps: Fraction = Fraction(1, 10000)
    max_bins: int = 6
    max_big_items: int = 10


def _enumerate_feasible_packings(
    instance: ConflictInstance, items: list[int], max_bins: int
):
    """All packings of ``items`` into at most max_bins feasible bins.

    Canonical generation (an item may only open the next unused bin), so
    each partition appears exactly once.
    """
    items = sorted(items)
    n = len(items)
    units, den = instance.unit_table
    loads: list[int] = []
    blocks: list[int] = []
    bins: list[list[int]] = []

    def dfs(k: int):
        if k == n:
            yield Packing(tuple(frozenset(b) for b in bins), "enumerated")
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
    config = config or AssignConfig()
    classes = classify_items(instance, eps=config.eps)
    assert classes.tiny is not None and classes.big is not None
    w = sorted(set(w_items))
    outside = [v for v in w if v not in classes.tiny]
    if outside:
        raise ParameterError(f"assignment items must be tiny at eps={config.eps}: {outside}")
    best = color_sets(instance, info).with_source("assign")
    bigs = sorted(classes.big)
    if len(bigs) > config.max_big_items:
        return best.with_flags("enumeration-skipped")
    if not instance.is_independent(w):
        raise ParameterError("assignment items must be mutually conflict-free (one side)")
    count = 0
    for big_packing in _enumerate_feasible_packings(instance, bigs, config.max_bins):
        count += 1
        # Rounding keeps the bin count, so this packing cannot beat best.
        if big_packing.bin_count >= best.bin_count:
            continue
        rounded = round_assignment(instance, big_packing, w)
        rest = restrict_instance(instance, rounded.items(), mode="subtract")
        tail = color_sets(rest, info)
        candidate = Packing(rounded.bins + tail.bins, "assign", rounded.flags)
        if candidate.bin_count < best.bin_count:
            best = candidate
    return best.with_flags(f"enumerated:{count}")


def abs_bpb(instance: ConflictInstance, info: Optional[GraphClassInfo] = None) -> Packing:
    """Best of coloring, small-optimum exact search, and both one-sided
    LP-assignment runs, on a bipartite conflict graph."""
    info = _info(instance, info)
    if info.bipartition is None:
        raise CapabilityError("bipartite certificate required")
    candidates: list[Packing] = [color_sets(instance, info).with_source("abs_bpb/color_sets")]
    if instance.n <= 16:
        packing, _ = oracle.opt_bpc_exact(instance, limit_n=16)
        candidates.append(packing.with_source("abs_bpb/exact"))
    else:
        # Too large to solve exactly: look only for a packing into at most
        # 3 bins, and give up when the node budget runs out.
        try:
            packing, _ = oracle.opt_bpc_exact(instance, limit_n=instance.n, max_bins=3, node_budget=200_000)
            candidates.append(packing.with_source("abs_bpb/exact-small"))
        except CapabilityError:
            pass
    classes = classify_items(instance, eps=AssignConfig().eps)
    assert classes.tiny is not None
    for side in info.bipartition:
        w = sorted(side & classes.tiny)
        candidates.append(assign(instance, w, info))
    best = min(candidates, key=lambda p: p.bin_count)
    return Packing(best.bins, "abs_bpb", best.flags + (f"winner:{best.source}",))


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
