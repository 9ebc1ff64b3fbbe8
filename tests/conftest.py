"""Shared helpers: seeded instance factories and independent brute oracles.

The brute-force routines here are deliberately naive (exhaustive scans) so
they stay independent of the library paths they check.
"""

import faulthandler
import itertools
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import settings

from cbp import BisProblem, CapabilityError, ConflictInstance, bis, bpc, graphs, harness, maxsize, oracle, packing_classic, recognize
from cbp.errors import ParameterError, SolverError
from cbp.harness import GeneratorSpec, generate
from cbp.model import ONE, Packing, ZERO, _mask_to_ids, as_size, bin_lower_bound, classify_items, restrict_instance
from cbp.rng import SplitMix64
from cbp.simplex import LpResult, solve_max_lp


# Property tests replay the same examples on every run, and a slow host
# cannot fail them on a time limit; each test sets only max_examples.
settings.register_profile("cbp", derandomize=True, deadline=None)
settings.load_profile("cbp")

# A test that runs this long is taken to hang: the run exits with every
# thread's traceback instead of waiting to be killed.
HANG_LIMIT_S = 300
_hang_out: list[int] = []


def pytest_configure(config):
    # Output capture is suspended while plugins configure, so this copies
    # the terminal's stderr, where a hang's traceback must go.
    _hang_out.append(os.dup(2))


def pytest_unconfigure(config):
    while _hang_out:
        os.close(_hang_out.pop())


@pytest.fixture(autouse=True)
def hang_guard():
    """Exit the run if one test outlasts HANG_LIMIT_S. The faulthandler
    timer is a watchdog thread, not a signal, so it cannot clash with a
    SIGALRM timer such as the benchmark worker's op timeout."""
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=_hang_out[0])
    yield
    faulthandler.cancel_dump_traceback_later()

CLASSES = ("edgeless", "bipartite", "split", "cluster", "complete-multipartite", "chordal")


def seeded_instance(klass: str, n: int, seed: int, density: float = 0.4) -> ConflictInstance:
    return generate(GeneratorSpec(klass=klass, n=n, density=density, seed=seed))


def single_bin_problem(instance: ConflictInstance, info, bin_items, pool) -> BisProblem:
    """The single-bin subproblem max_size solves for a bin holding
    ``bin_items``: the items of ``pool`` with no edge into the bin, and the
    bin's room as the size budget."""
    blocked, room = instance.bin_state(bin_items)
    return BisProblem(
        vertices=tuple(v for v in pool if not (blocked >> v) & 1),
        adjacency=instance.adjacency,
        weights=instance.sizes,
        budget=Fraction(room, instance.unit_table[1]),
        class_info=info,
    )


def weight_of(problem: BisProblem, items: Iterable[int]) -> Fraction:
    return sum((problem.weights[v] for v in items), ZERO)


def core_set(result: tuple[int, int], units) -> frozenset[int]:
    """The ids of a single-bin core's ``(mask, total)`` result, decoded as
    the library's boundary decodes it, after checking that ``total`` is the
    sum of their ``units`` (read by id)."""
    mask, total = result
    chosen = frozenset(_mask_to_ids(mask))
    assert total == sum(units[i] for i in chosen)
    return chosen


def shuffle(rng: SplitMix64, seq: list) -> None:
    for i in range(len(seq) - 1, 0, -1):
        j = rng.below(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def run_every_algorithm() -> dict[str, object]:
    """Bins (or "unfit") of every harness algorithm on one seeded instance
    of each generator class. Imports nothing beyond cbp, so it also runs
    where networkx cannot be imported."""
    out: dict[str, object] = {}
    for klass in harness.GENERATOR_CLASSES:
        if klass == "b3dm-reduction":
            spec = GeneratorSpec(klass=klass, x_count=4, y_count=4, z_count=4, t_count=4, guess=2, seed=7)
        else:
            spec = GeneratorSpec(klass=klass, n=14, density=0.4, seed=7)
        inst = generate(spec)
        info = recognize(inst)
        for name in harness.ALGORITHMS:
            try:
                packing = harness.run_algorithm(name, inst, info)
            except CapabilityError:
                out[f"{klass}/{name}"] = "unfit"
            else:
                out[f"{klass}/{name}"] = sorted(sorted(b) for b in packing.bins)
    return out


def brute_chromatic(instance: ConflictInstance) -> int:
    """Exhaustive chromatic number (n <= ~10)."""
    items = list(instance.items)
    if not items:
        return 0
    if not instance.edges:
        return 1

    def colorable(k: int) -> bool:
        colors: dict[int, int] = {}

        def dfs(idx: int, used: int) -> bool:
            if idx == len(items):
                return True
            v = items[idx]
            for c in range(min(used + 1, k)):
                if all(colors.get(u) != c for u in instance.neighbors(v)):
                    colors[v] = c
                    if dfs(idx + 1, max(used, c + 1)):
                        return True
                    del colors[v]
            return False

        return dfs(0, 0)

    k = 2
    while not colorable(k):
        k += 1
    return k


def brute_matching_size(vertices, edges) -> int:
    """Exhaustive maximum matching cardinality."""
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)

    def dfs(idx: int, used: frozenset, count: int) -> int:
        best = count
        for j in range(idx, len(edges)):
            u, v = edges[j]
            if u in used or v in used:
                continue
            best = max(best, dfs(j + 1, used | {u, v}, count + 1))
        return best

    return dfs(0, frozenset(), 0)


def mask_pairs(adjacency) -> list[tuple[int, int]]:
    """The edges of a graph given as neighbour masks (``graphs.
    maximum_matching_masks``'s input), as sorted pairs in sorted order."""
    return [(u, v) for u in sorted(adjacency) for v in _mask_to_ids(adjacency[u]) if u < v]


def brute_split_partition_exists(instance: ConflictInstance) -> bool:
    """Exhaustive split check: some vertex subset is a clique whose
    complement is independent (n <= ~10)."""
    items = list(instance.items)
    n = len(items)
    for mask in range(1 << n):
        clique = [items[k] for k in range(n) if (mask >> k) & 1]
        rest = [items[k] for k in range(n) if not (mask >> k) & 1]
        ok = all(instance.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
        if ok and instance.is_independent(rest):
            return True
    return False


# --- Brute oracles ----------------------------------------------------------
# A packing from plain bin lists, and exhaustive searches for the single-bin
# budgeted independent set and for MaxSize, the ground truth the
# maximization subroutines are checked against.


def make_packing(bins: Iterable[Iterable[int]], source: str = "", flags: tuple[str, ...] = ()) -> Packing:
    return Packing(tuple(frozenset(b) for b in bins), source, flags)


def bis_brute(problem, limit_n: int = 20) -> tuple[frozenset[int], Fraction]:
    """Optimal bounded independent set by exhaustive independent-set scan.

    Maximizes total weight subject to independence and weight <= budget;
    ties broken toward the lexicographically smallest sorted id tuple.
    """
    vertices = sorted(problem.vertices)
    if len(vertices) > limit_n:
        raise CapabilityError(f"brute-force BIS limited to n <= {limit_n}, got {len(vertices)}")
    adj = problem.adjacency
    weights = problem.weights
    budget = problem.budget
    best: tuple[Fraction, tuple[int, ...]] = (ZERO, ())

    def consider(current: list[int], weight: Fraction) -> None:
        nonlocal best
        key = (weight, tuple(current))
        if key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = key

    def dfs(idx: int, banned: int, current: list[int], weight: Fraction) -> None:
        consider(current, weight)
        for j in range(idx, len(vertices)):
            v = vertices[j]
            if (banned >> v) & 1:
                continue
            w = weights[v]
            if weight + w > budget:
                continue
            current.append(v)
            dfs(j + 1, banned | adj[v] | (1 << v), current, weight + w)
            current.pop()

    dfs(0, 0, [], ZERO)
    return frozenset(best[1]), best[0]


def maxsize_brute(
    instance: ConflictInstance,
    initial: Packing,
    limit_items: int = 12,
    limit_bins: int = 4,
) -> Fraction:
    """Optimal total size addable to the bins of ``initial``.

    Exhaustive assignment of each unpacked item to one of the bins or to
    none, with feasibility filtering and a remaining-size bound.
    """
    packed = initial.items()
    unpacked = sorted(
        (i for i in instance.items if i not in packed),
        key=lambda i: (-instance.sizes[i], i),
    )
    if len(unpacked) > limit_items:
        raise CapabilityError(f"brute-force limited to <= {limit_items} unpacked items")
    if initial.bin_count > limit_bins:
        raise CapabilityError(f"brute-force limited to <= {limit_bins} bins")
    t = initial.bin_count
    # Fraction sums of ``instance.sizes``, independent of the instance's unit table.
    loads = [sum((instance.sizes[v] for v in b), ZERO) for b in initial.bins]
    blocks = [0] * t
    for b, members in enumerate(initial.bins):
        for v in members:
            blocks[b] |= instance.adjacency[v]
    sizes = [instance.sizes[i] for i in unpacked]
    suffix = [ZERO] * (len(unpacked) + 1)
    for k in range(len(unpacked) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + sizes[k]
    best = ZERO

    def dfs(k: int, added: Fraction) -> None:
        nonlocal best
        if added > best:
            best = added
        if k == len(unpacked) or added + suffix[k] <= best:
            return
        v = unpacked[k]
        s = sizes[k]
        seen = set()
        for b in range(t):
            if loads[b] + s > 1 or (blocks[b] >> v) & 1:
                continue
            key = (loads[b], blocks[b])
            if key in seen:
                continue
            seen.add(key)
            old = blocks[b]
            loads[b] += s
            blocks[b] |= instance.adjacency[v]
            dfs(k + 1, added + s)
            loads[b] -= s
            blocks[b] = old
        dfs(k + 1, added)

    dfs(0, ZERO)
    return best


def brute_mwis_value(instance: ConflictInstance, weights) -> Fraction:
    total = sum(weights.values(), Fraction(0)) + 1
    problem = BisProblem(
        vertices=tuple(instance.items),
        adjacency=instance.adjacency,
        weights=weights,
        budget=total,
        class_info=recognize(instance),
    )
    _, value = bis_brute(problem)
    return value


def brute_opt_bins(instance: ConflictInstance) -> int:
    """Exhaustive optimal bin count via canonical partition enumeration
    (n <= ~8). Independent of the branch-and-bound path."""
    items = sorted(instance.items)
    best = len(items) if items else 0

    def dfs(idx: int, bins: list[list[int]]):
        nonlocal best
        if len(bins) >= best:
            return
        if idx == len(items):
            best = min(best, len(bins))
            return
        v = items[idx]
        for b in bins:
            if sum((instance.sizes[u] for u in b), instance.sizes[v]) <= 1 and all(
                not instance.has_edge(v, u) for u in b
            ):
                b.append(v)
                dfs(idx + 1, bins)
                b.pop()
        bins.append([v])
        dfs(idx + 1, bins)
        bins.pop()

    if items:
        dfs(0, [])
    else:
        best = 0
    return best


def ref_solve_max_lp(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LpResult:
    """The dense rational simplex ``cbp.simplex.solve_max_lp`` replaced: the
    same Bland pivots on a Fraction tableau. The fraction-free solver must
    return an identical ``LpResult`` or raise an identical ``SolverError``."""
    n = len(objective)
    m = len(rows)
    for b in rhs:
        if b < ZERO:
            raise SolverError("rhs must be nonnegative (all-slack start)")
    # Tableau columns: n structural + m slacks + rhs.
    width = n + m + 1
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]] + [ZERO] * m + [Fraction(rhs[i])]
        row[n + i] = Fraction(1)
        tab.append(row)
    # Objective row holds z_j - c_j; starts at -c for structural columns.
    zrow: list[Fraction] = [-Fraction(c) for c in objective] + [ZERO] * (m + 1)
    basis = list(range(n, n + m))

    iterations = 0
    while True:
        enter = -1
        for j in range(n + m):
            if zrow[j] < ZERO:
                enter = j  # Bland: lowest-index improving column
                break
        if enter < 0:
            break
        leave = -1
        best_ratio: Optional[Fraction] = None
        for i in range(m):
            a = tab[i][enter]
            if a > ZERO:
                ratio = tab[i][width - 1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise SolverError("LP is unbounded")
        iterations += 1
        pivot = tab[leave][enter]
        prow = tab[leave]
        inv = Fraction(1) / pivot
        for j in range(width):
            prow[j] *= inv
        for i in range(m):
            if i == leave:
                continue
            factor = tab[i][enter]
            if factor != ZERO:
                row = tab[i]
                for j in range(width):
                    row[j] -= factor * prow[j]
        factor = zrow[enter]
        if factor != ZERO:
            for j in range(width):
                zrow[j] -= factor * prow[j]
        basis[leave] = enter

    x = [ZERO] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = tab[i][width - 1]
    objective_value = sum((Fraction(c) * xv for c, xv in zip(objective, x)), ZERO)
    duals = tuple(zrow[n + i] for i in range(m))
    return LpResult(tuple(x), objective_value, duals, tuple(basis), iterations)


# --- Eager best-of references ---------------------------------------------
# The best-of searches as they were before they stopped at the bin lower
# bound: every candidate computed, the first with the fewest bins kept.
# The library must give identical bins, ``source`` and ``flags``.


def ref_eager_best_bins(items, units, den, adjacency):
    """The better of FFD and (up to the exact threshold) the exact search."""
    items = list(items)
    heuristic = ref_ffd_bins(items, units, den)
    if len(items) > packing_classic.DEFAULT_EXACT_THRESHOLD:
        return heuristic
    exact = oracle._exact_bins(items, units, den, adjacency)
    return exact if len(exact) < len(heuristic) else heuristic


def ref_best_bins(items, units, den, adjacency):
    """``packing_classic._best_bins`` as it was before the L2 gate: the exact
    search runs whenever FFD is above the L1 bound. Verbatim but for the
    full-scan FFD reference in place of ``_ffd_bins``."""
    items = list(items)
    # Units within one bin: FFD puts every item in bin 0, and one bin is optimal.
    if items and sum(units[i] for i in items) <= den:
        return (frozenset(items),)
    heuristic = ref_ffd_bins(items, units, den)
    if len(items) > packing_classic.DEFAULT_EXACT_THRESHOLD:
        return heuristic
    # FFD bins at the lower bound are optimal: no search can beat them.
    if len(heuristic) <= bin_lower_bound((units[i] for i in items), den):
        return heuristic
    exact = oracle._exact_bins(items, units, den, adjacency)
    return exact if len(exact) < len(heuristic) else heuristic


def ref_approx_bpc(instance, info, eps=bpc.PRACTICAL_EPS) -> Packing:
    candidates = [
        bpc.color_sets(instance, info),
        bpc.max_solve(instance, info, eps=eps),
        bpc.matching_pack(instance, info),
    ]
    best = min(candidates, key=lambda p: p.bin_count)
    return Packing(best.bins, "approx_bpc", best.flags + (f"winner:{best.source}",))


def ref_abs_bpb(instance, info) -> Packing:
    candidates = [bpc.color_sets(instance, info).with_source("abs_bpb/color_sets")]
    units, den = instance.unit_table
    if instance.n <= 16:
        bins = oracle._exact_bins(instance.items, units, den, instance.adjacency)
        candidates.append(Packing(bins, "abs_bpb/exact"))
    else:
        try:
            bins = oracle._exact_bins(instance.items, units, den, instance.adjacency, max_bins=3, node_budget=200_000)
            candidates.append(Packing(bins, "abs_bpb/exact-small"))
        except CapabilityError:
            pass
    tiny = classify_items(instance, eps=bpc.AssignConfig().eps).tiny
    for side in info.bipartition:
        candidates.append(ref_assign(instance, sorted(side & tiny), info))
    best = min(candidates, key=lambda p: p.bin_count)
    return Packing(best.bins, "abs_bpb", best.flags + (f"winner:{best.source}",))


# --- Assignment LP references -----------------------------------------------
# The one-sided assignment LP as its own two dataclasses and three public
# functions, and ``assign`` enumerating ``Packing`` objects and rounding
# each through the checked ``round_assignment``. The library must give
# identical bins, ``source`` and ``flags``.


@dataclass(frozen=True)
class AssignmentLp:
    """The one-sided item-to-bin assignment LP.

    Variables x[i, v] exist for bin i and item v eligible for it (the bin
    stays an independent set with v added); rows bound each bin's room, in
    the unit table's units, and each item's total assignment.
    """

    items_w: tuple[int, ...]
    rooms: tuple[int, ...]
    eligible: tuple[frozenset[int], ...]
    variables: tuple[tuple[int, int], ...]  # (bin index, item) per column

    @property
    def bin_count(self) -> int:
        return len(self.rooms)


@dataclass(frozen=True)
class LpSolution:
    values: dict[tuple[int, int], Fraction]
    objective: Fraction
    fractional_items: frozenset[int]


def ref_build_assignment_lp(
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
    maxsize.validate_initial(instance, big_packing)

    states = [instance.bin_state(members) for members in big_packing.bins]
    eligible = tuple(frozenset(v for v in w if not (blocked >> v) & 1) for blocked, _ in states)
    return AssignmentLp(
        w,
        tuple(room for _, room in states),
        eligible,
        tuple((i, v) for i, q in enumerate(eligible) for v in w if v in q),
    )


def ref_solve_assignment_lp(instance: ConflictInstance, lp: AssignmentLp) -> LpSolution:
    """Maximize total assignment; returns an optimal basic feasible solution.

    Basicness matters: it caps the number of fractionally assigned items by
    the number of bins, which the rounding step exploits.
    """
    units = instance.unit_table[0]
    cols = lp.variables
    objective = [1] * len(cols)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i, room in enumerate(lp.rooms):
        rows.append([units[v] if ci == i else 0 for (ci, v) in cols])
        rhs.append(room)
    for v in lp.items_w:
        rows.append([1 if cv == v else 0 for (_, cv) in cols])
        rhs.append(1)
    result = solve_max_lp(objective, rows, rhs)
    values = {col: x for col, x in zip(cols, result.x)}
    fractional = frozenset(
        v for (i, v), x in values.items() if ZERO < x < ONE
    )
    return LpSolution(values, result.objective, fractional)


def ref_round_assignment(
    instance: ConflictInstance, big_packing: Packing, w_items: Iterable[int]
) -> Packing:
    """Keep the x = 1 assignments of a basic optimal solution.

    Dropping the (at most one per bin) fractional items leaves the bin
    count unchanged and keeps at least LP-opt minus bin-count items.
    """
    lp = ref_build_assignment_lp(instance, big_packing, w_items)
    sol = ref_solve_assignment_lp(instance, lp)
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


def ref_enumerate_feasible_packings(instance: ConflictInstance, items: list[int], max_bins: int):
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


def ref_assign(instance, w_items, info, config=None) -> Packing:
    """``assign`` rounding each enumerated ``Packing`` it cannot skip
    through ``ref_round_assignment``, which checks it again."""
    config = config or bpc.AssignConfig()
    if info.bipartition is None:
        raise CapabilityError("bipartite certificate required")
    classes = classify_items(instance, eps=config.eps)
    w = sorted(set(w_items))
    outside = [v for v in w if v not in classes.tiny]
    if outside:
        raise ParameterError(f"assignment items must be tiny at eps={config.eps}: {outside}")
    best = bpc.color_sets(instance, info).with_source("assign")
    if not instance.is_independent(w):
        raise ParameterError("assignment items must be mutually conflict-free (one side)")
    bigs = sorted(classes.big)
    if len(bigs) > config.max_big_items:
        return best.with_flags("enumeration-skipped")
    count = 0
    for big_packing in ref_enumerate_feasible_packings(instance, bigs, config.max_bins):
        count += 1
        if big_packing.bin_count >= best.bin_count:
            continue
        rounded = ref_round_assignment(instance, big_packing, w)
        rest = restrict_instance(instance, set(instance.items) - rounded.items())
        tail = bpc.color_sets(rest, info)
        candidate = Packing(rounded.bins + tail.bins, "assign", rounded.flags)
        if candidate.bin_count < best.bin_count:
            best = candidate
    return best.with_flags(f"enumerated:{count}")


# --- Full-scan first fit reference ------------------------------------------
# ``packing_classic._ffd_bins`` as it was before an item of the units of the
# one before started its scan at that item's bin: every item scans the open
# bins from the first. The library must give identical bins.


def ref_ffd_bins(items, units, den):
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


# --- Integer table knapsack reference ----------------------------------------
# The library's table DP over integer profits and costs, from before the
# knapsack took one size per item as both: the subset-sum must return its
# set when the profits are a multiple of the costs.


def ref_knapsack_exact_int(ids, gains, units, cap) -> frozenset[int]:
    # Integer profits ``gains`` and costs ``units``, aligned with ``ids``.
    # dp[c] = best profit at integer cost <= c; take rebuilds the set.
    dp = [0] * (cap + 1)
    take = [0] * (cap + 1)
    for idx, (c, p) in enumerate(zip(units, gains)):
        if p <= 0:
            continue
        for w in range(cap, c - 1, -1):
            cand = dp[w - c] + p
            if cand > dp[w]:
                dp[w] = cand
                take[w] = take[w - c] | (1 << idx)
    best = take[dp.index(max(dp))]  # the least cost of the best profit
    return frozenset(ids[k] for k in range(len(ids)) if (best >> k) & 1)


# --- Dense scaled knapsack and full subset-sum references --------------------
# ``bis._knapsack_scaled`` as it was before it extended only the entries
# within the cost limit, and ``bis._subset_sum`` as it was before it
# returned a set whose costs all fit without running: every item scans the
# whole profit table, and every subset-sum runs its bitset. The library
# must return the identical set; its scaled DP's profits are the costs.


def ref_knapsack_scaled_int(ids, gains, units, limit, eps) -> frozenset[int]:
    positive = [k for k, g in enumerate(gains) if g > 0]
    if not positive:
        return frozenset()
    num = len(positive) * eps.denominator
    div = eps.numerator * max(gains[k] for k in positive)
    scaled = [gains[k] * num // div for k in positive]
    top = sum(scaled)
    # dp[p] = least cost of scaled profit exactly p; limit + 1 marks none (only <= limit counts).
    dp = [limit + 1] * (top + 1)
    dp[0] = 0
    take: list[int] = [0] * (top + 1)
    for idx, (sp, k) in enumerate(zip(scaled, positive)):
        c = units[k]
        for p in range(top, sp - 1, -1):
            cand = dp[p - sp] + c
            if cand < dp[p]:
                dp[p] = cand
                take[p] = take[p - sp] | (1 << idx)
    best_p = max((p for p in range(top + 1) if dp[p] <= limit), default=0)
    return frozenset(ids[positive[j]] for j in range(len(positive)) if (take[best_p] >> j) & 1)


def ref_subset_sum(ids, units, cap) -> frozenset[int]:
    full = (1 << (cap + 1)) - 1
    reach = 1
    history = []
    for c in units:
        reach |= (reach << c) & full
        history.append(reach)
    x = reach.bit_length() - 1
    chosen = []
    while x:
        k = bisect_left(history, 1, key=lambda r: (r >> x) & 1)
        chosen.append(ids[k])
        x -= units[k]
    return frozenset(chosen)


# --- List-residual PTAS reference -------------------------------------------
# ``bis._ptas`` as it was before it kept the light residual as a mask: each
# guessed set F rebuilds the residual by scanning the eligible items, and
# the guesses come from the recursive generator ``bis._independent_subsets``
# that the library has since replaced with an explicit-stack search. The
# library must return the identical set.


def ref_independent_subsets(order, adj, weights, budget, max_size):
    """DFS over independent vertex subsets with bounded size and weight.

    Yields (member list, weight, banned); members ascend in ``order``, and
    ``banned`` is the mask of the members and their neighbours. The empty
    set comes first.
    """
    current: list[int] = []

    def dfs(idx: int, banned: int, weight: int):
        yield list(current), weight, banned
        if len(current) >= max_size:
            return
        for j in range(idx, len(order)):
            v = order[j]
            if (banned >> v) & 1:
                continue
            w = weights[v]
            if weight + w > budget:
                continue
            current.append(v)
            yield from dfs(j + 1, banned | adj[v] | (1 << v), weight + w)
            current.pop()

    yield from dfs(0, 0, 0)


def ref_ptas(vertices, adj, info, weights, budget, eps) -> frozenset[int]:
    cap = -(-eps.denominator // eps.numerator)  # ceil(1 / eps)
    eligible = [v for v in sorted(vertices) if weights[v] <= budget]
    if not eligible:
        return frozenset()
    light_cut = eps.numerator * budget // eps.denominator
    reachable = min(budget, sum(weights[v] for v in eligible))
    best: frozenset[int] = frozenset()
    best_w = 0
    for members, w_f, _banned in ref_independent_subsets(eligible, adj, weights, budget, cap):
        f_mask = 0
        for v in members:
            f_mask |= 1 << v
        residual = [
            v
            for v in eligible
            if not (f_mask >> v) & 1 and weights[v] <= light_cut and not (adj[v] & f_mask)
        ]
        if residual:
            sub_mask = 0
            for v in residual:
                sub_mask |= 1 << v
            chosen = graphs._mwis_core(residual, adj, sub_mask, info, weights)
        else:
            chosen = frozenset()
        picked = set(chosen)
        total = w_f + sum(weights[v] for v in picked)
        while total > budget:
            z = min(picked, key=lambda v: (weights[v], v))
            picked.discard(z)
            total -= weights[z]
        if total > best_w:
            best = frozenset(members) | frozenset(picked)
            best_w = total
            if best_w >= reachable:
                break
    return best


# --- List-taking split scheme reference -------------------------------------
# ``bis._fptas_split`` as it was before it took the pool as a mask with its
# ``fits``: it sorts the vertex list into the two sides and offers each
# clique vertex all of its stable non-neighbours, with no stop at a full
# budget. Each knapsack is handed the mask of the offered ids that fit its
# room, as ``bis._knapsack`` takes them. The library must return the
# identical set.


def ref_fptas_split(vertices, adj, info, weights, budget, den, eps) -> frozenset[int]:
    if info.split_partition is None:
        raise CapabilityError("split certificate required for the split-graph scheme")
    clique, stable = info.split_partition
    vset = frozenset(vertices)
    clique = sorted(clique & vset)
    stable = sorted(stable & vset)
    best: frozenset[int] = frozenset()
    best_w = 0
    for v in clique:
        wv = weights[v]
        if wv > budget:
            continue
        offered = [u for u in stable if not (adj[v] >> u) & 1]
        chosen = _ref_knapsack(offered, weights, budget - wv, den, eps)
        total = wv + sum(weights[u] for u in chosen)
        if total > best_w:
            best = frozenset({v}) | chosen
            best_w = total
    chosen = _ref_knapsack(stable, weights, budget, den, eps)
    if sum(weights[u] for u in chosen) > best_w:
        best = chosen
    return best


def _ref_knapsack(ids, weights, limit, den, eps) -> frozenset[int]:
    # ``bis._knapsack`` on the ``ids`` that fit ``limit``, decoded.
    cand = sum(1 << i for i in ids if weights[i] <= limit)
    return core_set(bis._knapsack(cand, weights, limit, den, eps), weights)


# --- List-pool growth, split_approx and edge-list matching references ---------
# ``maxsize.greedy_growth``, ``bpc.split_approx`` and
# ``graphs.maximum_matching_general`` as they were before growth kept its
# pool as a bitmask and handed it to the single-bin cores, ``split_approx``
# skipped the FFD tails that cannot win, and matching read neighbour masks.
# The library must give identical bins, pools and matchings.


def ref_greedy_growth(instance, initial, class_info, eps):
    """Yields ``(bins, pool)`` with ``pool`` an ascending list of ids."""
    eps = bis._check_eps(eps)
    units, den = instance.unit_table
    packed = initial.items()
    pool = [i for i in instance.items if i not in packed]
    new_bins: list[frozenset[int]] = []
    yield new_bins, pool
    for bin_items in initial.bins:
        if pool:
            blocked, room = instance.bin_state(bin_items)
            eligible = [v for v in pool if not (blocked >> v) & 1]
            if room > 0 and eligible:
                if class_info.split_partition is not None:
                    chosen = ref_fptas_split(eligible, instance.adjacency, class_info, units, room, den, eps)
                else:
                    chosen = ref_ptas(eligible, instance.adjacency, class_info, units, room, eps)
                bin_items = bin_items | chosen
                pool = [v for v in pool if v not in chosen]
            # The solvers drop items of size 0: the bin takes each one left
            # in the pool with no edge into it, in id order.
            blocked = instance.bin_state(bin_items)[0]
            for v in [v for v in pool if units[v] == 0]:
                if not (blocked >> v) & 1:
                    bin_items = bin_items | {v}
                    blocked |= instance.adjacency[v]
                    pool.remove(v)
        new_bins.append(bin_items)
        yield new_bins, pool


def ref_split_approx(instance, info, eps=Fraction(1, 10)) -> Packing:
    """Every guess's FFD tail computed, over the list-pool growth."""
    bis._check_eps(eps)
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
    alpha_top = -(-2 * total // den) + 1
    start = Packing(singles + (frozenset(),) * alpha_top, "split_approx")
    best = None
    for bins, pool in itertools.islice(ref_greedy_growth(instance, start, info, eps), len(singles), None):
        if best is not None and len(bins) >= best.bin_count:
            break
        tail = ref_ffd_bins(pool, units, den)
        if best is None or len(bins) + len(tail) < best.bin_count:
            best = Packing(tuple(bins) + tail, "split_approx")
    return best


def ref_maximum_matching_general(vertices, edges):
    """Sorted pairs, a greedy pass over them in order, then the blossom
    searches of ``graphs._augment`` on the neighbour lists they give."""
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
            graphs._augment(root, nbrs, mate, dead)
    return frozenset((ids[a], ids[b]) for a, b in enumerate(mate) if a < b)


def ref_maximum_matching_masks(adjacency):
    """``graphs.maximum_matching_masks`` as it was before its greedy start
    read the masks and its searches decoded rows on first read: every
    neighbour row is built up front, and the greedy start walks them."""
    ids = sorted(adjacency)
    index = {v: i for i, v in enumerate(ids)}
    nbrs = [[index[w] for w in _mask_to_ids(adjacency[v] & ~(1 << v))] for v in ids]
    mate = [-1] * len(ids)
    for a, row in enumerate(nbrs):
        if mate[a] < 0:
            for b in row:
                if b > a and mate[b] < 0:
                    mate[a], mate[b] = b, a
                    break
    dead = [False] * len(ids)
    for root in range(len(ids)):
        if mate[root] < 0 and nbrs[root]:
            graphs._augment(root, nbrs, mate, dead)
    return frozenset((ids[a], ids[b]) for a, b in enumerate(mate) if a < b)


# --- Config-LP max_size references -------------------------------------------
# ``maxsize.max_size``, ``solve_config_lp`` and ``round_config_lp`` as they
# were before max_size read the growth itself, the seeding loop became the
# first pricing round and the objective came from the last LP. The library
# must return equal results in every field.


def ref_max_size(instance, initial, class_info, eps=Fraction(1, 6), strategy="greedy-sequential", config=None):
    if strategy not in maxsize.STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}; choose from {maxsize.STRATEGIES}")
    eps = bis._check_eps(eps)
    config = config or maxsize.MaxSizeConfig()
    if strategy == "greedy-sequential":
        maxsize.validate_initial(instance, initial)
        return _ref_greedy_sequential(instance, initial, class_info, eps)
    solution = ref_solve_config_lp(instance, initial, config)
    if not solution.converged:
        result = _ref_greedy_sequential(instance, initial, class_info, eps)
        augmented = result.augmented.with_flags("config-lp-cap-fallback")
        return maxsize.MaxSizeResult(augmented, result.added_items, result.added_size, result.strategy, result.guarantee)
    return ref_round_config_lp(solution, config.seed)


def _ref_greedy_sequential(instance, initial, class_info, eps):
    for added, _pool, _left in maxsize.greedy_growth(instance, initial, class_info, eps):
        pass
    bins = (b | frozenset(_mask_to_ids(a)) for b, a in zip(initial.bins, added))
    augmented = Packing(tuple(bins), "max_size/greedy-sequential", initial.flags)
    added = augmented.items() - initial.items()
    ratio = float(1 - eps)
    return maxsize.MaxSizeResult(augmented, added, instance.size_of(added), "greedy-sequential", ratio / (1.0 + ratio))


def ref_solve_config_lp(instance, initial, config=None):
    config = config or maxsize.MaxSizeConfig()
    maxsize.validate_initial(instance, initial)
    packed = initial.items()
    pool = sorted(i for i in instance.items if i not in packed)
    t = initial.bin_count
    if not pool or t == 0:
        return maxsize.ConfigLpSolution(instance, initial, tuple(() for _ in range(t)), ZERO, True, 0)
    item_row = {v: t + k for k, v in enumerate(pool)}
    bin_eligible: list[list[int]] = []
    bin_room: list[int] = []
    for bin_items in initial.bins:
        blocked, room = instance.bin_state(bin_items)
        bin_eligible.append([v for v in pool if not (blocked >> v) & 1])
        bin_room.append(room)
    if max((len(e) for e in bin_eligible), default=0) > config.pricing_limit:
        return maxsize.ConfigLpSolution(instance, initial, tuple(() for _ in range(t)), ZERO, False, 0)

    columns: list[tuple[int, frozenset[int]]] = []
    seen_columns: set[tuple[int, frozenset[int]]] = set()
    for j in range(t):
        if not bin_eligible[j] or bin_room[j] <= 0:
            continue
        _, greedy_set = maxsize._price_column(
            instance, bin_eligible[j], bin_room[j], {v: instance.sizes[v] for v in bin_eligible[j]}
        )
        if greedy_set:
            columns.append((j, greedy_set))
            seen_columns.add((j, greedy_set))

    cap = maxsize.ITERATION_CAP_FACTOR * (t + len(pool))
    iterations = 0
    converged = False
    values: tuple[Fraction, ...] = ()
    while True:
        iterations += 1
        if iterations > cap:
            break
        objective = [instance.size_of(cfg) for (_, cfg) in columns]
        rows = []
        rhs = []
        for j in range(t):
            rows.append([1 if cj == j else 0 for (cj, _) in columns])
            rhs.append(1)
        for v in pool:
            rows.append([1 if v in cfg else 0 for (_, cfg) in columns])
            rhs.append(1)
        result = solve_max_lp(objective, rows, rhs)
        values = result.x
        mu = result.duals[:t]
        lam = {v: result.duals[item_row[v]] for v in pool}
        improved = False
        for j in range(t):
            if not bin_eligible[j] or bin_room[j] <= 0:
                continue
            profits = {v: instance.sizes[v] - lam[v] for v in bin_eligible[j]}
            profit, cfg = maxsize._price_column(instance, bin_eligible[j], bin_room[j], profits)
            if cfg and profit - mu[j] > ZERO and (j, cfg) not in seen_columns:
                columns.append((j, cfg))
                seen_columns.add((j, cfg))
                improved = True
        if not improved:
            converged = True
            break

    per_bin: list[list[tuple[frozenset[int], Fraction]]] = [[] for _ in range(t)]
    for (j, cfg), y in zip(columns, values):
        if y > ZERO:
            per_bin[j].append((cfg, y))
    objective_value = sum((instance.size_of(cfg) * y for cols in per_bin for (cfg, y) in cols), ZERO)
    return maxsize.ConfigLpSolution(
        instance, initial, tuple(tuple(cols) for cols in per_bin), objective_value, converged, iterations
    )


def ref_round_config_lp(solution, seed):
    instance = solution.instance
    initial = solution.initial
    rng = SplitMix64(seed)
    chosen_sets: list[frozenset[int]] = []
    for cols in solution.columns:
        r = Fraction(rng.next_u64(), 1 << 64)
        acc = ZERO
        picked: frozenset[int] = frozenset()
        for cfg, y in cols:
            acc += y
            if r < acc:
                picked = cfg
                break
        chosen_sets.append(picked)

    new_bins: list[set[int]] = [set(b) for b in initial.bins]
    added: set[int] = set()
    for j, cfg in enumerate(chosen_sets):
        for v in sorted(cfg):
            if v not in added:
                new_bins[j].add(v)
                added.add(v)

    units = instance.unit_table[0]
    states = [instance.bin_state(b) for b in new_bins]
    packed = initial.items() | added
    for v in sorted(i for i in instance.items if i not in packed):
        for j, (blocked, room) in enumerate(states):
            if units[v] <= room and not (blocked >> v) & 1:
                new_bins[j].add(v)
                states[j] = (blocked | instance.adjacency[v], room - units[v])
                added.add(v)
                break

    augmented = Packing(tuple(frozenset(b) for b in new_bins), "max_size/config-lp", initial.flags)
    return maxsize.MaxSizeResult(
        augmented, frozenset(added), instance.size_of(added), "config-lp", 1.0 - 1.0 / math.e
    )


def ref_draw(size_dist, rng: SplitMix64) -> Fraction:
    """``SizeDist.draw`` as it was before the values were parsed once and
    uniform draws were rounded on integers: a uniform draw is the float
    rounded by ``round(x, 9)``, read as its shortest decimal, and a
    discrete draw parses the chosen value."""
    if size_dist.kind == "grid20":
        return Fraction(1 + rng.below(20), 20)
    if size_dist.kind == "uniform":
        x = size_dist.lo + (size_dist.hi - size_dist.lo) * rng.unit()
        x = min(max(x, 0.0), 1.0)
        return Fraction(repr(round(x, 9)))
    values = size_dist.values
    return as_size(values[rng.below(len(values))])


def ref_generate(spec: GeneratorSpec) -> ConflictInstance:
    """The edge-list generator: each edge is listed in the per-class draw
    order, then the instance is built by the public constructor. Sizes come
    from ``ref_draw``."""
    if spec.klass == "b3dm-reduction":
        return ref_generate_b3dm(spec)[0]
    rng = SplitMix64(spec.seed)
    sizes = [ref_draw(spec.size_dist, rng) for _ in range(spec.n)]
    n = spec.n
    edges: list[tuple[int, int]] = []
    if spec.klass == "edgeless":
        pass
    elif spec.klass == "bipartite":
        side = [rng.below(2) for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if side[u] != side[v] and rng.chance(spec.density):
                    edges.append((u, v))
    elif spec.klass == "split":
        in_clique = [rng.chance(min(0.5, spec.density)) for _ in range(n)]
        clique = [v for v in range(n) if in_clique[v]]
        stable = [v for v in range(n) if not in_clique[v]]
        for a in range(len(clique)):
            for b in range(a + 1, len(clique)):
                edges.append((clique[a], clique[b]))
        for u in clique:
            for v in stable:
                if rng.chance(spec.density):
                    edges.append((min(u, v), max(u, v)))
    elif spec.klass in ("cluster", "complete-multipartite"):
        groups = max(1, int(round(n * (1.0 - spec.density)))) if n else 1
        member = [rng.below(groups) for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if (member[u] == member[v]) == (spec.klass == "cluster"):
                    edges.append((u, v))
    else:  # chordal
        span = max(2 * n, 1)
        max_len = max(1, int(spec.density * span))
        intervals = []
        for _ in range(n):
            a = rng.below(span)
            b = a + 1 + rng.below(max_len)
            intervals.append((a, b))
        for u in range(n):
            for v in range(u + 1, n):
                au, bu = intervals[u]
                av, bv = intervals[v]
                if au <= bv and av <= bu:
                    edges.append((u, v))
    instance = ConflictInstance(sizes, edges, class_hint=spec.klass)
    harness._verify_declared_class(instance, spec.klass)
    return instance


def ref_generate_b3dm(spec: GeneratorSpec) -> tuple[ConflictInstance, Packing]:
    """The edge-list b3dm construction, built by the public constructor."""
    x, y, z, t, i = spec.x_count, spec.y_count, spec.z_count, spec.t_count, spec.guess
    rng = SplitMix64(spec.seed)
    x_ids = list(range(x))
    y_ids = list(range(x, x + y))
    z_ids = list(range(x + y, x + y + z))
    t_base = x + y + z
    t_ids = list(range(t_base, t_base + t))
    p_ids = list(range(t_base + t, t_base + t + (t - i)))
    q_base = t_base + t + (t - i)
    q_ids = list(range(q_base, q_base + (x + y + z - 3 * i)))

    elements = x_ids + y_ids + z_ids
    triples: list[tuple[int, int, int]] = []
    degree = dict.fromkeys(elements, 0)
    for k in range(i):
        tri = (x_ids[k], y_ids[k], z_ids[k])
        triples.append(tri)
        for u in tri:
            degree[u] += 1
    seen = set(triples)
    attempts = 0
    while len(triples) < t:
        attempts += 1
        if attempts > 200 * (t + 1):
            raise ParameterError("cannot satisfy the per-element degree cap; lower t or raise the cap")
        tri = (
            x_ids[rng.below(x)] if x else -1,
            y_ids[rng.below(y)] if y else -1,
            z_ids[rng.below(z)] if z else -1,
        )
        if -1 in tri or tri in seen:
            continue
        if any(degree[u] >= spec.degree_cap for u in tri):
            continue
        triples.append(tri)
        seen.add(tri)
        for u in tri:
            degree[u] += 1

    sizes: dict[int, Fraction] = {}
    labels: dict[int, str] = {}
    for ids, role, tag in (
        (x_ids, "element", "x"),
        (y_ids, "element", "y"),
        (z_ids, "element", "z"),
        (t_ids, "triple", "t"),
        (p_ids, "p_filler", "p"),
        (q_ids, "q_filler", "q"),
    ):
        for k, item in enumerate(ids):
            sizes[item] = harness.B3DM_SIZES[role]
            labels[item] = f"{tag}{k}"

    edges = [(u, t_item) for t_item, triple in zip(t_ids, triples) for u in elements if u not in triple]
    if spec.variant == "BPS":
        edges += itertools.combinations(t_ids, 2)

    instance = ConflictInstance(sizes, edges, class_hint=spec.variant.lower(), labels=labels)
    harness._verify_declared_class(instance, "bipartite" if spec.variant == "BPB" else "split")

    planted_bins: list[frozenset[int]] = []
    for k in range(i):
        tx, ty, tz = triples[k]
        planted_bins.append(frozenset({tx, ty, tz, t_ids[k]}))
    leftover_triples = [t_ids[k] for k in range(i, t)]
    for t_item, p_item in zip(leftover_triples, p_ids):
        planted_bins.append(frozenset({t_item, p_item}))
    leftover_elements = x_ids[i:] + y_ids[i:] + z_ids[i:]
    for u, q_item in zip(leftover_elements, q_ids):
        planted_bins.append(frozenset({u, q_item}))
    return instance, Packing(tuple(planted_bins), "b3dm-planted")
