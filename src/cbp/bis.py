"""Budgeted independent-set solvers and shared knapsack machinery.

The budgeted problem: maximize w(S) over independent sets S with
w(S) <= budget. Two schemes are provided — an enumeration-plus-exact-MWIS
scheme for any class with exact weighted independent sets (bipartite,
split, chordal, cluster, complete multipartite, edgeless), and a faster
scheme for split graphs built on a knapsack FPTAS. Each knapsack in that
scheme maximizes the size it packs within a residual budget: an item's
size is both its profit and its cost. Both schemes and both knapsack DPs
run on integer sizes over a common denominator. Weights, budgets and eps
at the public interface (``BisProblem``, ``knapsack_fptas``) are read by
``model.as_size`` and converted once per call with ``model.size_units``;
``maxsize.greedy_growth`` calls the same integer cores with its
instance's unit table, so no single-bin subproblem converts sizes again.

Both cores take their vertices as one bitmask of the items within budget,
with the ``fits(c)`` prefix masks (``model.fits_within``) of the items of
weight at most c. The enumeration scheme searches its guessed sets
depth-first on masks: a guess's extensions are the lowest bits of its
untried candidates that are not its neighbours and fit the budget left,
``cand & ~banned & fits(budget - w_F)``, and only each guess's light
residual is decoded, for the exact weighted independent set. The split
scheme offers each clique vertex v ``stable & ~adj[v] & fits(budget -
w_v)``. Every core returns its choice as a mask with its weight, decoded
only by the public functions. Both schemes stop once their incumbent
fills the budget: no set weighs more, and only a strictly heavier one
replaces the incumbent, so
the result is unchanged. For the same reason the enumeration stops once
its incumbent holds every eligible vertex of positive weight, and the
split scheme skips a clique vertex whose weight plus all it is offered
is at most the incumbent's.

Sizes are never negative (``knapsack_fptas`` rejects one), so in the
profit-scaling DP an entry whose least cost is within the budget comes
only from another such entry: each item extends only these live entries
rather than the whole profit table, and the result is that of the full
scan.

Since profit equals cost, the exact DP is a subset-sum: reachable sums are
the bits of one integer, extended per item by ``reach |= (reach << c) &
full``, and the history of that integer rebuilds the DP's own set. In the
DP an exactly reached sum never improves again, so its set for the best
sum x is the first item k whose step reaches x plus its set for x - c_k;
the history grows monotonically, and bisection over it finds that k.

A DP whose kept sizes sum to at most the budget returns its set without
running: the subset-sum every item of positive size, the profit-scaling
DP every item whose profit scales above 0; with one candidate neither
runs, as both take it exactly when its size is positive.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import CapabilityError, ParameterError
from .graphs import GraphClassInfo, _mwis_core
from .model import SizeLike, _ids_mask, _mask_to_ids, as_size, fits_within, size_units

DEFAULT_ENUM_CAP = 6
EXACT_DP_DENOM_LIMIT = 4096
EXACT_DP_CELL_LIMIT = 400_000
# The profit-scaling DP's table holds about n^2 / eps cells; a larger one
# is a ParameterError naming eps, raised before the table is built.
SCALED_DP_CELL_LIMIT = 10**7


@dataclass(frozen=True)
class BisProblem:
    """Graph + weights + budget, with class certificates for dispatch.

    ``adjacency`` maps each vertex to a neighbour bitmask; only the bits
    of ``vertices`` are read, so an instance's masks serve any induced
    subproblem as they are. ``class_info`` may certify a supergraph: the
    solvers intersect every certificate with their own vertex set.
    """

    vertices: tuple[int, ...]
    adjacency: Mapping[int, int]
    weights: Mapping[int, SizeLike]
    budget: SizeLike
    class_info: GraphClassInfo

    def __post_init__(self):
        for v in self.vertices:
            if as_size(self.weights[v]) < 0:
                raise ParameterError(f"negative weight on vertex {v}")
        budget = as_size(self.budget)
        if budget < 0:
            raise ParameterError(f"negative budget {budget}")


def _check_eps(eps) -> Fraction:
    # A float means its shortest decimal, as everywhere sizes are read.
    try:
        eps = as_size(eps)
    except ParameterError as exc:
        raise ParameterError(f"eps must be a number in (0, 1), got {eps!r}") from exc
    if not 0 < eps.numerator < eps.denominator:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    return eps


def _enum_cap(eps: Fraction) -> int:
    # ceil(1/eps), the largest set the enumeration scheme guesses, for a
    # checked ``eps``; above DEFAULT_ENUM_CAP it is a ParameterError.
    cap = -(-eps.denominator // eps.numerator)
    if cap > DEFAULT_ENUM_CAP:
        raise ParameterError(
            f"enumeration bound ceil(1/eps) = {cap} exceeds cap {DEFAULT_ENUM_CAP}; "
            "use a larger eps"
        )
    return cap


def knapsack_fptas(
    items: Iterable[int],
    sizes: Mapping[int, SizeLike],
    budget: SizeLike,
    eps,
) -> frozenset[int]:
    """Set of total size <= budget and >= (1 - eps) * the largest such.

    Each item's size is both its profit and its cost. When the sizes share
    a small common denominator the exact subset-sum over integer sizes runs
    instead (optimal); otherwise a profit-scaling dynamic program gives the
    usual FPTAS guarantee. A negative size raises ``ParameterError``. The
    core's mask of positions in the sorted ``items`` is decoded here.
    """
    eps = _check_eps(eps)
    ids = sorted(items)
    units, limit, den = _units(ids, sizes, budget, "size on item")
    cand = sum(1 << k for k, u in enumerate(units) if u <= limit)
    return frozenset(ids[k] for k in _mask_to_ids(_knapsack(cand, units, limit, den, eps)[0]))


def _units(ids, values, budget, noun) -> tuple[list[int], int, int]:
    # The ``values`` of ``ids`` (aligned) and the budget in units over one ``den``.
    units, den = size_units([*(as_size(values[i]) for i in ids), as_size(budget)])
    limit = units.pop()
    for i, u in zip(ids, units):
        if u < 0:
            raise ParameterError(f"negative {noun} {i}")
    return units, limit, den


def _knapsack(cand, units, limit, den, eps) -> tuple[int, int]:
    # ``knapsack_fptas`` on ints over any common multiple ``den`` of their
    # denominators: the chosen mask among the candidates ``cand`` (each
    # within ``limit``, ``units`` read by bit) and its units, left for the
    # API boundary to decode. Their reduced lcm is den / gcd(den, their
    # units), so the exact-DP test is that of the Fractions.
    if not cand & (cand - 1):  # both DPs take a lone item exactly when its size is positive
        u = cand and units[cand.bit_length() - 1]
        return (cand, u) if u else (0, 0)
    ids = _mask_to_ids(cand)
    step = math.gcd(den, *(units[i] for i in ids))
    if den // step <= EXACT_DP_DENOM_LIMIT:
        cap = limit // step
        if (cap + 1) * len(ids) <= EXACT_DP_CELL_LIMIT:
            chosen, total = _subset_sum(ids, [units[i] // step for i in ids], cap)
            return chosen, total * step
    return _knapsack_scaled(ids, [units[i] for i in ids], limit, eps)


def _subset_sum(ids, units, cap) -> tuple[int, int]:
    # The exact DP's set (a mask of the bits ``ids``) and sum over integer
    # sizes ``units`` (see the module docstring). Bit x of ``history[k]`` says
    # items 0..k reach the sum x exactly; the answer is the largest reachable sum.
    total = sum(units)
    if total <= cap:
        # Every item fits: the DP's best sum takes each item of positive size.
        return sum(1 << i for i, c in zip(ids, units) if c), total
    full = (1 << (cap + 1)) - 1
    reach = 1
    history = []
    for c in units:
        reach |= (reach << c) & full
        history.append(reach)
    x = total = reach.bit_length() - 1
    chosen = 0
    while x:
        k = bisect_left(history, 1, key=lambda r: (r >> x) & 1)
        chosen |= 1 << ids[k]
        x -= units[k]
    return chosen, total


def _knapsack_scaled(ids, units, limit, eps) -> tuple[int, int]:
    # Integer sizes, aligned with the bits ``ids``, are profits and costs alike;
    # each positive size u scales to the profit floor(u / (eps * u_max / n)).
    positive = [k for k, u in enumerate(units) if u > 0]
    if not positive:
        return 0, 0
    num = len(positive) * eps.denominator
    div = eps.numerator * max(units[k] for k in positive)
    scaled = [units[k] * num // div for k in positive]
    kept = [(sp, k) for sp, k in zip(scaled, positive) if sp]
    total = sum(units[k] for _, k in kept)
    if total <= limit:
        # Every item the DP reads fits: its best profit takes them all.
        return sum(1 << ids[k] for _, k in kept), total
    top = sum(scaled)
    if top >= SCALED_DP_CELL_LIMIT:
        raise ParameterError(f"eps = {eps} needs {top + 1} knapsack table cells, over the cap {SCALED_DP_CELL_LIMIT}")
    # dp[p] = least cost of scaled profit exactly p; limit + 1 marks none.
    # Only the live entries (ascending in ``live``) have dp[p] <= limit.
    # Costs are >= 0, so a live entry only comes from a live one: each
    # item extends the live entries alone, descending so that it reads
    # every source before a write can reach it. Every live dp[p] and
    # take[p] (a mask) is then that of the full table scan; an item whose
    # profit scales to 0 never improves an entry, so only the kept ones run.
    dp = [limit + 1] * (top + 1)
    dp[0] = 0
    take: list[int] = [0] * (top + 1)
    live = [0]
    for sp, k in kept:
        c = units[k]
        room = limit - c
        bit = 1 << ids[k]
        born = []
        for p in reversed(live):
            cost = dp[p]
            if cost > room:
                continue
            q = p + sp
            cost += c
            if cost < dp[q]:
                if dp[q] > limit:
                    born.append(q)
                dp[q] = cost
                take[q] = take[p] | bit
        if born:
            live += born
            live.sort()
    return take[live[-1]], dp[live[-1]]


def _solve(core, problem: BisProblem, eps, info) -> frozenset[int]:
    # ``core`` (``_ptas`` or ``_fptas_split``) on the problem's weights and
    # budget in integer units over ``den``, with ``eps`` checked: it is
    # handed the mask of the vertices within budget and their ``fits``; its
    # chosen mask is decoded here.
    eps = _check_eps(eps)
    weights, budget, den = _units(problem.vertices, problem.weights, problem.budget, "weight on vertex")
    weights = dict(zip(problem.vertices, weights))
    fits = fits_within(problem.vertices, weights)
    chosen, _ = core(fits(budget), fits, problem.adjacency, info, weights, budget, den, eps)
    return frozenset(_mask_to_ids(chosen))


def bis_ptas(problem: BisProblem, eps) -> frozenset[int]:
    """Enumeration scheme: value >= (1 - eps) * optimum.

    Guesses every independent set F of at most ceil(1/eps) vertices within
    budget, extends it with an exact max-weight independent set over the
    light (weight <= eps * budget) vertices not adjacent to F, and evicts
    light vertices while over budget. Requires a class certificate with an
    exact weighted-independent-set algorithm. ceil(1/eps) may not exceed
    ``DEFAULT_ENUM_CAP``.
    """
    return _solve(_ptas, problem, eps, problem.class_info)


def _ptas(eligible, fits, adj, info, weights, budget, den, eps) -> tuple[int, int]:
    # ``bis_ptas`` on integer weights and budget over ``den``; ``eps`` is
    # checked. ``eligible`` masks the vertices of weight at most ``budget``
    # and ``fits(c)`` those of weight at most c. Returns a mask and weight.
    cap = _enum_cap(eps)
    if not eligible:
        return 0, 0
    # Adjacency is symmetric, so the light vertices outside F and not
    # adjacent to F are those of ``light`` that F's ``banned`` misses.
    light = eligible & fits(eps.numerator * budget // eps.denominator)
    # The best set so far as a mask and its weight; ``positive`` masks the
    # eligible vertices of positive weight, on the first improvement that
    # stays below the budget.
    best = best_w = 0
    positive = None
    # Depth-first over the guessed sets F, each visited before its
    # extensions: ``members`` and ``banned`` (F and its neighbours) as
    # masks, ``w_f`` its weight, ``cand`` the eligible vertices above F's
    # last member not yet tried at F's parent. F's extensions add one
    # vertex of ``cand & ~banned & fits(budget - w_f)``, lowest first; each
    # stack frame holds a set's untried extensions.
    members = banned = w_f = 0
    cand = eligible
    stack = []
    while True:
        sub_mask = light & ~banned
        total = w_f
        picked = ()
        if sub_mask:
            picked = _mwis_core(_mask_to_ids(sub_mask), adj, sub_mask, info, weights)
            total += sum(weights[v] for v in picked)
            if total > budget:
                picked = set(picked)
                while total > budget:
                    z = min(picked, key=lambda v: (weights[v], v))
                    picked.discard(z)
                    total -= weights[z]
        if total > best_w:
            best = members | _ids_mask(picked)
            best_w = total
            # No set weighs more than the budget or than all eligible
            # vertices, and only a heavier one wins.
            if best_w == budget:
                break
            if positive is None:
                positive = eligible & ~fits(0)
            if not positive & ~best:
                break
        if len(stack) < cap:
            stack.append([cand & ~banned & fits(budget - w_f), members, banned, w_f])
        while stack and not stack[-1][0]:
            stack.pop()
        if not stack:
            break
        frame = stack[-1]
        low = frame[0] & -frame[0]
        cand = frame[0] = frame[0] ^ low
        v = low.bit_length() - 1
        members = frame[1] | low
        banned = frame[2] | adj[v] | low
        w_f = frame[3] + weights[v]
    return best, best_w


def bis_fptas_split(problem: BisProblem, eps) -> frozenset[int]:
    """Split-graph scheme: value >= (1 - eps) * optimum.

    At most one clique vertex can be in any solution, so try each clique
    vertex (knapsack over the non-neighbors in the independent side with
    the residual budget) plus the no-clique-vertex case.
    """
    parts = problem.class_info.split_partition
    return _solve(_fptas_split, problem, eps, parts and _split_masks(parts))


def _split_masks(parts) -> tuple[int, int]:
    """The clique and stable sides of a split partition, as bitmasks."""
    return _ids_mask(parts[0]), _ids_mask(parts[1])


def _fptas_split(eligible, fits, adj, parts, weights, budget, den, eps) -> tuple[int, int]:
    # ``bis_fptas_split`` on integer weights and budget over ``den``; ``eps``
    # is checked. ``eligible`` and ``fits`` are as in ``_ptas``; ``parts``
    # holds the ``_split_masks`` of a split certificate, or is None.
    if parts is None:
        raise CapabilityError("split certificate required for the split-graph scheme")
    stable = parts[1] & eligible
    clique = parts[0] & eligible
    # Each knapsack maximizes the units it packs within the residual budget.
    best = best_w = 0
    while clique:
        low = clique & -clique
        clique ^= low
        v = low.bit_length() - 1
        wv = weights[v]
        offered = stable & ~adj[v] & fits(budget - wv)
        # v and all it is offered (summed on the bits) cannot beat the incumbent, only tie it.
        total, rest = wv, offered
        while rest:
            total += weights[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        if total <= best_w:
            continue
        chosen, total = _knapsack(offered, weights, budget - wv, den, eps)
        if wv + total > best_w:
            best, best_w = chosen | low, wv + total
            # No set weighs more than the budget, and only a heavier one wins.
            if best_w == budget:
                return best, best_w
    chosen, total = _knapsack(stable, weights, budget, den, eps)
    return (chosen, total) if total > best_w else (best, best_w)
