"""Grow a partial packing by unpacked items of maximum total size.

Two strategies:

* greedy-sequential — walk the bins in order, solve the single-bin
  budgeted-independent-set subproblem over the remaining items, commit.
  With a (1-eps)-approximate single-bin solver the added size is at least
  a (1-eps)/(2-eps) fraction of the optimum. :func:`greedy_growth` keeps
  the remaining items as one bitmask and yields it with each bin's gain
  as a mask; a bin is offered ``pool & ~blocked & fits(room)``, the
  items with no edge into it that fit its room, found by bisection over
  prefix masks of the items sorted by size (``model.fits_within``). Both
  single-bin solvers drop larger items first, so this choice is theirs on
  the whole pool; their integer cores take that mask and ``fits`` as they
  are, and the split certificate as two masks built once per growth. The
  solvers drop items of size 0 too, so after the solver's pick a bin
  takes every size-0 pool item with no edge into it.
* config-lp — a configuration LP over feasible sets per bin, priced by an
  exact budgeted-set search and solved by column generation, then
  randomized rounding with first-bin deduplication and a deterministic
  fill-up pass. Expected added size is at least (1 - 1/e) of the LP
  optimum. The first columns are the zero-dual pricing round: each bin's
  largest feasible set. When generation hits its cap, the greedy growth
  runs instead and the packing is flagged ``config-lp-cap-fallback``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from . import bis
from .errors import ParameterError
from .graphs import GraphClassInfo
from .model import ConflictInstance, Packing, _ids_mask, _mask_to_ids, fits_within, validate_packing, ZERO
from .rng import SplitMix64
from .simplex import solve_max_lp

STRATEGIES = ("greedy-sequential", "config-lp")
# Column generation stops after this many rounds per bin and unpacked item.
ITERATION_CAP_FACTOR = 10
# The eps of ``max_size`` and of the algorithms that grow bins with it.
PRACTICAL_EPS = Fraction(1, 6)


@dataclass(frozen=True)
class MaxSizeConfig:
    seed: int = 0
    pricing_limit: int = 24


@dataclass(frozen=True)
class MaxSizeResult:
    augmented: Packing
    added_items: frozenset[int]
    added_size: Fraction
    strategy: str
    guarantee: float


@dataclass(frozen=True)
class ConfigLpSolution:
    """Per-bin feasible-set distributions from the configuration LP."""

    instance: ConflictInstance
    initial: Packing
    columns: tuple[tuple[tuple[frozenset[int], Fraction], ...], ...]
    objective: Fraction
    converged: bool
    iterations: int


def validate_initial(instance: ConflictInstance, initial: Packing) -> None:
    """Raise ParameterError unless ``initial`` is a feasible partial packing."""
    report = validate_packing(instance, initial, require_cover=False)
    if not report.feasible:
        first = report.violations[0]
        raise ParameterError(f"initial packing infeasible: {first.kind} ({first.detail})")


def _check_growth_eps(eps, class_info: GraphClassInfo) -> Fraction:
    # ``eps`` for the single-bin scheme of a growth with ``class_info``: in
    # (0, 1), and within the enumeration scheme's cap unless a split
    # certificate picks the split scheme, which has no cap.
    eps = bis._check_eps(eps)
    if class_info.split_partition is None:
        bis._enum_cap(eps)
    return eps


def max_size(
    instance: ConflictInstance,
    initial: Packing,
    class_info: GraphClassInfo,
    eps=PRACTICAL_EPS,
    strategy: str = "greedy-sequential",
    config: Optional[MaxSizeConfig] = None,
) -> MaxSizeResult:
    """Augment ``initial`` (bin count unchanged) with unpacked items."""
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    # Checked for both strategies: a capped config LP falls back to the growth.
    eps = _check_growth_eps(eps, class_info)
    flags = initial.flags
    if strategy == "config-lp":
        config = config or MaxSizeConfig()
        solution = solve_config_lp(instance, initial, config)  # checks ``initial``
        if solution.converged:
            return round_config_lp(solution, config.seed)
        flags += ("config-lp-cap-fallback",)
    else:
        validate_initial(instance, initial)
    for added, _pool, _left in greedy_growth(instance, initial, class_info, eps):
        pass
    ratio = float(1 - eps)
    augmented = Packing(_grown_bins(initial.bins, added), "max_size/greedy-sequential", flags)
    return _result(instance, initial, augmented, "greedy-sequential", ratio / (1.0 + ratio))


def _result(
    instance: ConflictInstance, initial: Packing, augmented: Packing, strategy: str, guarantee: float
) -> MaxSizeResult:
    added = augmented.items() - initial.items()
    return MaxSizeResult(augmented, added, instance.size_of(added), strategy, guarantee)


def greedy_growth(
    instance: ConflictInstance,
    initial: Packing,
    class_info: GraphClassInfo,
    eps,
) -> Iterator[tuple[list[int], int, int]]:
    """Greedy-sequential growth of ``initial``, one bin at a time.

    Yields ``(added, pool, left)`` for the start state and again after each
    bin, as masks and units: ``added[k]`` holds the items bin k gained (one
    list, extended in place), ``pool`` the items no bin holds and ``left``
    their size. A caller decodes only the bins it returns (``_grown_bins``).
    Bin k's choice depends only on bins 0..k-1, so when the bins of
    ``initial`` after the k-th are empty, the state after k bins is the
    whole growth of its first k bins. ``eps`` is checked before the first
    yield, against the enumeration scheme's cap when there is no split
    certificate.
    """
    eps = _check_growth_eps(eps, class_info)
    # The solvers' integer cores, on the instance's unit table: no
    # single-bin subproblem converts sizes again.
    if class_info.split_partition is None:
        solve, info = bis._ptas, class_info
    else:
        solve, info = bis._fptas_split, bis._split_masks(class_info.split_partition)
    units, den = instance.unit_table
    fits = fits_within(instance.items, units)
    packed = initial.items()
    # Every item fits an empty bin, so ``fits(den)`` holds them all.
    pool = fits(den) & ~_ids_mask(packed)
    left = sum(units.values()) - sum(map(units.__getitem__, packed))
    zeros = fits(0)
    added: list[int] = []
    yield added, pool, left
    for bin_items in initial.bins:
        gained = 0
        if pool:
            blocked, room = instance.bin_state(bin_items)
            # The cores take the pool items that fit the room and have no
            # edge into the bin, as a mask: both solvers drop larger items.
            eligible = pool & ~blocked & fits(room) if room > 0 else 0
            if eligible:
                gained, weight = solve(eligible, fits, instance.adjacency, info, units, room, den, eps)
                pool ^= gained
                left -= weight
            if pool & zeros:
                # Both solvers drop items of weight 0: the bin takes each
                # size-0 pool item with no edge into it, in id order.
                blocked |= instance.bin_state(_mask_to_ids(gained))[0]
                for v in _mask_to_ids(pool & zeros & ~blocked):
                    if not (blocked >> v) & 1:
                        gained |= 1 << v
                        blocked |= instance.adjacency[v]
                        pool ^= 1 << v
        added.append(gained)
        yield added, pool, left


def _grown_bins(bins: Iterable[frozenset[int]], added: Iterable[int]) -> tuple[frozenset[int], ...]:
    """``bins`` with the items of the aligned masks ``added`` put in; only
    the masks of the bins that grew are decoded."""
    return tuple(b.union(_mask_to_ids(a)) if a else b for b, a in zip(bins, added))


def _price_column(
    instance: ConflictInstance,
    eligible: list[int],
    room: int,
    profits: dict[int, Fraction],
) -> tuple[Fraction, frozenset[int]]:
    """Exact max-profit independent set within ``room`` size units (small pools only)."""
    units = instance.unit_table[0]
    order = sorted(
        (v for v in eligible if profits[v] > ZERO and units[v] <= room),
        key=lambda v: (-profits[v], v),
    )
    suffix = [ZERO] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + profits[order[k]]
    best_profit = ZERO
    best_set: tuple[int, ...] = ()

    def dfs(idx: int, banned: int, cost: int, profit: Fraction, current: tuple[int, ...]):
        nonlocal best_profit, best_set
        if profit > best_profit:
            best_profit = profit
            best_set = current
        if idx == len(order) or profit + suffix[idx] <= best_profit:
            return
        for j in range(idx, len(order)):
            if profit + suffix[j] <= best_profit:
                return
            v = order[j]
            if (banned >> v) & 1 or cost + units[v] > room:
                continue
            dfs(j + 1, banned | instance.adjacency[v] | 1 << v, cost + units[v], profit + profits[v], current + (v,))

    dfs(0, 0, 0, ZERO, ())
    return best_profit, frozenset(best_set)


def solve_config_lp(
    instance: ConflictInstance,
    initial: Packing,
    config: Optional[MaxSizeConfig] = None,
) -> ConfigLpSolution:
    """Column generation for the per-bin feasible-set LP.

    Master rows: one <=1 row per bin (pick at most one configuration) and
    one <=1 row per unpacked item. Columns are priced exactly; generation
    stops when no column has positive reduced cost or the iteration cap is
    hit (``converged`` False, caller falls back to greedy).
    """
    config = config or MaxSizeConfig()
    validate_initial(instance, initial)
    packed = initial.items()
    pool = sorted(i for i in instance.items if i not in packed)
    t = initial.bin_count
    # Each bin's pool items with no edge into it, and its room in units.
    bins = []
    for bin_items in initial.bins:
        blocked, room = instance.bin_state(bin_items)
        bins.append(([v for v in pool if not (blocked >> v) & 1], room))
    trivial = not pool or t == 0
    if trivial or max(len(eligible) for eligible, _ in bins) > config.pricing_limit:
        return ConfigLpSolution(instance, initial, ((),) * t, ZERO, trivial, 0)

    columns: dict[tuple[int, frozenset[int]], None] = {}  # in insertion order

    def price(mu, lam) -> bool:
        """Add each bin's best new column of positive reduced cost; True if any."""
        improved = False
        for j, (eligible, room) in enumerate(bins):
            if eligible and room > 0:
                profits = {v: instance.sizes[v] - lam[v] for v in eligible}
                profit, cfg = _price_column(instance, eligible, room, profits)
                if cfg and profit > mu[j] and (j, cfg) not in columns:
                    columns[j, cfg] = None
                    improved = True
        return improved

    # Zero duals: the first columns are each bin's largest feasible set.
    price([ZERO] * t, dict.fromkeys(pool, ZERO))
    cap = ITERATION_CAP_FACTOR * (t + len(pool))
    iterations = 0
    result = None
    converged = False
    while not converged:
        iterations += 1
        if iterations > cap:
            break
        rows = [[int(cj == j) for cj, _ in columns] for j in range(t)]
        rows += [[int(v in cfg) for _, cfg in columns] for v in pool]
        result = solve_max_lp([instance.size_of(cfg) for _, cfg in columns], rows, [1] * len(rows))
        converged = not price(result.duals[:t], dict(zip(pool, result.duals[t:])))

    per_bin: list[list[tuple[frozenset[int], Fraction]]] = [[] for _ in range(t)]
    for (j, cfg), y in zip(columns, result.x if result else ()):
        if y > ZERO:
            per_bin[j].append((cfg, y))
    objective = result.objective if result else ZERO
    return ConfigLpSolution(
        instance, initial, tuple(tuple(cols) for cols in per_bin), objective, converged, iterations
    )


def round_config_lp(solution: ConfigLpSolution, seed: int) -> MaxSizeResult:
    """Sample one configuration per bin, dedupe, then fill up greedily.

    An item appearing in several sampled configurations is committed to the
    first bin (in bin order) whose configuration contains it. The fill-up
    pass only adds items, so the sampled expectation bound is preserved.
    """
    instance = solution.instance
    initial = solution.initial
    rng = SplitMix64(seed)
    new_bins = [frozenset(b) for b in initial.bins]
    sampled: frozenset[int] = frozenset()
    for j, cols in enumerate(solution.columns):
        # One draw per bin; the bin keeps the items no earlier bin sampled.
        r = Fraction(rng.next_u64(), 1 << 64)
        acc = ZERO
        for cfg, y in cols:
            acc += y
            if r < acc:
                new_bins[j] |= cfg - sampled
                sampled |= cfg
                break

    # Deterministic fill-up with whatever still fits.
    units = instance.unit_table[0]
    states = [instance.bin_state(b) for b in new_bins]
    packed = initial.items() | sampled
    for v in sorted(i for i in instance.items if i not in packed):
        for j, (blocked, room) in enumerate(states):
            if units[v] <= room and not (blocked >> v) & 1:
                new_bins[j] |= {v}
                states[j] = (blocked | instance.adjacency[v], room - units[v])
                break

    augmented = Packing(tuple(new_bins), "max_size/config-lp", initial.flags)
    return _result(instance, initial, augmented, "config-lp", 1.0 - 1.0 / math.e)
