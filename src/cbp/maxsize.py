"""Grow a partial packing by unpacked items of maximum total size.

Two strategies:

* greedy-sequential — walk the bins in order, solve the single-bin
  budgeted-independent-set subproblem over the remaining items, commit.
  With a (1-eps)-approximate single-bin solver the added size is at least
  a (1-eps)/(2-eps) fraction of the optimum.
* config-lp — a configuration LP over feasible sets per bin, priced by an
  exact budgeted-set search and solved by column generation, then
  randomized rounding with first-bin deduplication and a deterministic
  fill-up pass. Expected added size is at least (1 - 1/e) of the LP
  optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import bis
from .errors import ParameterError
from .graphs import GraphClassInfo
from .model import ConflictInstance, Packing, validate_packing, ZERO
from .rng import SplitMix64
from .simplex import solve_max_lp

STRATEGIES = ("greedy-sequential", "config-lp")
# Column generation stops after this many rounds per bin and unpacked item.
ITERATION_CAP_FACTOR = 10


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


def max_size(
    instance: ConflictInstance,
    initial: Packing,
    class_info: GraphClassInfo,
    eps=Fraction(1, 6),
    strategy: str = "greedy-sequential",
    config: Optional[MaxSizeConfig] = None,
) -> MaxSizeResult:
    """Augment ``initial`` (bin count unchanged) with unpacked items."""
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    eps = bis._check_eps(eps)
    config = config or MaxSizeConfig()
    validate_initial(instance, initial)
    if strategy == "greedy-sequential":
        return _greedy_sequential(instance, initial, class_info, eps)
    solution = solve_config_lp(instance, initial, class_info, config)
    if not solution.converged:
        result = _greedy_sequential(instance, initial, class_info, eps)
        augmented = result.augmented.with_flags("config-lp-cap-fallback")
        return MaxSizeResult(augmented, result.added_items, result.added_size, result.strategy, result.guarantee)
    return round_config_lp(solution, config.seed)


def greedy_growth(
    instance: ConflictInstance,
    initial: Packing,
    class_info: GraphClassInfo,
    eps,
) -> Iterator[tuple[list[frozenset[int]], list[int]]]:
    """Greedy-sequential growth of ``initial``, one bin at a time.

    Yields ``(bins, pool)`` for the start state and again after each bin:
    ``bins`` holds the grown bins so far (one list, extended in place) and
    ``pool`` the items no bin holds. Bin k's choice depends only on bins
    0..k-1, so when the bins of ``initial`` after the k-th are empty, the
    state after k bins is the whole growth of its first k bins.
    """
    eps = bis._check_eps(eps)
    # The solvers' integer cores, on the instance's unit table: no
    # single-bin subproblem converts sizes again.
    solve = bis._fptas_split if class_info.split_partition is not None else bis._ptas
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
                chosen = solve(eligible, instance.adjacency, class_info, units, room, den, eps)
                bin_items = bin_items | chosen
                pool = [v for v in pool if v not in chosen]
        new_bins.append(bin_items)
        yield new_bins, pool


def _greedy_sequential(
    instance: ConflictInstance,
    initial: Packing,
    class_info: GraphClassInfo,
    eps,
) -> MaxSizeResult:
    for bins, _pool in greedy_growth(instance, initial, class_info, eps):
        pass
    augmented = Packing(tuple(bins), "max_size/greedy-sequential", initial.flags)
    added = augmented.items() - initial.items()
    ratio = float(1 - eps)
    return MaxSizeResult(
        augmented=augmented,
        added_items=added,
        added_size=instance.size_of(added),
        strategy="greedy-sequential",
        guarantee=ratio / (1.0 + ratio),
    )


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

    def dfs(idx: int, banned: int, cost: int, profit: Fraction, current: list[int]):
        nonlocal best_profit, best_set
        if profit > best_profit:
            best_profit = profit
            best_set = tuple(current)
        if idx == len(order) or profit + suffix[idx] <= best_profit:
            return
        for j in range(idx, len(order)):
            if profit + suffix[j] <= best_profit:
                return
            v = order[j]
            if (banned >> v) & 1 or cost + units[v] > room:
                continue
            current.append(v)
            dfs(
                j + 1,
                banned | instance.adjacency[v] | (1 << v),
                cost + units[v],
                profit + profits[v],
                current,
            )
            current.pop()

    dfs(0, 0, 0, ZERO, [])
    return best_profit, frozenset(best_set)


def solve_config_lp(
    instance: ConflictInstance,
    initial: Packing,
    class_info: GraphClassInfo,
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
    if not pool or t == 0:
        return ConfigLpSolution(instance, initial, tuple(() for _ in range(t)), ZERO, True, 0)
    item_row = {v: t + k for k, v in enumerate(pool)}

    bin_eligible: list[list[int]] = []
    bin_room: list[int] = []
    for bin_items in initial.bins:
        blocked, room = instance.bin_state(bin_items)
        bin_eligible.append([v for v in pool if not (blocked >> v) & 1])
        bin_room.append(room)
    if max((len(e) for e in bin_eligible), default=0) > config.pricing_limit:
        return ConfigLpSolution(instance, initial, tuple(() for _ in range(t)), ZERO, False, 0)

    columns: list[tuple[int, frozenset[int]]] = []
    seen_columns: set[tuple[int, frozenset[int]]] = set()
    for j in range(t):
        if not bin_eligible[j] or bin_room[j] <= 0:
            continue
        _, greedy_set = _price_column(
            instance, bin_eligible[j], bin_room[j], {v: instance.sizes[v] for v in bin_eligible[j]}
        )
        if greedy_set:
            col = (j, greedy_set)
            columns.append(col)
            seen_columns.add(col)

    cap = ITERATION_CAP_FACTOR * (t + len(pool))
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
            rows.append([Fraction(1) if cj == j else ZERO for (cj, _) in columns])
            rhs.append(Fraction(1))
        for v in pool:
            rows.append([Fraction(1) if v in cfg else ZERO for (_, cfg) in columns])
            rhs.append(Fraction(1))
        result = solve_max_lp(objective, rows, rhs)
        values = result.x
        mu = result.duals[:t]
        lam = {v: result.duals[item_row[v]] for v in pool}
        improved = False
        for j in range(t):
            if not bin_eligible[j] or bin_room[j] <= 0:
                continue
            profits = {v: instance.sizes[v] - lam[v] for v in bin_eligible[j]}
            profit, cfg = _price_column(instance, bin_eligible[j], bin_room[j], profits)
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
    objective_value = sum(
        (instance.size_of(cfg) * y for cols in per_bin for (cfg, y) in cols), ZERO
    )
    return ConfigLpSolution(
        instance,
        initial,
        tuple(tuple(cols) for cols in per_bin),
        objective_value,
        converged,
        iterations,
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

    # Deterministic fill-up with whatever still fits.
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
    return MaxSizeResult(
        augmented=augmented,
        added_items=frozenset(added),
        added_size=instance.size_of(added),
        strategy="config-lp",
        guarantee=1.0 - 1.0 / math.e,
    )
