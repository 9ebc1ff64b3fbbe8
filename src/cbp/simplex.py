"""Dense primal simplex on a fraction-free integer tableau.

Solves max c.x s.t. Ax <= b, x >= 0 with b >= 0, so the all-slack basis is
feasible and no phase-1 is needed. Each constraint row (with its rhs) and
the objective are scaled to integers once; the tableau then holds integers
over one common denominator ``d`` and pivots with the integer-preserving
update of Bareiss (1968) and Edmonds (1967), whose divisions are exact by
Sylvester's identity. Results are unscaled to Fractions only at the end.

Positive row scaling changes neither the sign of a reduced cost nor the
order of the ratio test, so Bland's rule takes the pivots it would take on
the rational tableau. Bland's rule guarantees termination; the arithmetic
is exact, with no tolerances. Every returned solution is a basic feasible
solution (vertex), which downstream rounding relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SolverError
from .model import ZERO


@dataclass(frozen=True)
class LpResult:
    x: tuple[Fraction, ...]
    objective: Fraction
    duals: tuple[Fraction, ...]
    basis: tuple[int, ...]
    iterations: int


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """``(ints, scale)`` with ``ints[k] == values[k] * scale``; ``scale`` is
    the lcm of the denominators (ints and Fractions both carry them)."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_max_lp(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LpResult:
    n = len(objective)
    m = len(rows)
    if len(rhs) != m:
        raise SolverError(f"rhs has {len(rhs)} entries for {m} rows")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise SolverError(f"row {i} has {len(row)} entries for {n} columns")
    for b in rhs:
        if b < 0:
            raise SolverError("rhs must be nonnegative (all-slack start)")
    # Tableau columns: n structural + m slacks + rhs. Row i is scaled by
    # row_scale[i]; its slack column stays a unit column.
    tab: list[list[int]] = []
    row_scale: list[int] = []
    for i in range(m):
        ints, scale = _scaled([*rows[i], rhs[i]])
        row = ints[:n] + [0] * m + ints[n:]
        row[n + i] = 1
        tab.append(row)
        row_scale.append(scale)
    # Objective row holds z_j - c_j, scaled by obj_scale; starts at -c.
    costs, obj_scale = _scaled(objective)
    zrow = [-c for c in costs] + [0] * (m + 1)
    basis = list(range(n, n + m))
    # The rational tableau is tab / d and zrow / d; d stays positive.
    d = 1

    iterations = 0
    while True:
        enter = -1
        for j in range(n + m):
            if zrow[j] < 0:
                enter = j  # Bland: lowest-index improving column
                break
        if enter < 0:
            break
        # Ratio test: row i beats row k when b_i / a_i < b_k / a_k,
        # compared by cross-multiplication (both a > 0).
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave, best_b, best_a = i, tab[i][-1], a
                    continue
                lhs = tab[i][-1] * best_a
                rhs_ = best_b * a
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, tab[i][-1], a
        if leave < 0:
            raise SolverError("LP is unbounded")
        iterations += 1
        # Integer-preserving pivot: the pivot row stays; every other row
        # becomes (p*row - row[enter]*prow) / d, exactly; then d = p.
        prow = tab[leave]
        p = prow[enter]
        for i in range(m):
            if i == leave:
                continue
            row = tab[i]
            f = row[enter]
            if f:
                tab[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                tab[i] = [p * a // d for a in row]
        f = zrow[enter]
        zrow = [(p * a - f * b) // d for a, b in zip(zrow, prow)]
        d = p
        basis[leave] = enter

    x = [ZERO] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = Fraction(tab[i][-1], d)
    objective_value = sum((c * xv for c, xv in zip(objective, x)), ZERO)
    duals = tuple(Fraction(zrow[n + i] * row_scale[i], d * obj_scale) for i in range(m))
    return LpResult(tuple(x), objective_value, duals, tuple(basis), iterations)
