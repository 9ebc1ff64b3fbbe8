"""Dense primal simplex over exact rationals.

Solves max c.x s.t. Ax <= b, x >= 0 with b >= 0, so the all-slack basis is
feasible and no phase-1 is needed. Bland's rule guarantees termination
without tolerances; every returned solution is a basic feasible solution
(vertex), which downstream rounding relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import SolverError
from .model import ZERO


@dataclass(frozen=True)
class LpResult:
    x: tuple[Fraction, ...]
    objective: Fraction
    duals: tuple[Fraction, ...]
    basis: tuple[int, ...]
    iterations: int


def solve_max_lp(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LpResult:
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
