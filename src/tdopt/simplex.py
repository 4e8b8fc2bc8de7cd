"""Dense simplex for the support-union programs: maximize x[j] over
{x >= 0 : a_eq x = b_eq}, where the rows cut a face out of the probability
simplex (nonnegative rows, a ones row, and a probability vector plus 1 on the
right), so every program is bounded and b_eq is never negative.

Only systems whose solution is not unique come here: `capacity` solves a
full-column-rank system with one least-squares solve instead.

`feasible_basis` runs phase one once per system; `lp_solve_max_coordinate`
runs phase two for one coordinate from a copy of that basis. Phase one never
reads the objective, so sharing it changes no vertex. Problems have a handful
of variables, so a textbook tableau with Bland's rule (guaranteed termination,
no cycling) beats pulling in a general LP stack, and it keeps results
bit-deterministic across runs.
"""

from __future__ import annotations

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    # only rows with a nonzero pivot-column entry: x - 0*y could flip a zero's sign
    rows = np.flatnonzero(tab[:, col])
    rows = rows[rows != row]
    tab[rows] -= tab[rows, col][:, None] * tab[row]
    basis[row] = col


def _bland_iterate(tab: np.ndarray, basis: np.ndarray, ncols: int) -> bool:
    """Run simplex to optimality on a tableau whose last row holds reduced
    costs and last column holds the rhs. Entering/leaving by smallest index.
    False when no row can leave (the program is unbounded)."""
    m = tab.shape[0] - 1
    while True:
        entering = np.flatnonzero(tab[m, :ncols] < -PIVOT_TOL)
        if entering.size == 0:
            return True
        col = int(entering[0])
        row, best = -1, np.inf
        for r in range(m):
            a = tab[r, col]
            if a > PIVOT_TOL:
                ratio = tab[r, -1] / a
                if ratio < best - PIVOT_TOL or (abs(ratio - best) <= PIVOT_TOL
                                                and (row < 0 or basis[r] < basis[row])):
                    row, best = r, ratio
        if row < 0:
            return False
        _pivot(tab, basis, row, col)


def feasible_basis(a_eq, b_eq) -> tuple[np.ndarray, np.ndarray] | None:
    """Phase one for a_eq x = b_eq, x >= 0 with b_eq >= 0.

    Returns the constraint rows `[a | b]` in a feasible basis and that basis,
    or None when the system is infeasible. Redundant rows are zeroed and carry
    basis -1.
    """
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    m, n = a.shape

    # artificial basis, minimize artificial mass
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = -a.sum(axis=0)
    tab[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    if not _bland_iterate(tab, basis, n + m) or tab[m, -1] < -FEAS_TOL:
        return None

    # Drive leftover artificials out of the basis; rows that cannot be pivoted
    # are redundant constraints and get zeroed.
    for r in range(m):
        if basis[r] >= n:
            cols = np.flatnonzero(np.abs(tab[r, :n]) > PIVOT_TOL)
            if cols.size:
                _pivot(tab, basis, r, int(cols[0]))
            else:
                tab[r, :] = 0.0
                basis[r] = -1

    return np.hstack([tab[:m, :n], tab[:m, -1:]]), basis


def lp_solve_max_coordinate(feasible: tuple[np.ndarray, np.ndarray], j: int) -> np.ndarray | None:
    """The vertex maximizing x[j], by phase two from a copy of the basis that
    `feasible_basis` returned; None if no row can leave. Nonbasic coordinates
    are exact zeros."""
    rows, basis = feasible
    m, n = rows.shape[0], rows.shape[1] - 1
    basis = basis.copy()
    tab = np.zeros((m + 1, n + 1))
    tab[:m] = rows
    # reduced costs of -x[j]: only the row whose basic variable is x[j] adds to them
    tab[m, j] = -1.0
    for r in np.flatnonzero(basis == j):
        tab[m] += tab[r]
    if not _bland_iterate(tab, basis, n):
        return None

    x = np.zeros(n)
    for r in range(m):
        if basis[r] >= 0:
            x[basis[r]] = max(tab[r, -1], 0.0)
    return x
