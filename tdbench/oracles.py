"""Reference computations the benchmark checks tdopt's outputs against.

Everything here is plain numpy or Python loops and imports nothing from
tdopt, so a fault in the program's information kernel, capacity solver or LP
cannot also hide in the check. All information quantities are in bits.
"""

from __future__ import annotations

import math

import numpy as np

def entropy(probs) -> float:
    """Shannon entropy of a probability vector."""
    return -sum(p * math.log2(p) for p in np.asarray(probs, dtype=float).ravel() if p > 0.0)


def h2(p: float) -> float:
    """Binary entropy function."""
    return entropy([p, 1.0 - p])


def bsc_capacity(p: float) -> float:
    return 1.0 - h2(p)


def bec_capacity(e: float) -> float:
    return 1.0 - e


def circulant_capacity(row) -> float:
    """Every row of a circulant channel is a permutation of `row`, so the
    uniform input gives a uniform output and C = log2 n - H(row)."""
    return math.log2(len(row)) - entropy(row)


def mutual_information(p, rows) -> float:
    """I(X;Y) by the explicit double sum over inputs and outputs."""
    p = np.asarray(p, dtype=float)
    rows = np.asarray(rows, dtype=float)
    n_x, n_y = rows.shape
    q = [sum(p[x] * rows[x, y] for x in range(n_x)) for y in range(n_y)]
    total = 0.0
    for x in range(n_x):
        if p[x] <= 0.0:
            continue
        for y in range(n_y):
            w = rows[x, y]
            if w > 0.0:
                total += p[x] * w * math.log2(w / q[y])
    return total


def mutual_information_batch(points, rows) -> np.ndarray:
    """I(X;Y) for every input distribution in the rows of `points`: the same
    double sum, vectorised over the leading axis for grid sweeps."""
    points = np.asarray(points, dtype=float)
    rows = np.asarray(rows, dtype=float)
    q = points @ rows
    total = np.zeros(len(points))
    for x in range(rows.shape[0]):
        for y in range(rows.shape[1]):
            w = rows[x, y]
            if w <= 0.0:
                continue
            mass = points[:, x] * w
            live = mass > 0.0
            total[live] += mass[live] * np.log2(w / q[live, y])
    return total


def divergence_profile(rows, ref) -> np.ndarray:
    """D(W_x || ref) for every input x; +inf where W_x puts mass on an output
    that `ref` misses."""
    rows = np.asarray(rows, dtype=float)
    ref = np.asarray(ref, dtype=float)
    out = np.zeros(rows.shape[0])
    for x in range(rows.shape[0]):
        for y in range(rows.shape[1]):
            w = rows[x, y]
            if w <= 0.0:
                continue
            if ref[y] <= 0.0:
                out[x] = math.inf
                break
            out[x] += w * math.log2(w / ref[y])
    return out


def binary_grid(points: int = 10_001) -> np.ndarray:
    """Binary input distributions (t, 1 - t) for t evenly spaced in [0, 1]."""
    t = np.linspace(0.0, 1.0, points)
    return np.column_stack([t, 1.0 - t])


def peak_set(profile, capacity: float, bracket: float, tol_peak: float = 1e-6,
             margin: float = 1e-9) -> tuple[set[int], set[int]]:
    """Inputs that must be in the peak set, and inputs that may be.

    The documented rule counts x as peak when D_x >= C - max(tol_peak,
    10 * bracket). Divergences within `margin` of that threshold cannot be
    classified from 12-significant-digit reports, so they may go either way.
    """
    threshold = capacity - max(tol_peak, 10.0 * bracket)
    profile = np.asarray(profile, dtype=float)
    must = {int(x) for x in np.flatnonzero(profile >= threshold + margin)}
    may = {int(x) for x in np.flatnonzero(profile >= threshold - margin)}
    return must, may


def support_union(rows, peak: list[int], ref, lp_tol: float = 1e-9) -> list[int]:
    """Inputs that carry mass in some distribution supported on `peak` whose
    output is `ref`: one scipy.optimize.linprog maximisation per peak input."""
    from scipy.optimize import linprog

    rows = np.asarray(rows, dtype=float)
    ref = np.asarray(ref, dtype=float)
    reachable = rows.max(axis=0) > 0.0
    a_eq = np.vstack([rows[peak][:, reachable].T, np.ones(len(peak))])
    b_eq = np.concatenate([ref[reachable], [1.0]])
    union = []
    for j, x in enumerate(peak):
        c = np.zeros(len(peak))
        c[j] = -1.0
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        if res.status != 0:
            raise ValueError(f"linprog found no input on the peak set with the given output: {res.message}")
        if -res.fun > lp_tol:
            union.append(x)
    return union
