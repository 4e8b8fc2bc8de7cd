"""Single-user capacity with a certified bracket, plus the divergence geometry
around the optimizer: the unique optimal output distribution, the per-input
divergence profile, the peak set of inputs whose divergence attains capacity,
and the union of supports over all capacity-achieving inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .core import FLOOR, LN2, Channel, Distribution, neg_entropy, row_divergences
from .simplex import feasible_basis, lp_solve_max_coordinate

DEFAULT_TOL = RunConfig.tol            # bits, bracket width
DEFAULT_MAX_ITER = 100_000
DEFAULT_PEAK_TOL = RunConfig.peak_tol  # bits, slack below capacity still counted as peak
_LP_TOL = 1e-9                         # mass threshold deciding support-union membership


class ConvergenceError(RuntimeError):
    """Capacity iteration ran out of iterations before the bracket closed."""

    def __init__(self, bracket_bits: tuple[float, float], iterations: int):
        lo, hi = bracket_bits
        super().__init__(
            f"capacity bracket [{lo!r}, {hi!r}] bits still wider than requested "
            f"after {iterations} iterations"
        )
        self.bracket_bits = (lo, hi)
        self.iterations = iterations


class InconsistentCertificateError(ConvergenceError):
    """The capacity iteration stopped, but no input supported on the peak set
    reproduces the optimal output, so no support union can be certified."""

    def __init__(self):
        RuntimeError.__init__(
            self,
            "no input supported on the peak set reproduces the optimal output; "
            "the capacity certificate is inconsistent",
        )


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Capacity certificate for one channel.

    `capacity` is the midpoint of the final bracket and `gap` its width, both
    in bits; `iterations` is the iteration at which the bracket certified.
    `peak_set`, `support_union`, and `divergence_profile` are filled by
    `analyze_channel`; `compute_capacity` alone leaves them None.
    """

    channel: Channel
    capacity: float
    achieving_input: Distribution
    optimal_output: Distribution
    iterations: int
    gap: float
    divergence_profile: np.ndarray | None = None
    peak_set: tuple[str, ...] | None = None
    support_union: tuple[str, ...] | None = None


def _newton_refine(rows, row_neg_ent, p_start, support):
    """Solve D(row_x || q) = const for x in `support` with q the pushforward
    of p supported there. Returns p on `support`, whose masses may be
    negative, or None if the system misbehaves (singular Jacobian, an output
    the support reaches losing all its mass).

    Identical rows would make the Jacobian singular, so each group of them is
    solved as one row and its mass is then shared as `p_start` shares it."""
    sub = rows[support]
    keys: dict[bytes, int] = {}
    group = np.array([keys.setdefault(row.tobytes(), len(keys)) for row in sub])
    share = p_start[support]
    mass = np.bincount(group, weights=share)
    first = support[np.unique(group, return_index=True)[1]]
    solved = _newton_solve(rows[first], row_neg_ent[first], mass)
    if solved is None:
        return None
    return solved[group] * (share / mass[group])


def _newton_solve(sub, sub_neg_ent, p_start):
    """Newton's method for the stationarity system on the rows `sub`, started
    from the positive weights `p_start`."""
    sub = sub[:, sub.any(axis=0)]  # outputs no row reaches would divide 0 by 0
    k = len(sub)
    p = p_start / p_start.sum()
    c = None
    for _ in range(60):
        q = p @ sub
        if not np.all(q > 0.0):
            return None
        d = row_divergences(sub, sub_neg_ent, q)
        if c is None:
            c = float(p @ d)
        f = np.concatenate([d - c, [p.sum() - 1.0]])
        if np.abs(f).max() < 1e-14:
            return p
        jac = np.zeros((k + 1, k + 1))
        jac[:k, :k] = -(sub / q) @ sub.T
        jac[:k, k] = -1.0
        jac[k, :k] = 1.0
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        p = p + step[:k]
        c = c + step[k]
    return None


def _polish(rows, row_neg_ent, p_ba, d, tol_nats):
    """Active-set Newton solve of the stationarity system, started from the
    alternating-maximization iterate `p_ba` and its divergences `d`.

    The support starts as the inputs within max(1e-5, 10 * gap) nats of the
    largest divergence. Each move solves on the support, drops the input with
    the most negative mass if there is one, and otherwise adds the input of
    largest divergence unless the full-channel bracket certifies. Returns the
    certified (p, q, lower, upper), or None once a support repeats or 2|X|
    moves are spent."""
    gap = float(d.max() - p_ba @ d)
    support = np.flatnonzero(d >= d.max() - max(1e-5, 10.0 * gap))
    tried = set()
    for _ in range(2 * len(rows)):
        if support.size == 0 or support.tobytes() in tried:
            return None
        tried.add(support.tobytes())
        refined = _newton_refine(rows, row_neg_ent, p_ba, support)
        if refined is None:
            return None
        if refined.min() < -1e-12:
            support = np.delete(support, refined.argmin())
            continue
        p = np.zeros(len(rows))
        p[support] = np.maximum(refined, 0.0)
        p /= p.sum()
        q = p @ rows
        d2 = row_divergences(rows, row_neg_ent, q)
        upper, lower = float(d2.max()), float(p @ d2)
        if 0.0 <= upper - lower <= min(tol_nats, gap):
            return p, q, lower, upper
        support = np.union1d(support, [d2.argmax()])
    return None


def compute_capacity(
    ch: Channel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init: Distribution | None = None,
) -> CapacityReport:
    """Channel capacity by alternating maximization with a certified bracket.

    Every iteration yields a lower bound (the current input's information
    rate) and an upper bound (the worst-case divergence to the current output
    iterate). At iterations 4, 8, 16, ... and at the iteration whose bracket
    is first narrower than `tol` bits, an active-set Newton polish solves the
    stationarity system from the current iterate; its result replaces the
    iterate only when its own full-channel bracket is no wider than `tol`
    bits and than the current bracket. Iteration stops at the first such
    certificate, or once the plain bracket is narrower than `tol`, and the
    midpoint is reported. Raises ConvergenceError if `max_iter` passes are not
    enough.
    """
    reachable = ch.reachable_outputs()
    rows = ch.rows[:, reachable]
    n_x = rows.shape[0]
    row_neg_ent = neg_entropy(rows)

    if init is None:
        p = np.full(n_x, 1.0 / n_x)
    else:
        if init.alphabet != ch.input:
            raise ValueError("initial distribution must live on the channel input alphabet")
        if init.probs.min() <= 0.0:
            raise ValueError("initial distribution must have full support")
        p = init.probs.copy()

    tol_nats = tol * LN2
    lower = upper = math.nan
    converged_at = 0
    for it in range(1, max_iter + 1):
        q = p @ rows
        d = row_divergences(rows, row_neg_ent, q)
        upper = float(d.max())
        lower = float(p @ d)
        stop = upper - lower <= tol_nats
        # The multiplicative update closes the bracket slowly on nearly
        # degenerate channels, so periodically hand the iterate to the
        # stationarity solver, keeping it only when its bracket certifies.
        if stop or (it >= 4 and it & (it - 1) == 0):
            polished = _polish(rows, row_neg_ent, p, d, tol_nats)
            if polished is not None:
                p, q, lower, upper = polished
                stop = True
        if stop:
            converged_at = it
            break
        p = p * np.exp(d - upper)
        p = np.maximum(p, FLOOR)  # keeps reachable outputs strictly positive
        p /= p.sum()
    else:
        raise ConvergenceError((lower / LN2, upper / LN2), max_iter)

    out_full = np.zeros(len(ch.output))
    out_full[reachable] = q
    return CapacityReport(
        channel=ch,
        capacity=(lower + upper) / 2.0 / LN2,
        achieving_input=Distribution(ch.input, p),
        optimal_output=Distribution(ch.output, out_full),
        iterations=converged_at,
        gap=max(upper - lower, 0.0) / LN2,  # a width below 0 is rounding
    )


def divergence_profile(ch: Channel, r_star: Distribution) -> np.ndarray:
    """Vector of D(ch(.|x) || r_star) in bits, one entry per input symbol.

    Raises if any entry is infinite: a reference that misses a reachable
    output cannot be an optimal output distribution.
    """
    if r_star.alphabet != ch.output:
        raise ValueError("reference distribution must live on the channel output alphabet")
    reachable = ch.reachable_outputs()
    rows = ch.rows[:, reachable]
    ref = r_star.probs[reachable]
    bad = (rows > 0.0) & (ref == 0.0)[None, :]
    if bad.any():
        x = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(
            f"reference assigns zero mass to an output reachable from input "
            f"{ch.input.symbols[x]!r}; divergence is infinite"
        )
    return row_divergences(rows, neg_entropy(rows), ref) / LN2


def compute_peak_set(report: CapacityReport, tol_peak: float = DEFAULT_PEAK_TOL) -> tuple[str, ...]:
    """Input symbols whose divergence to the optimal output attains capacity.

    The effective tolerance never drops below 10x the capacity bracket, since
    symbols cannot be classified more finely than capacity itself is known.
    """
    if report.divergence_profile is None:
        raise ValueError("report carries no divergence profile; run analyze_channel")
    eff = max(tol_peak, 10.0 * report.gap)
    mask = report.divergence_profile >= report.capacity - eff
    if not mask.any():
        raise ValueError(
            f"no input reaches capacity within {eff!r} bits; raise the peak tolerance"
        )
    return tuple(s for s, m in zip(report.channel.input, mask) if m)


def _support_union_lp(ch: Channel, peak: tuple[str, ...], r_star: Distribution):
    """Union of supports over all capacity-achieving inputs, plus one such
    input whose support is the whole union.

    A symbol belongs iff some distribution supported on the peak set whose
    pushforward equals the optimal output gives it mass above `_LP_TOL`; one
    LP per peak symbol maximizes its mass from one shared phase one, and the
    witness is the equal-weight average of the LP vertices."""
    idx = [ch.input.index(s) for s in peak]
    reachable = ch.reachable_outputs()
    a_eq = np.vstack([ch.rows[idx][:, reachable].T, np.ones(len(idx))])
    b_eq = np.concatenate([r_star.probs[reachable], [1.0]])

    feasible = feasible_basis(a_eq, b_eq)
    if feasible is None:
        raise InconsistentCertificateError()
    member = []
    witnesses = []
    for j in range(len(idx)):
        x = lp_solve_max_coordinate(feasible, j)
        if x is None:
            raise InconsistentCertificateError()
        witnesses.append(x)
        if x[j] > _LP_TOL:
            member.append(peak[j])
    avg = np.mean(witnesses, axis=0)
    full = np.zeros(len(ch.input))
    full[idx] = avg
    return tuple(member), full


def is_capacity_achieving(p: Distribution, report: CapacityReport, tol: float = 1e-6) -> bool:
    """True iff supp(p) sits inside the peak set and p reproduces the optimal
    output within `tol` in max norm."""
    if report.peak_set is None:
        raise ValueError("report carries no peak set; run analyze_channel")
    if p.alphabet != report.channel.input:
        raise ValueError("distribution must live on the channel input alphabet")
    if not set(p.support()) <= set(report.peak_set):
        return False
    pushed = p.probs @ report.channel.rows
    return bool(np.abs(pushed - report.optimal_output.probs).max() <= tol)


def analyze_channel(ch: Channel, cfg: RunConfig = RunConfig()) -> CapacityReport:
    """Full capacity certificate: capacity bracketed to `cfg.tol`, optimal
    output, divergence profile, peak set at `cfg.peak_tol`, support union,
    and an achieving input whose support is exactly the union."""
    base = compute_capacity(ch, tol=cfg.tol)
    profile = divergence_profile(ch, base.optimal_output)
    staged = replace(base, divergence_profile=profile)
    peak = compute_peak_set(staged, cfg.peak_tol)
    union, witness = _support_union_lp(ch, peak, base.optimal_output)
    return replace(
        staged,
        peak_set=peak,
        support_union=union,
        achieving_input=Distribution(ch.input, witness),
    )
