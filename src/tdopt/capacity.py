"""Single-user capacity with a certified bracket, plus the divergence geometry
around the optimizer: the unique optimal output distribution, the per-input
divergence profile, the peak set of inputs whose divergence attains capacity,
and the union of supports over all capacity-achieving inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import RunConfig
from .core import FLOOR, LN2, Channel, Distribution, row_divergences
from .simplex import feasible_basis, lp_solve_max_coordinate

_MAX_ITER = 100_000                    # alternating-maximization passes before ConvergenceError
_LP_TOL = 1e-9                         # mass threshold deciding support-union membership
_RANK_TOL = 1e-6                       # sigma_min / sigma_max below which the support-union
                                       # system counts as rank deficient; above it, rounding in
                                       # its solution stays well under _LP_TOL
OUTPUT_TOL = 1e-6                      # max-norm slack for reproducing the optimal output


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


class CapacityBracket(NamedTuple):
    """A certified capacity bracket from `compute_capacity`, in nats.

    `p` is the certified input and `q` its output on the channel's reachable
    outputs; `lower` is the information rate of `p`, `upper` the largest of
    the `divergences` D(W(.|x) || q), one per input x; `iterations` is the
    iteration at which the bracket certified."""

    p: np.ndarray
    q: np.ndarray
    lower: float
    upper: float
    divergences: np.ndarray
    iterations: int


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Capacity certificate for one channel; `analyze_channel` builds it.

    `capacity` is the midpoint of the final bracket and `gap` its width, both
    in bits; `iterations` is the iteration at which the bracket certified.
    `divergence_profile` holds D(W(.|x) || optimal output) in bits for every
    input x, at the certified iterate. `peak_set` holds the inputs whose
    divergence attains capacity, `support_union` the union of supports over
    all capacity-achieving inputs, and `achieving_input` one such input whose
    support is exactly that union.
    """

    channel: Channel
    capacity: float
    achieving_input: Distribution
    optimal_output: Distribution
    iterations: int
    gap: float
    divergence_profile: np.ndarray
    peak_set: tuple[str, ...]
    support_union: tuple[str, ...]


def full_support(report: CapacityReport) -> bool:
    """Whether the support union of `report`'s optimizers covers the channel's
    whole input alphabet: the full-support assumption."""
    return len(report.support_union) == len(report.channel.input)


def _newton_refine(rows, row_neg_ent, p_start, d, support):
    """Solve D(row_x || q) = const for x in `support` with q the pushforward
    of p supported there. Returns p on `support`, whose masses may be
    negative, or None if the system misbehaves (singular Jacobian, an output
    the support reaches losing all its mass).

    Identical rows would make the Jacobian singular, so each group of them is
    solved as one row and its mass is then shared as `p_start` shares it.
    More distinct rows than the outputs they reach make it singular too, so
    only that many groups, those of largest divergence `d`, are solved; the
    others get no mass."""
    sub = rows[support]
    keys: dict[bytes, int] = {}
    group = np.array([keys.setdefault(row.tobytes(), len(keys)) for row in sub])
    share = p_start[support]
    mass = np.bincount(group, weights=share)
    first = support[np.unique(group, return_index=True)[1]]
    n_out = np.count_nonzero(rows[first].any(axis=0))
    keep = np.sort(np.argsort(-d[first], kind="stable")[:n_out])
    solved = _newton_solve(rows[first[keep]], row_neg_ent[first[keep]], mass[keep])
    if solved is None:
        return None
    masses = np.zeros(len(first))
    masses[keep] = solved
    return masses[group] * (share / mass[group])


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
    certified (p, q, lower, upper) and the divergences at p, or None once a
    support repeats or 2|X| moves are spent."""
    gap = float(d.max() - p_ba @ d)
    support = np.flatnonzero(d >= d.max() - max(1e-5, 10.0 * gap))
    tried = set()
    for _ in range(2 * len(rows)):
        if support.size == 0 or support.tobytes() in tried:
            return None
        tried.add(support.tobytes())
        refined = _newton_refine(rows, row_neg_ent, p_ba, d, support)
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
            return p, q, lower, upper, d2
        support = np.union1d(support, [d2.argmax()])
    return None


def compute_capacity(ch: Channel, cfg: RunConfig = RunConfig()) -> CapacityBracket:
    """Channel capacity by alternating maximization with a certified bracket,
    started from the uniform input.

    Every iteration yields a lower bound (the current input's information
    rate) and an upper bound (the worst-case divergence to the current output
    iterate). At iterations 4, 8, 16, ... and at the iteration whose bracket
    is first narrower than `cfg.tol` bits, an active-set Newton polish solves
    the stationarity system from the current iterate; its result replaces the
    iterate only when its own full-channel bracket is no wider than `cfg.tol`
    bits and than the current bracket. Iteration stops at the first such
    certificate, or once the plain bracket is narrower than `cfg.tol`, and
    returns the bracket with its iterate and the divergences there. Raises
    ConvergenceError if `_MAX_ITER` passes are not enough, and ValueError if
    the optimal output misses a reachable output.
    """
    rows, row_neg_ent = ch.reduced_rows, ch.reduced_neg_ent
    n_x = rows.shape[0]
    p = np.full(n_x, 1.0 / n_x)
    tol_nats = cfg.tol * LN2
    for it in range(1, _MAX_ITER + 1):
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
                p, q, lower, upper, d = polished
                stop = True
        if stop:
            _require_reachable_mass(ch, q)
            return CapacityBracket(p, q, lower, upper, d, it)
        p = p * np.exp(d - upper)
        p = np.maximum(p, FLOOR)  # keeps reachable outputs strictly positive
        p /= p.sum()
    raise ConvergenceError((lower / LN2, upper / LN2), _MAX_ITER)


def _require_reachable_mass(ch: Channel, ref: np.ndarray):
    """Raise if `ref`, a reference on the reachable outputs, gives zero mass
    to one of them: every row reaching it would have infinite divergence."""
    hit = ch.reduced_rows[:, ref == 0.0].any(axis=1)
    if hit.any():
        x = int(hit.argmax())
        raise ValueError(
            f"reference assigns zero mass to an output reachable from input "
            f"{ch.input.symbols[x]!r}; divergence is infinite"
        )


def divergence_profile(ch: Channel, r_star: Distribution) -> np.ndarray:
    """Vector of D(ch(.|x) || r_star) in bits, one entry per input symbol.

    Raises if any entry is infinite: a reference that misses a reachable
    output cannot be an optimal output distribution.
    """
    if r_star.alphabet != ch.output:
        raise ValueError("reference distribution must live on the channel output alphabet")
    ref = r_star.probs[ch.reachable]
    _require_reachable_mass(ch, ref)
    return row_divergences(ch.reduced_rows, ch.reduced_neg_ent, ref) / LN2


def compute_peak_set(ch: Channel, capacity: float, gap: float, profile: np.ndarray,
                     tol_peak: float) -> tuple[str, ...]:
    """Input symbols whose divergence `profile` (bits) comes within `tol_peak`
    bits of `capacity`.

    The effective tolerance never drops below 10x the capacity bracket `gap`,
    since symbols cannot be classified more finely than capacity itself is
    known.
    """
    eff = max(tol_peak, 10.0 * gap)
    mask = profile >= capacity - eff
    if not mask.any():
        raise ValueError(
            f"no input reaches capacity within {eff!r} bits; raise the peak tolerance"
        )
    return tuple(s for s, m in zip(ch.input, mask) if m)


def _support_union_lp(ch: Channel, peak: tuple[str, ...], r_star: Distribution):
    """Union of supports over all capacity-achieving inputs, plus one such
    input whose support is the whole union.

    These inputs are the solutions x >= 0 of `a_eq x = b_eq`: the peak rows
    pushing x forward to the optimal output, and a row of ones. A symbol
    belongs iff one of them gives it mass above `_LP_TOL`.

    When the system has full column rank (singular values above `_RANK_TOL`
    times the largest), its one least-squares solution is the only
    capacity-achieving input, so it is the witness. Otherwise one LP per peak
    symbol maximizes its mass from one shared phase one, and the witness is
    the equal-weight average of the LP vertices. Either way the witness's
    entries outside the union become exact zeros, so its support is the
    union. Raises InconsistentCertificateError when no nonnegative x solves
    the system within `_LP_TOL`."""
    idx = [ch.input.index(s) for s in peak]
    a_eq = np.vstack([ch.reduced_rows[idx].T, np.ones(len(idx))])
    b_eq = np.concatenate([r_star.probs[ch.reachable], [1.0]])

    x, _, _, sv = np.linalg.lstsq(a_eq, b_eq)
    if len(sv) == len(idx) and sv[-1] > _RANK_TOL * sv[0]:
        if np.abs(a_eq @ x - b_eq).max() > _LP_TOL or x.min() < -_LP_TOL:
            raise InconsistentCertificateError()
        member, witness = x > _LP_TOL, x
    else:
        feasible = feasible_basis(a_eq, b_eq)
        if feasible is None:
            raise InconsistentCertificateError()
        vertices = []
        for j in range(len(idx)):
            vertex = lp_solve_max_coordinate(feasible, j)
            if vertex is None:
                raise InconsistentCertificateError()
            vertices.append(vertex)
        member, witness = np.diag(vertices) > _LP_TOL, np.mean(vertices, axis=0)
    full = np.zeros(len(ch.input))
    full[idx] = np.where(member, witness, 0.0)
    return tuple(s for s, m in zip(peak, member) if m), full


def is_capacity_achieving(p: Distribution, report: CapacityReport) -> bool:
    """True iff supp(p) sits inside the peak set and p reproduces the optimal
    output within OUTPUT_TOL in max norm."""
    if p.alphabet != report.channel.input:
        raise ValueError("distribution must live on the channel input alphabet")
    if not set(p.support()) <= set(report.peak_set):
        return False
    pushed = p.probs @ report.channel.rows
    return bool(np.abs(pushed - report.optimal_output.probs).max() <= OUTPUT_TOL)


def analyze_channel(ch: Channel, cfg: RunConfig = RunConfig()) -> CapacityReport:
    """Full capacity certificate: capacity bracketed to `cfg.tol`, optimal
    output, divergence profile, peak set at `cfg.peak_tol`, support union,
    and an achieving input whose support is exactly the union."""
    bracket = compute_capacity(ch, cfg)
    capacity = (bracket.lower + bracket.upper) / 2.0 / LN2
    gap = max(bracket.upper - bracket.lower, 0.0) / LN2  # a width below 0 is rounding
    profile = bracket.divergences / LN2
    out_full = np.zeros(len(ch.output))
    out_full[ch.reachable] = bracket.q
    optimal_output = Distribution(ch.output, out_full)
    peak = compute_peak_set(ch, capacity, gap, profile, cfg.peak_tol)
    union, witness = _support_union_lp(ch, peak, optimal_output)
    return CapacityReport(
        channel=ch, capacity=capacity, achieving_input=Distribution(ch.input, witness),
        optimal_output=optimal_output, iterations=bracket.iterations, gap=gap,
        divergence_profile=profile, peak_set=peak, support_union=union)
