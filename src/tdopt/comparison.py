"""Global checks of channel-ordering conditions over the input simplex.

Each check minimizes a difference of concave information functionals with a
seeded multistart projected-gradient search plus a deterministic simplex grid,
and reports either a violating input distribution or that the condition
survived the search budget. Also here: the exact per-symbol divergence screen
for point-mass inputs and the small-mixture expansion linking information
rates to output divergences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .capacity import CapacityReport, full_support
from .config import RunConfig
from .core import (
    LN2,
    AlphabetMismatchError,
    Channel,
    Distribution,
    _point_dot,
    information,
    kl,
    neg_entropy,
    push_forward,
    row_divergences,
    row_log_ratios,
)

HOLDS_UP_TO_SEARCH = "HOLDS_UP_TO_SEARCH"
VIOLATED = "VIOLATED"

_GRID_LIMIT = 1_000_000
_AUTO_SUBDIVISIONS = {1: 1, 2: 1000, 3: 100, 4: 40, 5: 20, 6: 10, 7: 8, 8: 7}
_MAX_ITERS = 400     # projected-gradient steps per start
_SCREEN_TOL = 1e-9   # slack allowed in the vertex screen's inequalities (bits)


class AssumptionNotMetError(RuntimeError):
    """A check was invoked outside the regime where its statement applies."""


@dataclass(frozen=True, eq=False)
class MinimizationResult:
    value: float
    argmin: np.ndarray
    starts: int
    evaluations: int


@dataclass(frozen=True, eq=False)
class SearchVerdict:
    """Outcome of one condition check; `gap` is the most negative objective
    value found (>= 0 means no violation was ever seen)."""

    status: str
    gap: float
    witness: Distribution | None
    starts: int
    evaluations: int


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of `v` (shape (..., n)) onto the
    probability simplex (sort-based). Rows are independent: each is projected
    with the arithmetic a lone vector gets."""
    n = v.shape[-1]
    rows = v.reshape(-1, n)
    u = np.sort(rows)[:, ::-1]
    shifts = (1.0 - u.cumsum(1)) / np.arange(1.0, n + 1.0)
    # the shift at the last sorted entry that stays positive
    last = n - 1 - (u + shifts > 0.0)[:, ::-1].argmax(1)
    tau = shifts[np.arange(len(rows)), last]
    return np.maximum(rows + tau[:, None], 0.0).reshape(v.shape)


def _simplex_grid(dim: int, subdivisions: int) -> np.ndarray:
    """All points of the simplex with coordinates that are multiples of
    1/subdivisions, in lexicographic order of their coordinates."""
    m = subdivisions
    parts, left = np.zeros((1, 0), dtype=int), np.array([m])
    for _ in range(dim - 1):
        # every prefix branches into each next part from 0 up to what is left
        counts = left + 1
        branch = np.repeat(np.arange(len(left)), counts)
        part = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        parts, left = np.column_stack([parts[branch], part]), left[branch] - part
    return np.column_stack([parts, left]) / m


def _grid_size(dim: int, subdivisions: int) -> int:
    return math.comb(subdivisions + dim - 1, dim - 1)


def _descend(objective, gradient, starts: np.ndarray):
    """Armijo-backtracked projected gradient descent from every row of
    `starts` at once; returns (x, f(x), evaluations), one entry per row.

    Each row takes exactly the steps a lone start would. An outer step (at
    most _MAX_ITERS) takes the gradient and tries steps from the row's
    `scale` on, halving up to 50 times until one passes the Armijo test. A
    row stops when a trial step does not move, when no trial passes, or
    after an accepted step that moved less than 1e-20. Every pass of the
    loop makes one trial step for each live row, so rows keep their own
    outer-step and halving counts and none waits for another's halvings.
    The objective and gradient also see rows whose value they do not count,
    which leaves the other rows' bits alone.
    """
    x = project_to_simplex(np.asarray(starts, dtype=float))
    fx = objective(x)
    n = len(x)
    out_x, out_fx, out_evals = x.copy(), fx.copy(), np.ones(n, dtype=int)
    # the live rows: start index, evaluations, step scale and size, gradient,
    # outer steps and halvings taken, and whether an outer step begins
    ids, evals = np.arange(n), np.ones(n, dtype=int)
    scale, alpha, g = np.ones(n), np.ones(n), np.zeros_like(x)
    steps, halvings = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    fresh = np.ones(n, dtype=bool)
    while ids.size:
        if fresh.any():
            g_now = np.nan_to_num(gradient(x), nan=0.0, posinf=1e6, neginf=-1e6)
            g = np.where(fresh[:, None], g_now, g)
            alpha = np.where(fresh, scale, alpha)
            halvings[fresh] = 0
        y = project_to_simplex(x - alpha[:, None] * g)
        diff = x - y
        move = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        fy = objective(y)
        moved = move != 0.0
        evals += moved
        accepted = moved & (fy <= fx - 1e-4 * move / alpha)
        x = np.where(accepted[:, None], y, x)
        fx = np.where(accepted, fy, fx)
        scale = np.where(accepted, np.minimum(alpha * 2.0, 64.0), scale)
        steps += accepted
        alpha = np.where(accepted, alpha, alpha * 0.5)
        halvings += ~accepted
        stop = ~moved | (halvings == 50) | (accepted & ((move < 1e-20) | (steps == _MAX_ITERS)))
        fresh = accepted
        if stop.any():
            done = ids[stop]
            out_x[done], out_fx[done], out_evals[done] = x[stop], fx[stop], evals[stop]
            live = ~stop
            ids, evals, scale, alpha, g, steps, halvings, fresh, x, fx = (
                a[live] for a in (ids, evals, scale, alpha, g, steps, halvings, fresh, x, fx)
            )
    return out_x, out_fx, out_evals


def dc_minimize(
    objective,
    gradient,
    dim: int,
    cfg: RunConfig = RunConfig(),
    grid_objective=None,
) -> MinimizationResult:
    """Minimize a (typically difference-of-concave) function over the simplex.

    `objective` maps points of shape (S, dim) to values of shape (S,), and
    `gradient` maps them to gradients of shape (S, dim); each row must get
    the bits a lone point would, so that every start descends as it would
    alone. `grid_objective`, if given, evaluates the grid instead of
    `objective` (say, with one matrix product over the whole grid); it only
    picks the grid's start.

    Runs projected gradient descent from the uniform point, every vertex,
    `cfg.starts` Dirichlet draws seeded by `cfg.seed`, and the best point of a
    deterministic grid (searched whenever its size stays under a megapoint),
    all starts as one batch. Every candidate value is a descent value, so the
    reported value replays exactly at the reported minimizer. Ties are broken
    toward the lexicographically smallest minimizer, so results are
    reproducible regardless of evaluation order.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    evals = 0

    rng = np.random.default_rng(cfg.seed)
    starts = [np.full((1, dim), 1.0 / dim), np.eye(dim)]
    if cfg.starts > 0:
        starts.append(rng.dirichlet(np.ones(dim), size=cfg.starts))

    subdivisions = _AUTO_SUBDIVISIONS.get(dim, 6)
    if _grid_size(dim, subdivisions) <= _GRID_LIMIT:
        grid = _simplex_grid(dim, subdivisions)
        values = np.asarray((grid_objective or objective)(grid), dtype=float)
        evals += len(grid)
        # the descent from the grid's best point is a candidate no worse than
        # it; a grid value may differ from a descent value in the last bits,
        # so it never becomes a candidate
        starts.append(grid[int(values.argmin())][None])

    x, fx, used = _descend(objective, gradient, np.concatenate(starts))
    best = min(range(len(x)), key=lambda i: (float(fx[i]), tuple(x[i])))
    return MinimizationResult(float(fx[best]), x[best], len(x), evals + int(used.sum()))


def _rate_gap(ch_minus: Channel, ch_plus: Channel, c_minus: float = 1.0, c_plus: float = 1.0):
    """Objective p -> I(p; ch_plus)/c_plus - I(p; ch_minus)/c_minus in bits,
    and its gradient, both batch-first over points p of shape (S, |X|). The
    gradient of I(X;Y) in p(x) is D(W(.|x) || p_Y) less a constant, and
    projection onto the simplex ignores constant shifts. The objective's
    `one_product` takes the grid's path of `information`."""
    rows_m, rne_m = ch_minus.reduced_rows, ch_minus.reduced_neg_ent
    rows_p, rne_p = ch_plus.reduced_rows, ch_plus.reduced_neg_ent

    def objective(p, one_product=False):
        return (
            information(p, rows_p, rne_p, one_product) / c_plus
            - information(p, rows_m, rne_m, one_product) / c_minus
        )

    def gradient(p):
        return (
            row_divergences(rows_p, rne_p, _point_dot(p, rows_p)) / LN2 / c_plus
            - row_divergences(rows_m, rne_m, _point_dot(p, rows_m)) / LN2 / c_minus
        )

    return objective, gradient


def _divergence_gap(ch1: Channel, ch2: Channel, rep1: CapacityReport, rep2: CapacityReport):
    """Objective p -> D(p_Y || r*)/c1 - D(p_Z || s*)/c2 in bits against the
    optimal outputs, and its gradient, batch-first as in `_rate_gap`. The
    gradient of D(p_Y || r) in p(x) is sum_y W(y|x) ln(p_Y(y)/r(y)) plus a
    constant."""
    c1, c2 = rep1.capacity, rep2.capacity
    rows1, ref1 = ch1.reduced_rows, rep1.optimal_output.probs[ch1.reachable]
    rows2, ref2 = ch2.reduced_rows, rep2.optimal_output.probs[ch2.reachable]

    def objective(p, one_product=False):
        dot = np.matmul if one_product else _point_dot
        return kl(dot(p, rows1), ref1) / c1 - kl(dot(p, rows2), ref2) / c2

    def gradient(p):
        return (
            row_log_ratios(rows1, _point_dot(p, rows1), ref1) / c1
            - row_log_ratios(rows2, _point_dot(p, rows2), ref2) / c2
        ) / LN2

    return objective, gradient


def _search(gap, alphabet, cfg: RunConfig) -> SearchVerdict:
    """Minimize a check's objective (from `_rate_gap` or `_divergence_gap`),
    the grid in one product, and judge the minimum at `cfg.violation_tol`."""
    objective, gradient = gap
    grid_objective = partial(objective, one_product=True)
    res = dc_minimize(objective, gradient, len(alphabet), cfg, grid_objective)
    if res.value < -cfg.violation_tol:
        witness = Distribution(alphabet, res.argmin)
        return SearchVerdict(VIOLATED, res.value, witness, res.starts, res.evaluations)
    return SearchVerdict(HOLDS_UP_TO_SEARCH, res.value, None, res.starts, res.evaluations)


def _require_shared_input(ch1: Channel, ch2: Channel):
    if ch1.input != ch2.input:
        raise AlphabetMismatchError("checks need channels with a shared input alphabet")


def more_capable_check(ch1: Channel, ch2: Channel, cfg: RunConfig = RunConfig()) -> SearchVerdict:
    """Does I(X;Y) >= I(X;Z) hold for every input distribution?

    Minimizes the difference; a minimum below -violation_tol refutes the
    ordering and the witness input is returned.
    """
    _require_shared_input(ch1, ch2)
    return _search(_rate_gap(ch2, ch1), ch1.input, cfg)


def ratio_condition_check(
    ch1: Channel,
    ch2: Channel,
    c1: float,
    c2: float,
    cfg: RunConfig = RunConfig(),
) -> SearchVerdict:
    """Does I(X;Y)/c1 <= I(X;Z)/c2 hold for every input distribution?

    Minimizes I(X;Z)/c2 - I(X;Y)/c1, so the reported gap is dimensionless
    (information rates normalized by the respective capacities).
    """
    _require_shared_input(ch1, ch2)
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("the per-capacity ratio condition needs positive capacities")
    return _search(_rate_gap(ch1, ch2, c1, c2), ch1.input, cfg)


def divergence_form_check(
    ch1: Channel,
    ch2: Channel,
    rep1: CapacityReport,
    rep2: CapacityReport,
    cfg: RunConfig = RunConfig(),
) -> SearchVerdict:
    """Capacity-normalized output-divergence form of the ratio condition:
    minimize D(p_Y || r*)/c1 - D(p_Z || s*)/c2.

    Only valid when every input symbol participates in some optimizer of each
    channel (full support union), which is exactly when the two objectives
    coincide pointwise with the ratio form.
    """
    _require_shared_input(ch1, ch2)
    for name, rep in (("first", rep1), ("second", rep2)):
        if not full_support(rep):
            raise AssumptionNotMetError(
                f"the {name} channel's optimizers miss part of the input alphabet; "
                "the divergence form does not apply"
            )
    if rep1.capacity <= 0.0 or rep2.capacity <= 0.0:
        raise ValueError("the divergence form needs positive capacities")
    return _search(_divergence_gap(ch1, ch2, rep1, rep2), ch1.input, cfg)


@dataclass(frozen=True, eq=False)
class VertexScreen:
    """Exact point-mass divergence tables for the two sufficient-condition
    inequality families, one row per input symbol.

    Family one compares each symbol's first-channel divergence, taken against
    the first-channel image of the *second* channel's optimizer, with its
    second-channel peak divergence. Family two compares, after dividing by
    the respective capacities, each symbol's second-channel divergence against
    the first-channel peak divergence, anchored at the *first* channel's
    optimizer.
    """

    symbols: tuple[str, ...]
    c1: float
    c2: float
    div_first_at_second_mix: np.ndarray   # D(p(y|x) || s_Y)
    div_second_peak: np.ndarray           # D(p(z|x) || s*_Z)
    div_second_at_first_mix: np.ndarray   # D(p(z|x) || r_Z)
    div_first_peak: np.ndarray            # D(p(y|x) || r*_Y)
    first_family_holds: bool
    second_family_holds: bool
    mixed_output_gap: float               # max |r_Z - s*_Z|
    mixed_output_is_optimal: bool


def vertex_screen(
    ch1: Channel,
    ch2: Channel,
    rep1: CapacityReport,
    rep2: CapacityReport,
) -> VertexScreen:
    """Evaluate both point-mass inequality families exactly (no search).

    When family two holds, the second-channel image of the first channel's
    optimizer can be checked against the second channel's optimal output;
    agreement is reported in `mixed_output_gap`.
    """
    _require_shared_input(ch1, ch2)
    s_y = push_forward(rep2.achieving_input, ch1)
    r_z = push_forward(rep1.achieving_input, ch2)

    div1_mix = kl(ch1.rows, s_y.probs)
    div2_mix = kl(ch2.rows, r_z.probs)
    div1_peak = rep1.divergence_profile
    div2_peak = rep2.divergence_profile

    first_holds = bool(np.all(div1_mix <= div2_peak + _SCREEN_TOL))
    second_holds = bool(
        np.all(div2_mix / rep2.capacity <= div1_peak / rep1.capacity + _SCREEN_TOL)
    )
    gap = float(np.abs(r_z.probs - rep2.optimal_output.probs).max())
    return VertexScreen(
        symbols=ch1.input.symbols,
        c1=rep1.capacity,
        c2=rep2.capacity,
        div_first_at_second_mix=div1_mix,
        div_second_peak=div2_peak,
        div_second_at_first_mix=div2_mix,
        div_first_peak=div1_peak,
        first_family_holds=first_holds,
        second_family_holds=second_holds,
        mixed_output_gap=gap,
        mixed_output_is_optimal=second_holds and gap <= 1e-6,
    )


@dataclass(frozen=True, eq=False)
class PerturbationProbe:
    """Inputs for the small-mixture expansion: write the mixing distribution
    as mixing = eps * base + (1 - eps) * complement and measure how much a
    binary selector of the two branches tells the receiver."""

    base: Distribution
    mixing: Distribution
    epsilons: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class PerturbationResult:
    epsilons: tuple[float, ...]
    rates: tuple[float, ...]        # I(V;Y) per epsilon, bits
    slopes: tuple[float, ...]       # I(V;Y)/eps per epsilon
    remainders: tuple[float, ...]   # |I(V;Y) - eps * divergence|
    fitted_slope: float             # slopes extrapolated to eps -> 0
    remainder_exponent: float       # log-log growth rate of the remainder
    divergence: float               # D(base_Y || mixing_Y), the predicted slope


def perturbation_feasibility_bound(base: Distribution, mixing: Distribution) -> float:
    """Largest mixture weight of `base` that keeps the complement a
    distribution: min over the base's support of mixing(x)/base(x)."""
    if base.alphabet != mixing.alphabet:
        raise AlphabetMismatchError("base and mixing must share an alphabet")
    mask = base.probs > 0.0
    return float((mixing.probs[mask] / base.probs[mask]).min())


def perturbation_identity_check(probe: PerturbationProbe, ch: Channel) -> PerturbationResult:
    """First-order expansion of the selector information rate.

    With V indicating the base branch (weight eps) of the mixture, I(V;Y)
    equals eps * D(base_Y || mixing_Y) up to a quadratic remainder; the
    result carries the measured slopes and the empirical remainder exponent.
    """
    base, mixing = probe.base, probe.mixing
    if base.alphabet != ch.input:
        raise AlphabetMismatchError("probe distributions must live on the channel input alphabet")
    bound = perturbation_feasibility_bound(base, mixing)
    for eps in probe.epsilons:
        if not 0.0 < eps < bound:
            raise ValueError(
                f"mixture weight {eps} outside (0, {bound!r}), the feasible range "
                "for this base/mixing pair"
            )

    base_y = push_forward(base, ch).probs
    mix_y = push_forward(mixing, ch).probs
    d_ref = float(kl(base_y, mix_y))

    rates, slopes, remainders = [], [], []
    for eps in probe.epsilons:
        comp = (mixing.probs - eps * base.probs) / (1.0 - eps)
        branches = np.vstack([base_y, np.maximum(comp, 0.0) @ ch.rows])
        rate = float(information(np.array([eps, 1.0 - eps]), branches, neg_entropy(branches)))
        rates.append(rate)
        slopes.append(rate / eps)
        remainders.append(abs(rate - eps * d_ref))

    eps_arr = np.asarray(probe.epsilons, dtype=float)
    if len(eps_arr) >= 2:
        fitted = float(np.polyfit(eps_arr, slopes, 1)[1])
        if min(remainders) > 0.0:
            exponent = float(np.polyfit(np.log(eps_arr), np.log(remainders), 1)[0])
        else:
            exponent = math.inf
    else:
        fitted = slopes[0]
        exponent = math.nan

    return PerturbationResult(
        epsilons=tuple(probe.epsilons),
        rates=tuple(rates),
        slopes=tuple(slopes),
        remainders=tuple(remainders),
        fitted_slope=fitted,
        remainder_exponent=exponent,
        divergence=d_ref,
    )

