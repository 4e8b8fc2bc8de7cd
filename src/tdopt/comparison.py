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

import numpy as np

from .capacity import OUTPUT_TOL, CapacityReport, full_support
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
_START_CELL_LIMIT = 1_000_000  # cells of the random starts, starts x |X|
_AUTO_SUBDIVISIONS = {1: 1, 2: 1000, 3: 100, 4: 40, 5: 20, 6: 10, 7: 8, 8: 7}
_MAX_ITERS = 400     # projected-gradient steps per start
_TRIALS = 3          # backtracking trials each start makes per pass of the descent
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
class JointMinimization:
    """One result per objective of a shared descent, and their evaluations."""

    results: tuple[MinimizationResult, ...]
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


def _descend(objective, gradient, starts: np.ndarray, checks: np.ndarray):
    """Armijo-backtracked projected gradient descent from every row of
    `starts` at once; returns (x, f(x), evaluations), one entry per row.
    The objective and gradient take each point's label from `checks` (one
    per start) after the points, so several objectives can share the batch.

    Each row takes exactly the steps a lone start would. An outer step (at
    most _MAX_ITERS) takes the gradient and tries steps from the row's
    `scale` on, halving up to 50 times until one passes the Armijo test. A
    row stops when a trial step does not move, when no trial passes, or
    after an accepted step that moved less than 1e-20. Every pass of the
    loop makes the next _TRIALS trials of each live row at once (steps
    alpha, alpha/2, ... from the same point and gradient), and the row keeps
    its first decisive one: it passed, did not move, or was the 50th to
    fail. The row is credited the evaluations and halvings of the trials up
    to that one, so rows keep their own outer-step and halving counts and
    none waits for another's halvings. Halving by 0.5 is exact, and the
    objective and gradient also see trials and rows whose value they do not
    count, which leaves the counted rows' bits alone.
    """
    x = project_to_simplex(np.asarray(starts, dtype=float))
    fx = objective(x, checks)
    n, dim = x.shape
    out_x, out_fx, out_evals = x.copy(), fx.copy(), np.ones(n, dtype=int)
    # the live rows: start index, label, evaluations, step scale and size,
    # gradient, outer steps and halvings taken, and whether an outer step begins
    ids, labels, evals = np.arange(n), np.asarray(checks), np.ones(n, dtype=int)
    scale, alpha, g = np.ones(n), np.ones(n), np.zeros_like(x)
    steps, halvings = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    fresh = np.ones(n, dtype=bool)
    halved, trial = 0.5 ** np.arange(_TRIALS), np.arange(1, _TRIALS + 1)
    # the live rows' trial labels, and the flat index of each live row's first trial
    trial_labels, first = np.repeat(labels, _TRIALS), np.arange(0, n * _TRIALS, _TRIALS)
    while ids.size:
        if fresh.any():
            g_new = gradient(x[fresh], labels[fresh])
            if not np.isfinite(g_new).all():
                g_new = np.nan_to_num(g_new, nan=0.0, posinf=1e6, neginf=-1e6)
            g[fresh], alpha[fresh], halvings[fresh] = g_new, scale[fresh], 0
        alphas = alpha[:, None] * halved
        y = project_to_simplex(x[:, None, :] - alphas[:, :, None] * g[:, None, :])
        diff = (x[:, None, :] - y).reshape(-1, dim)
        move = (diff[:, None, :] @ diff[:, :, None]).reshape(alphas.shape)
        fy = objective(y.reshape(-1, dim), trial_labels).reshape(alphas.shape)
        moved = move != 0.0
        passed = moved & (fy <= fx[:, None] - 1e-4 * move / alphas)
        decisive = ~moved | passed | (halvings[:, None] + trial == 50)
        # the trial that counts: the first decisive one, else the last
        decisive[:, -1] = True
        t = decisive.argmax(1)
        counts = first + t
        y = y.reshape(-1, dim)[counts]
        move, fy, moved, accepted, alpha = (a.take(counts) for a in (move, fy, moved, passed, alphas))
        # every trial before the one that counts moved and failed
        evals += t + moved
        halvings += t + (moved & ~accepted)
        x = np.where(accepted[:, None], y, x)
        fx = np.where(accepted, fy, fx)
        scale = np.where(accepted, np.minimum(alpha * 2.0, 64.0), scale)
        steps += accepted
        alpha = np.where(accepted, alpha, alpha * 0.5)
        stop = ~moved | (halvings >= 50) | (accepted & ((move < 1e-20) | (steps == _MAX_ITERS)))
        fresh = accepted
        if stop.any():
            done = ids[stop]
            out_x[done], out_fx[done], out_evals[done] = x[stop], fx[stop], evals[stop]
            live = ~stop
            ids, labels, evals, scale, alpha, g, steps, halvings, fresh, x, fx = (
                a[live] for a in (ids, labels, evals, scale, alpha, g, steps, halvings, fresh, x, fx)
            )
            trial_labels, first = np.repeat(labels, _TRIALS), first[: len(ids)]
    return out_x, out_fx, out_evals


def dc_minimize(
    objective,
    gradient,
    dim: int,
    cfg: RunConfig = RunConfig(),
    grid_objective=None,
    checks: int | None = None,
) -> MinimizationResult | JointMinimization:
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

    With `checks` = K, K objectives share the random starts and one descent
    (as in `_descend`, labelled by objective), `grid_objective(grid)` yields
    each one's grid values in turn, and a `JointMinimization` is returned.
    Each objective keeps its own grid start, tie-break and evaluation count.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if cfg.starts * dim > _START_CELL_LIMIT:
        raise ValueError(
            f"{cfg.starts} random starts would need {cfg.starts * dim} cells "
            f"(limit {_START_CELL_LIMIT}); reduce the starts"
        )
    single = checks is None
    if single:  # functions of the points alone
        grid_objective = (lambda grid, f=grid_objective or objective: [f(grid)])
        objective, gradient = ((lambda p, k, f=f: f(p)) for f in (objective, gradient))
        checks = 1

    rng = np.random.default_rng(cfg.seed)
    shared = [np.full((1, dim), 1.0 / dim), np.eye(dim)]
    if cfg.starts > 0:
        shared.append(rng.dirichlet(np.ones(dim), size=cfg.starts))
    subdivisions = _AUTO_SUBDIVISIONS.get(dim, 6)
    grid = _simplex_grid(dim, subdivisions) if _grid_size(dim, subdivisions) <= _GRID_LIMIT else None
    # the descent from the grid's best point is a candidate no worse than it;
    # a grid value may differ from a descent value in the last bits, so it
    # never becomes a candidate
    picks = [] if grid is None else [grid[[int(np.argmin(v))]] for v in grid_objective(grid)]
    starts = np.concatenate([s for k in range(checks) for s in shared + picks[k : k + 1]])
    per = len(starts) // checks
    x, fx, used = _descend(objective, gradient, starts, np.repeat(np.arange(checks), per))
    grid_evals = 0 if grid is None else len(grid)
    results = []
    for rows in np.split(np.arange(len(x)), checks):
        best = min(rows, key=lambda i: (float(fx[i]), tuple(x[i])))
        results.append(MinimizationResult(float(fx[best]), x[best], per, grid_evals + int(used[rows].sum())))
    return results[0] if single else JointMinimization(tuple(results), sum(r.evaluations for r in results))


def _check_terms(name: str, c1: float = 1.0, c2: float = 1.0) -> tuple[float, float, bool]:
    """Check `name` between channels of capacities c1 and c2, as
    `_pair_gaps` reads it: (d1, d2, divergence). The check minimizes
    t1/d1 + t2/d2 over the two channels' terms; x/(-c) is -(x/c), a - b is
    a + (-b) and addition commutes, all to the bit, so the sum is the
    difference it stands for."""
    return {
        "more_capable_forward": (1.0, -1.0, False),  # I1 - I2
        "more_capable_backward": (-1.0, 1.0, False),  # I2 - I1
        "ratio_condition": (-c1, c2, False),  # I2/c2 - I1/c1
        "divergence_form": (c1, -c2, True),  # D1/c1 - D2/c2
    }[name]


def _pair_gaps(ch1: Channel, ch2: Channel, terms, refs=(None, None)):
    """`dc_minimize`'s objective, gradient and grid objective for the checks
    `terms` (`_check_terms`) between ch1 and ch2, in bits. A check's terms
    are I(p; ch1) and I(p; ch2), or D(p ch1 || refs[0]) and D(p ch2 ||
    refs[1]); their gradients are D(W(.|x) || p_Y) and sum_y W(y|x)
    ln(p_Y(y)/r(y)) up to constants, which projection ignores. Divisions are
    per point, dividing by 1.0 is exact and each form is taken at its
    checks' points only, so a point gets its check's bits alone. The grid
    takes one product per channel (see `information`) and each form once."""
    rows = (ch1.reduced_rows, ch2.reduced_rows)
    rne = (ch1.reduced_neg_ent, ch2.reduced_neg_ent)
    table = np.array(terms, dtype=float)

    def gap(c, t1, t2):  # `c`: a table row per point, or one row for every point
        d1, d2 = c[:, 0], c[:, 1]
        if t1.ndim > 1:  # gradients: one term per input symbol
            d1, d2 = d1[:, None], d2[:, None]
        return t1 / d1 + t2 / d2

    def by_form(rate, divergence):  # `rate` at rate checks' points, `divergence` at the others'
        def f(p, k):
            c = table.take(k, 0)
            div = c[:, 2] != 0.0
            n_div = np.count_nonzero(div)
            if n_div in (0, len(div)):
                return (divergence if n_div else rate)(p, c)
            on_rates = ~div
            at_rates, at_divergences = rate(p[on_rates], c[on_rates]), divergence(p[div], c[div])
            value = np.empty((len(p),) + at_rates.shape[1:])
            value[on_rates], value[div] = at_rates, at_divergences
            return value

        return f

    def rates(p, one_product=False):
        return [information(p, r, e, one_product) for r, e in zip(rows, rne)]

    def divergences(p, one_product=False):
        dot = np.matmul if one_product else _point_dot
        return [kl(dot(p, r), ref) for r, ref in zip(rows, refs)]

    def grid_objective(grid):
        forms = {}
        for i, c in enumerate(terms):
            if c[2] not in forms:
                forms[c[2]] = (divergences if c[2] else rates)(grid, one_product=True)
            yield gap(table[[i]], *forms[c[2]])

    objective = by_form(lambda p, c: gap(c, *rates(p)), lambda p, c: gap(c, *divergences(p)))
    gradient = by_form(
        lambda p, c: gap(c, *(row_divergences(r, e, _point_dot(p, r)) / LN2 for r, e in zip(rows, rne))),
        lambda p, c: gap(c, *(row_log_ratios(r, _point_dot(p, r), ref) for r, ref in zip(rows, refs))) / LN2,
    )
    return objective, gradient, grid_objective


def _search(ch1: Channel, ch2: Channel, terms, cfg: RunConfig, refs=(None, None)) -> list[SearchVerdict]:
    """Minimize the checks `terms` between ch1 and ch2 in one descent and
    judge each minimum at `cfg.violation_tol`."""
    objective, gradient, grid_objective = _pair_gaps(ch1, ch2, terms, refs)
    joint = dc_minimize(objective, gradient, len(ch1.input), cfg, grid_objective, len(terms))
    return [
        SearchVerdict(VIOLATED, r.value, Distribution(ch1.input, r.argmin), r.starts, r.evaluations)
        if r.value < -cfg.violation_tol
        else SearchVerdict(HOLDS_UP_TO_SEARCH, r.value, None, r.starts, r.evaluations)
        for r in joint.results
    ]


def _require_shared_input(ch1: Channel, ch2: Channel):
    if ch1.input != ch2.input:
        raise AlphabetMismatchError("checks need channels with a shared input alphabet")


def _require_positive(c1: float, c2: float, what: str):
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError(f"{what} needs positive capacities")


def pair_checks(
    rep1: CapacityReport, rep2: CapacityReport, names, cfg: RunConfig = RunConfig()
) -> dict[str, SearchVerdict]:
    """The checks `names` (keys of `_check_terms`) between the reports'
    channels in one descent, each verdict the lone check's to the bit; every
    check's assumptions are checked before any search."""
    ch1, ch2 = rep1.channel, rep2.channel
    _require_shared_input(ch1, ch2)
    c1, c2 = rep1.capacity, rep2.capacity
    if "ratio_condition" in names:
        _require_positive(c1, c2, "the per-capacity ratio condition")
    if "divergence_form" in names:
        for side, rep in (("first", rep1), ("second", rep2)):
            if not full_support(rep):
                raise AssumptionNotMetError(
                    f"the {side} channel's optimizers miss part of the input alphabet; "
                    "the divergence form does not apply"
                )
        _require_positive(c1, c2, "the divergence form")
    refs = tuple(rep.optimal_output.probs[rep.channel.reachable] for rep in (rep1, rep2))
    terms = [_check_terms(name, c1, c2) for name in names]
    return dict(zip(names, _search(ch1, ch2, terms, cfg, refs)))


def more_capable_check(ch1: Channel, ch2: Channel, cfg: RunConfig = RunConfig()) -> SearchVerdict:
    """Does I(X;Y) >= I(X;Z) hold for every input distribution?

    Minimizes the difference; a minimum below -violation_tol refutes the
    ordering and the witness input is returned.
    """
    _require_shared_input(ch1, ch2)
    return _search(ch1, ch2, [_check_terms("more_capable_forward")], cfg)[0]


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
    _require_positive(c1, c2, "the per-capacity ratio condition")
    return _search(ch1, ch2, [_check_terms("ratio_condition", c1, c2)], cfg)[0]


def divergence_form_check(
    rep1: CapacityReport, rep2: CapacityReport, cfg: RunConfig = RunConfig()
) -> SearchVerdict:
    """Capacity-normalized output-divergence form of the ratio condition
    between the channels of the reports `rep1` and `rep2`:
    minimize D(p_Y || r*)/c1 - D(p_Z || s*)/c2.

    Only valid when every input symbol participates in some optimizer of each
    channel (full support union), which is exactly when the two objectives
    coincide pointwise with the ratio form.
    """
    return pair_checks(rep1, rep2, ("divergence_form",), cfg)["divergence_form"]


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


def vertex_screen(rep1: CapacityReport, rep2: CapacityReport) -> VertexScreen:
    """Evaluate both point-mass inequality families exactly (no search), for
    the channels of the reports `rep1` and `rep2`.

    When family two holds, the second-channel image of the first channel's
    optimizer can be checked against the second channel's optimal output;
    agreement is reported in `mixed_output_gap`.
    """
    ch1, ch2 = rep1.channel, rep2.channel
    _require_shared_input(ch1, ch2)
    if rep1.capacity <= 0.0 or rep2.capacity <= 0.0:
        raise ValueError("the vertex screen needs positive capacities")
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
        mixed_output_is_optimal=second_holds and gap <= OUTPUT_TOL,
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

