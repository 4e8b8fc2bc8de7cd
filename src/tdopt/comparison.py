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
    FLOOR,
    LN2,
    AlphabetMismatchError,
    Channel,
    Distribution,
    information,
    kl,
    neg_entropy,
    push_forward,
    xlogx_form,
)

HOLDS_UP_TO_SEARCH = "HOLDS_UP_TO_SEARCH"
VIOLATED = "VIOLATED"

_GRID_LIMIT = 1_000_000
_START_CELL_LIMIT = 1_000_000  # cells of the random starts, starts x |X|
_AUTO_SUBDIVISIONS = {1: 1, 2: 1000, 3: 100, 4: 40, 5: 20, 6: 10, 7: 8, 8: 7}
_MAX_ITERS = 400     # projected-gradient steps per start
_MEMORY = 5          # accepted values the nonmonotone Armijo test looks back over
_LADDER = 8          # halvings a row whose trial failed tries per pass of the descent
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


def _finite(g: np.ndarray) -> np.ndarray:
    """Gradients with NaN entries set to 0 and infinite ones to +-1e6."""
    return g if np.isfinite(g).all() else np.nan_to_num(g, nan=0.0, posinf=1e6, neginf=-1e6)


def _lex_less(fa, xa, fb, xb) -> np.ndarray:
    """Rows where (fa, xa) comes before (fb, xb): a lower value, or an equal
    one at a lexicographically smaller point."""
    first = (xa != xb).argmax(1)
    at = np.arange(len(xa))
    return (fa < fb) | ((fa == fb) & (xa[at, first] < xb[at, first]))


def _descend(evaluate, starts: np.ndarray, checks: np.ndarray):
    """Projected gradient descent with a nonmonotone Armijo test from every
    row of `starts` at once; returns (x, f(x), evaluations), one entry per
    row, where x is the best point the row reached. `evaluate` takes points
    and each point's label from `checks` (one per start), so several
    objectives can share the batch, and returns their values and gradients.

    Each row takes exactly the steps a lone start would. An outer step (at
    most _MAX_ITERS) tries steps from a first one on, halving up to 50 times
    until one passes the test of Grippo, Lampariello & Lucidi: its value is
    at most the largest of the row's last _MEMORY accepted values (the start
    counting as one) less 1e-4 times the squared move over the step. The
    first is the spectral (Barzilai-Borwein) step <s,s>/<s,y>, capped at 64,
    where s is the row's last accepted move and y the change of its gradient
    over that move; on the first outer step, or where <s,y> <= 0 (the
    objectives are differences of concave functions, so curvature can be
    negative), it is the row's `scale`, twice its last accepted step up to
    64. A row stops when a trial step does not move, when no trial passes,
    or after an accepted step that moved less than 1e-20. Since accepted
    values may rise, each row keeps its best point, of lowest value and then
    lexicographically smallest, and reports it, so the reported value is the
    one evaluated there.

    Every pass of the loop makes each live row's next trials at once, laid
    out flat and indexed by row: a row beginning an outer step tries its
    first step alone, and a row whose trial failed tries its next
    min(_LADDER, 50 - halvings) halvings, so that a 50th failure ends its
    pass. The row keeps its first decisive trial: it passed, did not move,
    or was the last of the pass. It is credited
    the evaluations and halvings of the trials up to that one, so rows keep
    their own outer-step and halving counts and none waits for another's
    halvings. An accepted trial's gradient is the one evaluated with its
    value. Halving by 0.5 is exact, and `evaluate` also sees trials whose
    value no row counts, which leaves the counted rows' bits alone.
    """
    x = project_to_simplex(np.asarray(starts, dtype=float))
    labels = np.asarray(checks)
    fx, g = (np.array(a, dtype=float) for a in evaluate(x, labels))  # updated in place below
    g = _finite(g)
    n = len(x)
    out_x, out_fx, out_evals = x.copy(), fx.copy(), np.ones(n, dtype=int)
    # the live rows: start index, label, evaluations, point and gradient,
    # best point and value, last _MEMORY accepted values, step scale and
    # next trial step, outer steps and halvings taken, and whether an outer
    # step begins
    ids, evals = np.arange(n), np.ones(n, dtype=int)
    best_x, best_f, recent = x.copy(), fx, np.repeat(fx[:, None], _MEMORY, 1)
    scale, alpha = np.ones(n), np.ones(n)
    steps, halvings = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    fresh = np.ones(n, dtype=bool)
    while ids.size:
        counts = np.where(fresh, 1, np.minimum(_LADDER, 50 - halvings))
        ends = counts.cumsum()
        firsts = ends - counts
        row = np.repeat(np.arange(len(ids)), counts)
        rung = np.arange(ends[-1]) - firsts[row]
        alphas = alpha[row] * 0.5**rung
        at = x[row]
        y = project_to_simplex(at - alphas[:, None] * g[row])
        diff = at - y
        move = (diff[:, None, :] @ diff[:, :, None]).ravel()
        fy, gy = evaluate(y, labels[row])
        moved = move != 0.0
        passed = moved & (fy <= recent.max(1)[row] - 1e-4 * move / alphas)
        # the trial that counts: the row's first that passed or did not
        # move, else its last, which is the 50th to fail when that comes
        decisive = ~moved | passed
        decisive[ends - 1] = True
        hits = np.flatnonzero(decisive)
        pick = hits[np.searchsorted(hits, firsts)]
        t = pick - firsts
        move, moved, accepted, alpha = (a.take(pick) for a in (move, moved, passed, alphas))
        # every trial before the one that counts moved and failed
        evals += t + moved
        halvings += t + (moved & ~accepted)
        steps += accepted
        if accepted.any():
            on = np.flatnonzero(accepted)
            new_x, new_f, new_g = y[pick[on]], fy[pick[on]], _finite(gy[pick[on]])
            s = new_x - x[on]
            ss, sy = ((s[:, None, :] @ v[:, :, None]).ravel() for v in (s, new_g - g[on]))
            scale[on] = np.minimum(alpha[on] * 2.0, 64.0)
            alpha[on] = np.minimum(np.divide(ss, sy, out=scale[on], where=sy > 0.0), 64.0)
            x[on], g[on], halvings[on] = new_x, new_g, 0
            recent[on, steps[on] % _MEMORY] = new_f
            better = _lex_less(new_f, new_x, best_f[on], best_x[on])
            best_x[on[better]], best_f[on[better]] = new_x[better], new_f[better]
        stop = ~moved | (halvings >= 50) | (accepted & ((move < 1e-20) | (steps == _MAX_ITERS)))
        alpha = np.where(accepted, alpha, alpha * 0.5)
        fresh = accepted
        if stop.any():
            done = ids[stop]
            out_x[done], out_fx[done], out_evals[done] = best_x[stop], best_f[stop], evals[stop]
            live = ~stop
            ids, labels, evals, x, g, best_x, best_f, recent, scale, alpha, steps, halvings, fresh = (
                a[live] for a in (ids, labels, evals, x, g, best_x, best_f, recent, scale, alpha, steps,
                                  halvings, fresh)
            )
    return out_x, out_fx, out_evals


def dc_minimize(
    evaluate,
    dim: int,
    cfg: RunConfig = RunConfig(),
    grid_objective=None,
    checks: int | None = None,
) -> MinimizationResult | JointMinimization:
    """Minimize a (typically difference-of-concave) function over the simplex.

    `evaluate` maps points of shape (S, dim) to their values, shape (S,), and
    gradients, shape (S, dim); each row must get the bits a lone point
    would, so that every start descends as it would alone.
    `grid_objective`, if given, evaluates the grid's values instead of
    `evaluate` (say, with one matrix product over the whole grid); it only
    picks the grid's start.

    Runs projected gradient descent with a nonmonotone Armijo test, each
    outer step first trying the spectral step (see `_descend`), from the
    uniform point, every vertex, `cfg.starts` Dirichlet draws seeded by
    `cfg.seed`, and the best point of a deterministic grid (searched
    whenever its size stays under a megapoint), all starts as one batch.
    Every candidate value is a descent value, the best one a start reached,
    so the reported value replays exactly at the reported minimizer. Ties
    are broken toward the lexicographically smallest minimizer, so results
    are reproducible regardless of evaluation order.

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
    if single:  # a function of the points alone
        grid_objective = (lambda grid, f=grid_objective, e=evaluate: [f(grid) if f else e(grid)[0]])
        evaluate = (lambda p, k, e=evaluate: e(p))
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
    labels = np.repeat(np.arange(checks), per)
    x, fx, used = _descend(evaluate, starts, labels)
    grid_evals = 0 if grid is None else len(grid)
    # each check's rows by value, then point, in one stable sort: a check's
    # first row is its best
    order = np.lexsort((*x.T[::-1], fx, labels))
    results = [
        MinimizationResult(float(fx[best]), x[best], per, grid_evals + int(used[k * per : (k + 1) * per].sum()))
        for k, best in enumerate(order[::per])
    ]
    return results[0] if single else JointMinimization(tuple(results), sum(r.evaluations for r in results))


def _check_terms(name: str, c1: float = 1.0, c2: float = 1.0) -> tuple[float, float, bool]:
    """Check `name` between channels of capacities c1 and c2, as
    `_pair_gaps` reads it: (d1, d2, divergence). The check minimizes
    t1/d1 + t2/d2 over the two channels' terms; 1/(-c) is -(1/c) to the bit,
    so a check and its mirror, the same channels with d1 and d2 negated and
    swapped, take the same coefficients up to sign."""
    return {
        "more_capable_forward": (1.0, -1.0, False),  # I1 - I2
        "more_capable_backward": (-1.0, 1.0, False),  # I2 - I1
        "ratio_condition": (-c1, c2, False),  # I2/c2 - I1/c1
        "divergence_form": (c1, -c2, True),  # D1/c1 - D2/c2
    }[name]


def _pair_gaps(ch1: Channel, ch2: Channel, terms, refs=(None, None)):
    """`dc_minimize`'s value-and-gradient function and grid objective for
    the checks `terms` (`_check_terms`) between ch1 and ch2, in bits.

    A check's terms are I(p; ch1) and I(p; ch2), or D(p ch1 || refs[0]) and
    D(p ch2 || refs[1]). Over the stacked product q = p @ [W1 | W2] each
    check is one row of coefficients of `core.xlogx_form`: since
    I = p.neg_ent - sum q ln q and D = sum q ln q - p.(W ln r), the check
    t1/d1 + t2/d2 takes a = -1/d (rates) or +1/d (divergences) on each
    channel's outputs and u = neg_ent/d or -(W ln r)/d summed over the two
    channels, all over ln 2. Its gradient, D(W(.|x) || p_Y) and
    sum_y W(y|x) ln(p_Y(y)/r(y)) summed the same way up to constants, comes
    from the same evaluation. Every point takes its own product and its own
    check's coefficients, so its bits are its check's alone. The channels
    are stacked in an order fixed by their bytes (twin channels by their
    d), so a check of (ch2, ch1) and its mirror on (ch1, ch2) take the same
    arithmetic and agree to the bit. The grid takes one product over the
    whole grid for all checks."""

    def order(sides):  # by the channels' bytes, twin channels by their scale
        return sorted(sides, key=lambda s: (s[0].reduced_rows.shape, s[0].reduced_rows.tobytes(), s[1]))

    rows = np.hstack([ch.reduced_rows for ch, _, _ in order([(ch1, 0.0, None), (ch2, 0.0, None)])])
    a, u = [], []
    for d1, d2, divergence in terms:
        sides = order([(ch1, d1 * LN2, refs[0]), (ch2, d2 * LN2, refs[1])])
        sign = 1.0 if divergence else -1.0
        a.append(np.concatenate([np.full(ch.reduced_rows.shape[1], sign / s) for ch, s, _ in sides]))
        first, second = (
            (-(ch.reduced_rows @ np.log(ref)) if divergence else ch.reduced_neg_ent) / s for ch, s, ref in sides
        )
        u.append(first + second)
    a, u = np.array(a), np.array(u)

    def evaluate(p, k):
        return xlogx_form(p, rows, a.take(k, 0), u.take(k, 0))

    def grid_objective(grid):
        # q ln q in place, 0 ln 0 = 0 by the floor: the grid is large, so no
        # more than one temporary of its stacked product's size
        q = grid @ rows
        log_q = np.maximum(q, FLOOR)
        q *= np.log(log_q, out=log_q)
        for a_k, u_k in zip(a, u):
            yield q @ a_k + grid @ u_k

    return evaluate, grid_objective


def _search(ch1: Channel, ch2: Channel, terms, cfg: RunConfig, refs=(None, None)) -> list[SearchVerdict]:
    """Minimize the checks `terms` between ch1 and ch2 in one descent and
    judge each minimum at `cfg.violation_tol`."""
    evaluate, grid_objective = _pair_gaps(ch1, ch2, terms, refs)
    joint = dc_minimize(evaluate, len(ch1.input), cfg, grid_objective, len(terms))
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

