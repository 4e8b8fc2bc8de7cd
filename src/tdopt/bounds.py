"""Rate-region machinery for two-receiver broadcast pairs.

Covers the time-division region test, evaluation of the inner-bound and
outer-bound constraint triples induced by auxiliary joints, the explicit
time-sharing auxiliary construction with its exact mixture identities, and
seeded region sampling that mixes Dirichlet draws with structured probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import CapacityReport
from .config import RunConfig
from .core import (
    Alphabet,
    AlphabetMismatchError,
    Channel,
    JointDistribution,
    _clean_probs,
    conditional_information,
    cube_information,
    extend_with_channel,
    extended_marginal,
    mutual_information_pair,
)

MARTON = "MARTON"
UV = "UV"
TD = "TD"

U_STAR = "__u_star"
V_STAR = "__v_star"

_CELL_LIMIT = 1_000_000
_BATCH = 512  # Dirichlet draws per seeded generator, evaluated at once


def td_region_contains(
    point, c1: float, c2: float, cfg: RunConfig = RunConfig()
) -> tuple[bool, float]:
    """Membership of the nonnegative rate pair `point` = (R1, R2), in bits per
    channel use, in {R1/c1 + R2/c2 <= 1}, plus the slack 1 - R1/c1 - R2/c2.
    A slack down to -cfg.violation_tol counts as inside, the margin sampled
    evidence and the searches judge at."""
    r1, r2 = point
    if r1 < 0.0 or r2 < 0.0:
        raise ValueError(f"rates must be nonnegative, got ({r1}, {r2})")
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("the time-division region needs positive capacities")
    slack = _td_slack(r1, r2, c1, c2)
    return slack >= -cfg.violation_tol, slack


def _td_slack(r1, r2, c1: float, c2: float):
    """1 - R1/c1 - R2/c2, for floats or arrays of rates."""
    return 1.0 - r1 / c1 - r2 / c2


@dataclass(frozen=True)
class RateConstraints:
    """Pentagon {R1 <= max_r1, R2 <= max_r2, R1+R2 <= max_sum} for one
    auxiliary choice."""

    max_r1: float
    max_r2: float
    max_sum: float

    def corners(self) -> np.ndarray:
        """The two Pareto corner points as rows (R1, R2) of a (2, 2) array,
        coordinates clamped at 0.

        Clamping can lift a corner off the pentagon only onto an axis
        segment already dominated by a single-user point, so the corners
        are always safe inputs to time-division slack checks.
        """
        return _corners(self.max_r1, self.max_r2, self.max_sum)


def _corners(max_r1, max_r2, max_sum) -> np.ndarray:
    """The corners of `RateConstraints.corners` for arrays of triples, shape
    (..., 2, 2): corner a then b, each as (R1, R2)."""
    a = (np.maximum(max_r1, 0.0), np.maximum(np.minimum(max_r2, max_sum - max_r1), 0.0))
    b = (np.maximum(np.minimum(max_r1, max_sum - max_r2), 0.0), np.maximum(max_r2, 0.0))
    return np.stack([np.stack(a, axis=-1), np.stack(b, axis=-1)], axis=-2)


def _require_pair(ch1: Channel, ch2: Channel, joint: JointDistribution, x_axis: int):
    if ch1.input != ch2.input:
        raise AlphabetMismatchError("channels must share the input alphabet")
    if joint.alphabets[x_axis] != ch1.input:
        raise AlphabetMismatchError(
            f"joint axis {x_axis} must carry the shared channel input alphabet"
        )


def _marton(probs: np.ndarray, rows1: np.ndarray, rows2: np.ndarray):
    """Inner-bound triples in bits for a batch of (U, V, W, X) joints, with
    outputs Y and Z through the channel matrices `rows1` and `rows2`. Each
    output marginal is taken once and serves every information it holds."""
    # (S, U, W, Y): I(U,W;Y) reads it as it is, I(U;Y|W) with W moved first
    uwy = extended_marginal(probs, (0, 2), rows1)
    vwz = extended_marginal(probs, (1, 2), rows2)
    iw_y = cube_information(extended_marginal(probs, (2,), rows1), 0, 1)
    iw_z = cube_information(extended_marginal(probs, (2,), rows2), 0, 1)
    max_r1 = cube_information(uwy, 0, 2)
    max_r2 = cube_information(vwz, 0, 2)
    max_sum = (
        np.minimum(iw_y, iw_z)
        + cube_information(uwy.transpose(0, 2, 1, 3), 1, 1)
        + cube_information(vwz.transpose(0, 2, 1, 3), 1, 1)
        - conditional_information(probs, (0,), (1,), (2,))
    )
    return max_r1, max_r2, max_sum


def _uv(probs: np.ndarray, rows1: np.ndarray, rows2: np.ndarray):
    """Outer-bound triples in bits for a batch of (U, V, X) joints."""
    iu_y = cube_information(extended_marginal(probs, (0,), rows1), 0, 1)
    iv_z = cube_information(extended_marginal(probs, (1,), rows2), 0, 1)
    uvy = extended_marginal(probs, (0, 1), rows1)
    uvz = extended_marginal(probs, (0, 1), rows2)
    max_sum = np.minimum(
        iu_y + cube_information(uvz, 1, 1),
        iv_z + cube_information(uvy.transpose(0, 2, 1, 3), 1, 1),
    )
    return iu_y, iv_z, max_sum


def marton_rates(aux_joint: JointDistribution, ch1: Channel, ch2: Channel) -> RateConstraints:
    """Inner-bound constraint triple for an auxiliary joint over (U, V, W, X).

    Outputs are appended through each channel; the sum constraint is
    min{I(W;Y), I(W;Z)} + I(U;Y|W) + I(V;Z|W) - I(U;V|W).
    """
    if aux_joint.ndim != 4:
        raise ValueError("inner-bound evaluation needs a 4-axis joint (U, V, W, X)")
    _require_pair(ch1, ch2, aux_joint, 3)
    triple = _marton(aux_joint.probs[None], ch1.rows, ch2.rows)
    return RateConstraints(*(float(v[0]) for v in triple))


def uv_bound_rates(aux_joint: JointDistribution, ch1: Channel, ch2: Channel) -> RateConstraints:
    """Outer-bound constraint triple for an auxiliary joint over (U, V, X):
    I(U;Y), I(V;Z), min{I(U;Y) + I(V;Z|U), I(V;Z) + I(U;Y|V)}."""
    if aux_joint.ndim != 3:
        raise ValueError("outer-bound evaluation needs a 3-axis joint (U, V, X)")
    _require_pair(ch1, ch2, aux_joint, 2)
    triple = _uv(aux_joint.probs[None], ch1.rows, ch2.rows)
    return RateConstraints(*(float(v[0]) for v in triple))


@dataclass(frozen=True, eq=False)
class TimeshareConstruction:
    """Auxiliary joint over (Q, W, U', V', X) built from two transmission
    plans: with probability `first_fraction` the selector Q is 0, W carries
    the first plan's auxiliary, U' copies X and V' is pinned to a reserved
    symbol; on Q = 1 the roles swap to the second plan.

    By construction the active private auxiliary is a copy of X and the idle
    one is constant on every (Q, W) slice, so I(U';V'|Q,W) vanishes exactly
    rather than up to rounding.
    """

    first_fraction: float
    first_plan: JointDistribution   # (X, first auxiliary)
    second_plan: JointDistribution  # (X, second auxiliary)
    joint: JointDistribution        # (Q, W, U', V', X)

    def marton_joint(self) -> JointDistribution:
        """Reshape to the (U, V, W, X) arity with W = (Q, W) merged."""
        arr = self.joint.probs
        q_alpha, w_alpha, u_alpha, v_alpha, x_alpha = self.joint.alphabets
        merged = Alphabet(
            tuple(f"{q}:{w}" for q in q_alpha.symbols for w in w_alpha.symbols)
        )
        moved = np.transpose(arr, (2, 3, 0, 1, 4))
        moved = moved.reshape(len(u_alpha), len(v_alpha), len(merged), len(x_alpha))
        return JointDistribution((u_alpha, v_alpha, merged, x_alpha), moved)


def timeshare_construction(
    first_plan: JointDistribution,
    second_plan: JointDistribution,
    first_fraction: float,
) -> TimeshareConstruction:
    """Assemble the time-sharing auxiliary joint from two (X, auxiliary)
    plans and the fraction of uses devoted to the first receiver."""
    if not 0.0 <= first_fraction <= 1.0:
        raise ValueError(f"first_fraction must lie in [0, 1], got {first_fraction}")
    for name, plan in (("first", first_plan), ("second", second_plan)):
        if plan.ndim != 2:
            raise ValueError(f"{name} plan must be a 2-axis joint (input, auxiliary)")
    x_alpha = first_plan.alphabets[0]
    if second_plan.alphabets[0] != x_alpha:
        raise AlphabetMismatchError("plans must share the input alphabet")
    if U_STAR in x_alpha.symbols or V_STAR in x_alpha.symbols:
        raise ValueError(f"input alphabet may not use the reserved labels {U_STAR!r}, {V_STAR!r}")

    aux1 = first_plan.alphabets[1]
    aux2 = second_plan.alphabets[1]
    lam = float(first_fraction)
    nx, n1, n2 = len(x_alpha), len(aux1), len(aux2)

    q_alpha = Alphabet(("0", "1"))
    w_alpha = Alphabet(
        tuple(f"u:{s}" for s in aux1.symbols) + tuple(f"v:{s}" for s in aux2.symbols)
    )
    u_alpha = Alphabet(x_alpha.symbols + (U_STAR,))
    v_alpha = Alphabet(x_alpha.symbols + (V_STAR,))

    arr = np.zeros((2, n1 + n2, nx + 1, nx + 1, nx))
    xs = np.arange(nx)
    for a in range(n1):
        arr[0, a, xs, nx, xs] = lam * first_plan.probs[xs, a]
    for b in range(n2):
        arr[1, n1 + b, nx, xs, xs] = (1.0 - lam) * second_plan.probs[xs, b]

    joint = JointDistribution((q_alpha, w_alpha, u_alpha, v_alpha, x_alpha), arr)
    return TimeshareConstruction(lam, first_plan, second_plan, joint)


def timeshare_identities(
    tc: TimeshareConstruction, ch1: Channel, ch2: Channel
) -> dict[str, tuple[float, float]]:
    """Both sides of the construction's mixture identities, in bits.

    Keys map to (value on the full construction, value predicted from the
    two plans): the composite-auxiliary rate decomposes as
    I(Q,W;Y) = I(Q;Y) + lam*I(U;Y) + (1-lam)*I(V;Y), the private rates scale
    the plans' conditional informations by their time fractions, and the
    cross term I(U';V'|Q,W) is identically zero.
    """
    lam = tc.first_fraction
    ext1 = extend_with_channel(tc.joint, 4, ch1)   # (Q, W, U', V', X, Y)
    ext2 = extend_with_channel(tc.joint, 4, ch2)
    plan1_y = extend_with_channel(tc.first_plan, 0, ch1)   # (X, U, Y)
    plan1_z = extend_with_channel(tc.first_plan, 0, ch2)
    plan2_y = extend_with_channel(tc.second_plan, 0, ch1)
    plan2_z = extend_with_channel(tc.second_plan, 0, ch2)

    return {
        "first_aux_rate": (
            mutual_information_pair(ext1, (0, 1), (5,)),
            mutual_information_pair(ext1, (0,), (5,))
            + lam * mutual_information_pair(plan1_y, (1,), (2,))
            + (1.0 - lam) * mutual_information_pair(plan2_y, (1,), (2,)),
        ),
        "second_aux_rate": (
            mutual_information_pair(ext2, (0, 1), (5,)),
            mutual_information_pair(ext2, (0,), (5,))
            + lam * mutual_information_pair(plan1_z, (1,), (2,))
            + (1.0 - lam) * mutual_information_pair(plan2_z, (1,), (2,)),
        ),
        "first_private_rate": (
            mutual_information_pair(ext1, (2,), (5,), (0, 1)),
            lam * mutual_information_pair(plan1_y, (0,), (2,), (1,)),
        ),
        "second_private_rate": (
            mutual_information_pair(ext2, (3,), (5,), (0, 1)),
            (1.0 - lam) * mutual_information_pair(plan2_z, (0,), (2,), (1,)),
        ),
        "aux_cross_information": (
            mutual_information_pair(tc.joint, (2,), (3,), (0, 1)),
            0.0,
        ),
    }


@dataclass(frozen=True, eq=False)
class RegionSample:
    """Sampled rate points from one bound, reproducible from the metadata:
    `points` is a read-only (N, 2) array of (R1, R2) rows in bits."""

    points: np.ndarray
    source: str  # MARTON, UV or TD
    seed: int
    cardinalities: tuple[int, int, int]
    samples: int


def region_csv(samples, scale: float = 1.0) -> str:
    """CSV of the rate points of `samples`, one header line, rates multiplied
    by `scale` (1.0 for bits) and written to 12 significant digits."""
    lines = ["source,R1,R2"]
    for sample in samples:
        lines.extend(
            f"{sample.source},{r1:.12g},{r2:.12g}" for r1, r2 in (sample.points * scale).tolist()
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class SampleReport:
    """A RegionSample plus its worst time-division slack and, when that
    slack is negative, the auxiliary joint that produced it (replayable
    through the rate evaluators). `worst_point` is the (R1, R2) row of
    `sample.points` with that slack."""

    sample: RegionSample
    min_slack: float
    worst_point: np.ndarray | None
    worst_aux: JointDistribution | None


def _check_cells(cards: tuple[int, int, int], nx: int, arity: int) -> int:
    cells = int(np.prod(cards[:arity], dtype=np.int64)) * nx
    if cells > _CELL_LIMIT:
        raise ValueError(
            f"auxiliary joint would need {cells} cells (limit {_CELL_LIMIT}); "
            "reduce the cardinalities"
        )
    return cells


def _timeshare_probes(rep1: CapacityReport, rep2: CapacityReport):
    """Time-sharing joints between the two copy plans (an auxiliary that
    copies X at a capacity-achieving input), at 11 fractions from 0 to 1, as
    one validated (11, |X|+1, |X|+1, 4|X|, |X|) batch in the layout of
    `TimeshareConstruction.marton_joint`, with the function that builds a
    probe's own joint. A copy plan's auxiliary equals X, so on Q = 0 the
    merged W is x and U' = x; on Q = 1, W is 3|X| + x and V' = x."""
    plan1, plan2 = (
        JointDistribution((p.alphabet, p.alphabet), np.diag(p.probs))
        for p in (rep1.achieving_input, rep2.achieving_input)
    )
    lams = np.linspace(0.0, 1.0, 11)
    nx = len(plan1.alphabets[0])
    xs = np.arange(nx)
    probs = np.zeros((len(lams), nx + 1, nx + 1, 4 * nx, nx))
    probs[:, xs, nx, xs, xs] = lams[:, None] * np.diagonal(plan1.probs)
    probs[:, nx, xs, 3 * nx + xs, xs] = (1.0 - lams)[:, None] * np.diagonal(plan2.probs)
    probs = _clean_probs(probs, "joint distribution", batch=True)
    yield probs, lambda i: timeshare_construction(plan1, plan2, float(lams[i])).marton_joint()


def _single_user_probes(rep1: CapacityReport, rep2: CapacityReport):
    """One auxiliary copies X at a capacity-achieving input, the other is
    constant: two lone joints, each with the function that returns it."""
    const = Alphabet(("c0",))
    p1, p2 = rep1.achieving_input, rep2.achieving_input
    for joint in (
        JointDistribution((p1.alphabet, const, p1.alphabet), np.diag(p1.probs)[:, None, :]),
        JointDistribution((const, p2.alphabet, p2.alphabet), np.diag(p2.probs)[None, :, :]),
    ):
        yield joint.probs[None], lambda _, joint=joint: joint


def _sample(ch1, ch2, rep1, rep2, cfg, arity, rates, probes, source):
    """The sampling loop both bounds share: the batches of structured
    `probes`, then `cfg.samples` Dirichlet joints over the first `arity`
    auxiliaries and X, drawn in batches seeded by [cfg.seed, batch index].
    Each batch is validated once and evaluated at once by the array formulas
    `rates`. Every joint's two corners become points, in order, and the first
    point with the smallest time-division slack is kept; only its joint is
    built as a JointDistribution."""
    if ch1.input != ch2.input:
        raise AlphabetMismatchError("channels must share the input alphabet")
    c1, c2 = rep1.capacity, rep2.capacity
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("region sampling against time division needs positive capacities")
    nx = len(ch1.input)
    cards, n_samples = cfg.cardinalities, cfg.samples
    cells = _check_cells(cards, nx, arity)
    batches: list[np.ndarray] = []  # each batch's corners, (2 * joints, 2)
    worst = [1.0, None, None]  # slack, row of the points, auxiliary joint

    def fold(probs, joint_of):
        corners = _corners(*rates(probs, ch1.rows, ch2.rows)).reshape(-1, 2)
        slack = _td_slack(corners[:, 0], corners[:, 1], c1, c2)
        i = int(slack.argmin())
        if slack[i] < worst[0]:
            worst[:] = float(slack[i]), sum(map(len, batches)) + i, joint_of(i // 2)
        batches.append(corners)

    if n_samples > 0:
        for probs, joint_of in probes(rep1, rep2):
            fold(probs, joint_of)
        alphas = tuple(Alphabet.of_size(c, prefix) for c, prefix in zip(cards[:arity], "uvw"))
        alphas += (ch1.input,)
        shape = cards[:arity] + (nx,)
        for batch_index, done in enumerate(range(0, n_samples, _BATCH)):
            rng = np.random.default_rng([cfg.seed, batch_index])
            draws = rng.dirichlet(np.ones(cells), size=min(_BATCH, n_samples - done))
            draws = _clean_probs(draws.reshape((-1,) + shape), "joint distribution", batch=True)
            fold(draws, lambda i: JointDistribution(alphas, draws[i]))

    points = np.concatenate(batches) if batches else np.empty((0, 2))
    points.flags.writeable = False
    slack, row, aux = worst
    sample = RegionSample(points, source, cfg.seed, cards, n_samples)
    return SampleReport(sample, slack, None if row is None else points[row], aux)


def sample_marton(
    ch1: Channel,
    ch2: Channel,
    rep1: CapacityReport,
    rep2: CapacityReport,
    cfg: RunConfig = RunConfig(),
) -> SampleReport:
    """Sample the inner bound: `cfg.samples` Dirichlet-random auxiliary
    joints at `cfg.cardinalities` = (|U|, |V|, |W|), plus structured
    time-sharing probes built from the capacity-achieving inputs of the
    reports `rep1` and `rep2`. Deterministic given `cfg.seed`; with no
    samples the sample is empty and the slack defaults to +1."""
    return _sample(ch1, ch2, rep1, rep2, cfg, 3, _marton, _timeshare_probes, MARTON)


def sample_uv(
    ch1: Channel,
    ch2: Channel,
    rep1: CapacityReport,
    rep2: CapacityReport,
    cfg: RunConfig = RunConfig(),
) -> SampleReport:
    """Sample the outer bound's constraint pentagons the same way, with
    single-user probes (one auxiliary copying X at a capacity-achieving
    input, the other constant) in place of the time-sharing probes.

    Sampled outer-bound points witness what the converse permits; they do
    not certify achievability.
    """
    return _sample(ch1, ch2, rep1, rep2, cfg, 2, _uv, _single_user_probes, UV)


def td_boundary_sample(c1: float, c2: float, count: int = 101) -> RegionSample:
    """The line R1/c1 + R2/c2 = 1 traced at `count` evenly spaced points,
    from the first receiver's corner to the second's."""
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("the time-division boundary needs positive capacities")
    if count < 2:
        raise ValueError("need at least the two corner points")
    alphas = np.linspace(1.0, 0.0, count)
    points = np.stack([alphas * c1, (1.0 - alphas) * c2], axis=1)
    points.flags.writeable = False
    return RegionSample(points, TD, 0, (1, 1, 1), count)
