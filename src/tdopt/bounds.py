"""Rate-region machinery for two-receiver broadcast pairs.

Covers the time-division region test, evaluation of the inner-bound and
outer-bound constraint triples induced by auxiliary joints, the explicit
time-sharing auxiliary construction with its exact mixture identities, and
seeded region sampling that mixes Dirichlet draws with structured probes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityReport
from .config import RunConfig
from .core import (
    LN2,
    Alphabet,
    AlphabetMismatchError,
    Channel,
    JointDistribution,
    extend_with_channel,
    mutual_information_pair,
    neg_entropy,
)

MARTON = "MARTON"
UV = "UV"
TD = "TD"

U_STAR = "__u_star"
V_STAR = "__v_star"

_CELL_LIMIT = 1_000_000
_SAMPLE_LIMIT = 1_000_000  # Dirichlet joints per bound; every joint's corners are kept
_BATCH = 512  # Dirichlet draws per seeded generator, evaluated together


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


def _sum_out(probs: np.ndarray, axis: int) -> np.ndarray:
    """A batch of joints summed over joint axis `axis`: its slices are added
    in order, one add over the whole batch per slice, so each joint gets the
    bits it gets alone."""
    return functools.reduce(np.add, np.moveaxis(probs, axis + 1, 0))


def _output(marginal: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A batch of marginals whose last axis is a channel input, with that
    axis replaced by the output of the channel matrix `rows`. Each joint
    takes one product of its own, as it would alone."""
    shape = marginal.shape
    cells = marginal.reshape(shape[0], math.prod(shape[1:-1]), shape[-1]) @ rows
    return cells.reshape(shape[:-1] + rows.shape[1:])


def _entropies(*marginals: np.ndarray) -> list[np.ndarray]:
    """The entropy in bits of every joint of each batch of marginals:
    -sum p*ln(p) over its nonzero cells, divided by ln 2."""
    return [-neg_entropy(m.reshape(len(m), math.prod(m.shape[1:]))) / LN2 for m in marginals]


def _marton(probs: np.ndarray, rows1: np.ndarray, rows2: np.ndarray):
    """Inner-bound triples in bits for a batch of (U, V, W, X) joints, with
    outputs Y and Z through the channel matrices `rows1` and `rows2`, from
    the entropies of ten marginals."""
    uwx, vwx = _sum_out(probs, 1), _sum_out(probs, 0)
    uwy, vwz = _output(uwx, rows1), _output(vwx, rows2)
    wy, wz = _sum_out(uwy, 0), _sum_out(vwz, 0)
    h_w, h_uw, h_vw, h_uvw, h_y, h_z, h_wy, h_wz, h_uwy, h_vwz = _entropies(
        _sum_out(_sum_out(vwx, 0), 1), _sum_out(uwx, 2), _sum_out(vwx, 2), _sum_out(probs, 3),
        _sum_out(wy, 0), _sum_out(wz, 0), wy, wz, uwy, vwz,
    )
    iw_y = h_w + h_y - h_wy
    iw_z = h_w + h_z - h_wz
    iu_y_given_w = h_uw + h_wy - h_w - h_uwy
    iv_z_given_w = h_vw + h_wz - h_w - h_vwz
    iu_v_given_w = h_uw + h_vw - h_w - h_uvw
    max_sum = np.minimum(iw_y, iw_z) + iu_y_given_w + iv_z_given_w - iu_v_given_w
    return h_uw + h_y - h_uwy, h_vw + h_z - h_vwz, max_sum


def _uv(probs: np.ndarray, rows1: np.ndarray, rows2: np.ndarray):
    """Outer-bound triples in bits for a batch of (U, V, X) joints, from the
    entropies of eleven marginals."""
    uv = _sum_out(probs, 2)
    uvy, uvz = _output(probs, rows1), _output(probs, rows2)
    uy, uz, vy, vz = _sum_out(uvy, 1), _sum_out(uvz, 1), _sum_out(uvy, 0), _sum_out(uvz, 0)
    h_u, h_v, h_uv, h_y, h_z, h_uy, h_vz, h_uz, h_vy, h_uvy, h_uvz = _entropies(
        _sum_out(uv, 1), _sum_out(uv, 0), uv, _sum_out(uy, 0), _sum_out(vz, 0),
        uy, vz, uz, vy, uvy, uvz,
    )
    iu_y = h_u + h_y - h_uy
    iv_z = h_v + h_z - h_vz
    iv_z_given_u = h_uv + h_uz - h_u - h_uvz
    iu_y_given_v = h_uv + h_vy - h_v - h_uvy
    return iu_y, iv_z, np.minimum(iu_y + iv_z_given_u, iv_z + iu_y_given_v)


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
        """The same joint in the (U, V, W, X) arity, with W = (Q, W) merged
        over the n1 + n2 pairs that carry mass: the first plan's auxiliary
        under Q = 0, then the second's under Q = 1."""
        plans = [(p.alphabets, p.probs) for p in (self.first_plan, self.second_plan)]
        probs, alphabets, _ = _timeshare_joints(np.array([self.first_fraction]), *plans)
        return JointDistribution(alphabets, probs[0])


def _timeshare_joints(lams: np.ndarray, first, second):
    """Time-sharing joints between two plans, one per fraction in `lams` of
    the uses devoted to the first receiver, written straight into the
    (U', V', W, X) layout of `TimeshareConstruction.marton_joint`.

    Each plan is an ((X, auxiliary) alphabets, (|X|, n) probs) pair. Returns
    the (len(lams), |X|+1, |X|+1, n1+n2, |X|) batch, its alphabets
    (U', V', W, X), and the alphabets (Q, W) before the merge. The merged W
    keeps only the (Q, W) pairs that carry mass, labelled "q:w": "0:u:a"
    for the first plan's auxiliary a, then "1:v:b" for the second's b.
    """
    ((x_alpha, aux1), probs1), ((_, aux2), probs2) = first, second
    if U_STAR in x_alpha.symbols or V_STAR in x_alpha.symbols:
        raise ValueError(f"input alphabet may not use the reserved labels {U_STAR!r}, {V_STAR!r}")
    nx, n1, n2 = len(x_alpha), len(aux1), len(aux2)
    q_alpha = Alphabet(("0", "1"))
    w_alpha = Alphabet(tuple(f"u:{s}" for s in aux1) + tuple(f"v:{s}" for s in aux2))
    merged = Alphabet(tuple(f"{q}:{w}" for q, w in zip("0" * n1 + "1" * n2, w_alpha)))
    u_alpha, v_alpha = (Alphabet(x_alpha.symbols + (star,)) for star in (U_STAR, V_STAR))
    probs = np.zeros((len(lams), nx + 1, nx + 1, n1 + n2, nx))
    xs = np.arange(nx)[:, None]
    # Q = 0: W is the first plan's auxiliary a, U' copies X, V' is reserved;
    # Q = 1: W is the second's b, at merged index n1 + b, and the roles of U'
    # and V' swap
    probs[:, xs, nx, np.arange(n1), xs] = lams[:, None, None] * probs1
    probs[:, nx, xs, n1 + np.arange(n2), xs] = (1.0 - lams)[:, None, None] * probs2
    return probs, (u_alpha, v_alpha, merged, x_alpha), (q_alpha, w_alpha)


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

    lam = float(first_fraction)
    plans = [(p.alphabets, p.probs) for p in (first_plan, second_plan)]
    probs, (u_alpha, v_alpha, _, _), (q_alpha, w_alpha) = _timeshare_joints(np.array([lam]), *plans)
    # put each merged W label back under its Q, with (Q, W) in front, in C
    # order: the kernel's sums follow the memory order of the joint
    nx, n1 = len(x_alpha), len(first_plan.alphabets[1])
    arr = np.zeros((2, len(w_alpha), nx + 1, nx + 1, nx))
    merged = probs[0].transpose(2, 0, 1, 3)  # (W, U', V', X)
    arr[0, :n1], arr[1, n1:] = merged[:n1], merged[n1:]
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
    """Rate points from one bound: `points` is a read-only (N, 2) array of
    (R1, R2) rows in bits. A sampled bound is reproduced from the RunConfig
    it was drawn under, which holds its seed, sample count and cardinalities."""

    points: np.ndarray
    source: str  # MARTON, UV or TD


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
    copies X at a capacity-achieving input) at 11 fractions from 0 to 1: one
    (probs, alphabets) batch in the layout of `TimeshareConstruction.marton_joint`."""
    plans = [((p.alphabet, p.alphabet), np.diag(p.probs))
             for p in (rep1.achieving_input, rep2.achieving_input)]
    yield _timeshare_joints(np.linspace(0.0, 1.0, 11), *plans)[:2]


def _single_user_probes(rep1: CapacityReport, rep2: CapacityReport):
    """One auxiliary copies X at a capacity-achieving input, the other is
    constant: two (probs, alphabets) batches of one (U, V, X) joint each."""
    const = Alphabet(("c0",))
    p1, p2 = rep1.achieving_input, rep2.achieving_input
    yield np.diag(p1.probs)[None, :, None, :], (p1.alphabet, const, p1.alphabet)
    yield np.diag(p2.probs)[None, None, :, :], (const, p2.alphabet, p2.alphabet)


def _draws(cfg: RunConfig, arity: int, x_alpha: Alphabet, cells: int):
    """`cfg.samples` Dirichlet joints over the first `arity` auxiliaries at
    `cfg.cardinalities` and X, drawn in batches of up to _BATCH joints, each
    by a generator seeded by [cfg.seed, batch index], and each yielded as
    one (probs, alphabets) batch."""
    cards = cfg.cardinalities[:arity]
    alphabets = tuple(Alphabet.of_size(c, prefix) for c, prefix in zip(cards, "uvw")) + (x_alpha,)
    shape = (-1,) + cards + (len(x_alpha),)
    for done in range(0, cfg.samples, _BATCH):
        yield np.random.default_rng([cfg.seed, done // _BATCH]).dirichlet(
            np.ones(cells), size=min(_BATCH, cfg.samples - done)).reshape(shape), alphabets


def _sample(rep1, rep2, cfg, arity, rates, probes, source):
    """The sampling loop both bounds share, over the channels of the reports
    `rep1` and `rep2`. It walks one list of (probs, alphabets) batches: the
    structured `probes`, then the seeded Dirichlet draws of `_draws`, none of
    them when `cfg.samples` is 0. Each batch is evaluated at once by the
    array formulas `rates`. Every joint's two corners become points, in
    order, and the first point with the smallest time-division slack is
    kept. A JointDistribution is built, from its batch's row and alphabets,
    only for a joint that lowers that slack, so no batch outlives its own
    evaluation."""
    ch1, ch2 = rep1.channel, rep2.channel
    if ch1.input != ch2.input:
        raise AlphabetMismatchError("channels must share the input alphabet")
    c1, c2 = rep1.capacity, rep2.capacity
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("region sampling against time division needs positive capacities")
    if cfg.samples > _SAMPLE_LIMIT:
        raise ValueError(
            f"{cfg.samples} samples per bound exceed the limit of {_SAMPLE_LIMIT}; "
            "reduce the samples"
        )
    cells = _check_cells(cfg.cardinalities, len(ch1.input), arity)
    # probes and draws, or nothing at all with no samples
    sources = (probes(rep1, rep2), _draws(cfg, arity, ch1.input, cells)) if cfg.samples > 0 else ()
    corners: list[np.ndarray] = []  # each batch's corners, (2 * joints, 2)
    min_slack, worst_row, worst_aux = 1.0, None, None
    for probs, alphabets in itertools.chain(*sources):
        batch = _corners(*rates(probs, ch1.rows, ch2.rows)).reshape(-1, 2)
        slack = _td_slack(batch[:, 0], batch[:, 1], c1, c2)
        row = int(slack.argmin())
        if slack[row] < min_slack:
            min_slack, worst_row = float(slack[row]), sum(map(len, corners)) + row
            worst_aux = JointDistribution(alphabets, probs[row // 2])
        corners.append(batch)

    points = np.concatenate(corners) if corners else np.empty((0, 2))
    points.flags.writeable = False
    worst_point = None if worst_row is None else points[worst_row]
    return SampleReport(RegionSample(points, source), min_slack, worst_point, worst_aux)


def sample_marton(
    rep1: CapacityReport, rep2: CapacityReport, cfg: RunConfig = RunConfig()
) -> SampleReport:
    """Sample the inner bound of the pair of channels behind the capacity
    reports `rep1` and `rep2`: `cfg.samples` Dirichlet-random auxiliary
    joints at `cfg.cardinalities` = (|U|, |V|, |W|), plus structured
    time-sharing probes built from the reports' capacity-achieving inputs.
    Deterministic given `cfg.seed`; with no samples the sample is empty and
    the slack defaults to +1."""
    return _sample(rep1, rep2, cfg, 3, _marton, _timeshare_probes, MARTON)


def sample_uv(
    rep1: CapacityReport, rep2: CapacityReport, cfg: RunConfig = RunConfig()
) -> SampleReport:
    """Sample the outer bound's constraint pentagons the same way, with
    single-user probes (one auxiliary copying X at a capacity-achieving
    input, the other constant) in place of the time-sharing probes.

    Sampled outer-bound points witness what the converse permits; they do
    not certify achievability.
    """
    return _sample(rep1, rep2, cfg, 2, _uv, _single_user_probes, UV)


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
    return RegionSample(points, TD)
