"""Properties of the information kernel in `tdopt.core` and of what is built
on it (the search objectives and their batched descent, the region bounds): a
batch evaluates as each of its rows alone.

The kernel functions, the three checks' objectives and gradients, the
row-wise simplex projection and the batched descent agree bit for bit: each
row takes the elementwise arithmetic and the BLAS call a lone point takes.
The one exception is the search grid's path (`one_product`), where the whole
batch goes through one `p @ rows`: BLAS sums a matrix product in another order
than a vector product, so rows may differ in the last bits, and the bound is
4096 float64 epsilons of the largest term summed. The joint kernel (I(A;B|C)
over auxiliary joints, and the channel marginal `extended_marginal`) and the
Marton and UV bounds built on it agree bit for bit, and so do the batched
time-sharing probes with the lone constructions. The channel marginal agrees
with the marginal of the full extension within 1e-14.
"""

import math
from functools import partial
from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdopt.bounds import (
    _marton,
    _timeshare_probes,
    _uv,
    marton_rates,
    sample_marton,
    timeshare_construction,
    timeshare_identities,
    uv_bound_rates,
)
from tdopt.capacity import analyze_channel
from tdopt.comparison import (
    _MAX_ITERS,
    _descend,
    _divergence_gap,
    _rate_gap,
    project_to_simplex,
)
from tdopt.config import RunConfig
from tdopt.core import (
    LN2,
    Alphabet,
    Channel,
    JointDistribution,
    _clean_probs,
    _marginal_batch,
    conditional_information,
    cube_information,
    extend_batch,
    extended_marginal,
    information,
    kl,
    neg_entropy,
    row_divergences,
    row_log_ratios,
    xlogx,
)
from tdopt.families import make_partition_pair

from conftest import same_bits

_TOL = 4096 * np.finfo(float).eps

settings.register_profile("kernel", max_examples=60, deadline=None)
settings.load_profile("kernel")


def stochastic(n_rows: int, n_cols: int):
    """Row-stochastic matrices from small integer weights, so zero entries are
    common: points on simplex faces and channels that miss outputs."""
    row = st.lists(st.integers(0, 4), min_size=n_cols, max_size=n_cols).filter(any)
    weights = st.lists(row, min_size=n_rows, max_size=n_rows)
    return weights.map(lambda w: np.array(w, dtype=float) / np.sum(w, axis=1, keepdims=True))


@st.composite
def batch_of(draw):
    """(channel matrix (|X|, |Y|), points (S, |X|), output distributions (S, |Y|))."""
    s, nx, ny = draw(st.integers(1, 6)), draw(st.integers(2, 6)), draw(st.integers(2, 8))
    return draw(stochastic(nx, ny)), draw(stochastic(s, nx)), draw(stochastic(s, ny))


@st.composite
def channel_pair_and_points(draw):
    s, nx, ny = draw(st.integers(1, 6)), draw(st.integers(2, 6)), draw(st.integers(2, 8))
    return draw(stochastic(nx, ny)), draw(stochastic(nx, ny)), draw(stochastic(s, nx))


def channel(rows: np.ndarray) -> Channel:
    return Channel(Alphabet.of_size(rows.shape[0]), Alphabet.of_size(rows.shape[1], "y"), rows)


def assert_rows_exact(fn, points):
    batch = fn(points)
    for i, p in enumerate(points):
        assert np.array_equal(batch[i], fn(p))


def assert_rows_close(fn, points, term_scale):
    batch = fn(points)
    for i, p in enumerate(points):
        one = fn(p)
        assert np.all(np.abs(batch[i] - one) <= _TOL * term_scale(p))


@given(batch_of())
def test_kernel_rows_exact(data):
    rows, pts, outs = data
    rne = neg_entropy(rows)
    ref = outs[0] + 0.5
    assert_rows_exact(xlogx, pts)
    assert_rows_exact(neg_entropy, pts)
    assert_rows_exact(lambda q: row_divergences(rows, rne, q), outs)
    assert_rows_exact(lambda q: row_log_ratios(rows, q, ref), outs)
    assert_rows_exact(lambda q: kl(q, outs[0]), outs)


@given(batch_of())
def test_kl_infinite_exactly_on_escape(data):
    _, _, outs = data
    reversed_outs = outs[::-1]
    batch = kl(outs, reversed_outs)
    for i in range(len(outs)):
        one = kl(outs[i], reversed_outs[i])
        assert batch[i] == one
        escapes = bool(np.any((outs[i] > 0.0) & (reversed_outs[i] == 0.0)))
        assert (one == math.inf) == escapes
        assert one >= -1e-15


@given(batch_of())
def test_information_rows_match(data):
    rows, pts, _ = data
    rne = neg_entropy(rows)
    assert_rows_exact(lambda p: information(p, rows, rne), pts)
    assert_rows_close(lambda p: information(p, rows, rne, one_product=True), pts, lambda p: 3.0)


@given(channel_pair_and_points(), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_rate_gap_objective_and_gradient_rows_match(data, c1, c2):
    rows1, rows2, pts = data
    ch1, ch2 = channel(rows1), channel(rows2)
    for (objective, gradient), c_min in (
        (_rate_gap(ch2, ch1), 1.0),                   # the more-capable check
        (_rate_gap(ch1, ch2, c1, c2), min(c1, c2)),   # the ratio condition
    ):
        assert_rows_exact(objective, pts)
        assert_rows_exact(gradient, pts)
        grid_objective = partial(objective, one_product=True)
        assert_rows_close(grid_objective, pts, lambda p: 10.0 / c_min)


@given(channel_pair_and_points())
def test_divergence_gap_objective_and_gradient_rows_match(data):
    rows1, rows2, pts = data
    ch1, ch2 = channel(rows1), channel(rows2)
    rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
    c_min = min(rep1.capacity, rep2.capacity)
    assume(c_min > 0.01)
    objective, gradient = _divergence_gap(ch1, ch2, rep1, rep2)
    assert_rows_exact(objective, pts)
    assert_rows_exact(gradient, pts)
    refs = np.concatenate([rep.optimal_output.probs for rep in (rep1, rep2)])
    log_ref = -math.log(refs[refs > 0.0].min())
    grid_objective = partial(objective, one_product=True)
    assert_rows_close(grid_objective, pts, lambda p: (log_ref + 10.0) / (LN2 * c_min))


def reference_information(joint, axes_a, axes_b, axes_cond=()):
    """I(A;B|C) in bits from one joint, one conditioning slice at a time: the
    per-slice arithmetic the batch kernel must reproduce bit for bit."""
    reduced = joint.marginal(tuple(axes_cond) + tuple(axes_a) + tuple(axes_b)).probs
    sizes = [math.prod(len(joint.alphabets[a]) for a in g) for g in (axes_cond, axes_a, axes_b)]
    total = 0.0
    for m in reduced.reshape(sizes):
        nz = m > 0.0
        if nz.any(axis=1).sum() <= 1 or nz.any(axis=0).sum() <= 1:
            continue
        pa, pb, s = m.sum(axis=1), m.sum(axis=0), m.sum()
        ratio = (m[nz] * s) / np.outer(pa, pb)[nz]
        total += float((m[nz] * np.log(ratio)).sum())
    return total / LN2


def draw_joints(draw, shape):
    """A batch of Dirichlet joints of `shape`, validated as region sampling
    validates its draws. Some batches get zero cells, as the structured
    probes have."""
    s = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(math.prod(shape)), s)
    probs[rng.random(probs.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    probs[probs.sum(axis=1) == 0.0, 0] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    return _clean_probs(probs.reshape((s,) + shape), "joint distribution", batch=True)


@st.composite
def joints_and_groups(draw):
    """(a batch of joints, axis groups A, B, C). Axes reach 9 symbols, so
    slices are long enough for numpy's pairwise sums."""
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=2, max_size=4)))
    assume(math.prod(shape) <= 2000)
    axes = draw(st.permutations(range(len(shape))))
    used = draw(st.integers(2, len(shape)))
    split_a = draw(st.integers(1, used - 1))
    split_b = draw(st.integers(split_a + 1, used))
    return draw_joints(draw, shape), axes[:split_a], axes[split_a:split_b], axes[split_b:used]


@settings(max_examples=200)
@given(joints_and_groups())
def test_conditional_information_rows_equal_reference(data):
    probs, axes_a, axes_b, axes_cond = data
    alphas = tuple(Alphabet.of_size(n) for n in probs.shape[1:])
    batch = conditional_information(probs, axes_a, axes_b, axes_cond)
    for i, row in enumerate(probs):
        joint = JointDistribution(alphas, row)
        assert batch[i] == reference_information(joint, axes_a, axes_b, axes_cond)


@st.composite
def aux_batch(draw, arity):
    """(joints over `arity` auxiliaries and X, two channel matrices)."""
    cards = tuple(draw(st.integers(1, 4)) for _ in range(arity))
    nx = draw(st.integers(2, 4))
    rows1, rows2 = (draw(stochastic(nx, draw(st.integers(2, 5)))) for _ in range(2))
    return draw_joints(draw, cards + (nx,)), rows1, rows2


def assert_bound_rows_exact(batch_fn, scalar_fn, data):
    probs, rows1, rows2 = data
    ch1, ch2 = channel(rows1), channel(rows2)
    alphas = tuple(Alphabet.of_size(c, p) for c, p in zip(probs.shape[1:-1], "uvw")) + (ch1.input,)
    batch = batch_fn(probs, ch1.rows, ch2.rows)
    for i, row in enumerate(probs):
        one = scalar_fn(JointDistribution(alphas, row), ch1, ch2)
        assert (one.max_r1, one.max_r2, one.max_sum) == tuple(float(v[i]) for v in batch)


@given(aux_batch(3))
def test_marton_batch_rows_equal_scalar(data):
    assert_bound_rows_exact(_marton, marton_rates, data)


@given(aux_batch(2))
def test_uv_batch_rows_equal_scalar(data):
    assert_bound_rows_exact(_uv, uv_bound_rates, data)


@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_timeshare_cross_information_exactly_zero(nx, n1, n2, seed, fractions):
    rng = np.random.default_rng(seed)
    x = Alphabet.of_size(nx)
    plans = [rng.dirichlet(np.ones(nx * n)).reshape(nx, n) for n in (n1, n2)]
    first, second = (JointDistribution((x, Alphabet.of_size(p.shape[1], "a")), p) for p in plans)
    ch = channel(rng.dirichlet(np.ones(3), nx))
    constructions = [timeshare_construction(first, second, lam) for lam in fractions]
    # a dense joint in the same batch must not unmask the constructions' slices
    shape = constructions[0].joint.probs.shape
    dense = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
    batch = np.stack([tc.joint.probs for tc in constructions] + [dense])
    assert np.all(conditional_information(batch, (2,), (3,), (0, 1))[:-1] == 0.0)
    for tc in constructions:
        assert timeshare_identities(tc, ch, ch)["aux_cross_information"] == (0.0, 0.0)


@st.composite
def joints_and_channel(draw):
    """(a batch of joints whose last axis is X, kept axes in any order, a
    channel matrix on X). Outputs run from 1 to 9 symbols."""
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    nx = draw(st.integers(1, 9))
    assume(math.prod(shape) * nx <= 2000)
    kept = draw(st.permutations(range(len(shape))))[:draw(st.integers(0, len(shape)))]
    return draw_joints(draw, shape + (nx,)), tuple(kept), draw(stochastic(nx, draw(st.integers(1, 9))))


@given(joints_and_channel())
def test_extended_marginal_rows_equal_lone_rows(data):
    probs, kept, rows = data
    batch = extended_marginal(probs, kept, rows)
    for i in range(len(probs)):
        assert same_bits(batch[i], extended_marginal(probs[i:i + 1], kept, rows)[0])


@given(joints_and_channel())
def test_extended_marginal_matches_marginal_of_extension(data):
    probs, kept, rows = data
    x_axis = probs.ndim - 2
    extended = _marginal_batch(extend_batch(probs, x_axis, rows), kept + (x_axis + 1,))
    np.testing.assert_allclose(extended_marginal(probs, kept, rows), extended, rtol=0.0, atol=1e-14)


@st.composite
def dead_cubes(draw):
    """A batch of (C, A, B) marginals in which, on every slice of every
    joint, A or B takes a single value: no slice is live anywhere."""
    s, nc, na, nb = (draw(st.integers(1, 5)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cube = rng.dirichlet(np.ones(nc * na * nb), s).reshape(s, nc, na, nb)
    for j in range(s):
        for c in range(nc):
            if rng.random() < 0.5:
                keep = np.arange(na) == rng.integers(na)
                cube[j, c, ~keep] = 0.0
            else:
                keep = np.arange(nb) == rng.integers(nb)
                cube[j, c, :, ~keep] = 0.0
    cube[cube.sum(axis=(1, 2, 3)) == 0.0, 0, 0, 0] = 1.0
    return _clean_probs(cube / cube.sum(axis=(1, 2, 3), keepdims=True), "cube", batch=True)


@given(dead_cubes())
def test_cube_with_no_live_slice_returns_positive_zero(cube):
    alphas = tuple(Alphabet.of_size(n) for n in cube.shape[1:])
    with patch("tdopt.core._sum_nonzero", side_effect=AssertionError("not skipped")):
        batch = cube_information(cube, 1, 1)
    for i, row in enumerate(cube):
        expected = reference_information(JointDistribution(alphas, row), (1,), (2,), (0,))
        assert batch[i] == expected == 0.0
        assert not np.signbit(batch[i]) and math.copysign(1.0, expected) == 1.0


def copy_plan(rep):
    p = rep.achieving_input
    return JointDistribution((p.alphabet, p.alphabet), np.diag(p.probs))


@settings(max_examples=20)
@given(channel_pair_and_points(), st.integers(0, 2**32 - 1))
def test_timeshare_probe_batch_equals_lone_constructions(data, seed):
    rows1, rows2, _ = data
    ch1, ch2 = channel(rows1), channel(rows2)
    rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
    assume(rep1.capacity > 0.0 and rep2.capacity > 0.0)
    joints = [
        timeshare_construction(copy_plan(rep1), copy_plan(rep2), float(lam)).marton_joint()
        for lam in np.linspace(0.0, 1.0, 11)
    ]
    points = sample_marton(ch1, ch2, rep1, rep2, RunConfig(samples=1, seed=seed)).sample.points
    assert same_bits(points[:22], np.concatenate([marton_rates(j, ch1, ch2).corners() for j in joints]))
    (probs, joint_of), = _timeshare_probes(rep1, rep2)
    for i, joint in enumerate(joints):
        assert same_bits(probs[i], joint.probs) and same_bits(joint_of(i).probs, joint.probs)


def test_probe_held_minimum_returns_that_probes_joint():
    pair = make_partition_pair(4, 3)
    ch1, ch2 = pair.first, pair.second
    rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
    report = sample_marton(ch1, ch2, rep1, rep2, RunConfig(samples=8))
    points = report.sample.points
    row = int((1.0 - points[:, 0] / rep1.capacity - points[:, 1] / rep2.capacity).argmin())
    assert row < 22 and report.min_slack <= 0.0
    expected = timeshare_construction(
        copy_plan(rep1), copy_plan(rep2), float(np.linspace(0.0, 1.0, 11)[row // 2])
    ).marton_joint()
    assert report.worst_aux.alphabets == expected.alphabets
    assert report.worst_aux.alphabets[2].symbols[0] == "0:u:" + ch1.input.symbols[0]
    assert same_bits(report.worst_aux.probs, expected.probs)


def serial_projection(v):
    """Euclidean projection of one vector onto the simplex: the 1-D
    arithmetic the row-wise projection must reproduce bit for bit."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / ks > 0.0
    rho = int(np.nonzero(cond)[0][-1])
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + tau, 0.0)


def serial_descent(objective, gradient, x0):
    """One start's Armijo-backtracked projected gradient descent, one point
    at a time: the reference every row of the batched descent must reproduce.
    Returns (x, f(x), evaluations)."""
    x = serial_projection(np.asarray(x0, dtype=float))
    fx = objective(x)
    evals = 1
    scale = 1.0
    for _ in range(_MAX_ITERS):
        g = np.nan_to_num(gradient(x), nan=0.0, posinf=1e6, neginf=-1e6)
        alpha = scale
        accepted = False
        move = 0.0
        for _ in range(50):
            y = serial_projection(x - alpha * g)
            diff = x - y
            move = float(diff @ diff)
            if move == 0.0:
                break
            fy = objective(y)
            evals += 1
            if fy <= fx - 1e-4 * move / alpha:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        x, fx = y, fy
        scale = min(alpha * 2.0, 64.0)
        if move < 1e-20:
            break
    return x, fx, evals


@st.composite
def vectors(draw):
    """(S, n) arrays for the projection: small integers times a scale, so
    ties and negative entries are common, or arbitrary floats."""
    s, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))

    def rows(entries):
        return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=s, max_size=s)

    if draw(st.booleans()):
        scale = draw(st.sampled_from([1.0, 0.5, 0.1, 1e-9, 7.0]))
        return np.array(draw(rows(st.integers(-4, 4))), dtype=float) * scale
    return np.array(draw(rows(st.floats(-1e3, 1e3))), dtype=float)


@given(vectors())
def test_row_projection_equals_lone_projection(v):
    batch = project_to_simplex(v)
    for i, row in enumerate(v):
        one = serial_projection(row)
        assert np.array_equal(batch[i], one)
        assert np.array_equal(project_to_simplex(row), one)


@st.composite
def pair_and_starts(draw):
    """(two channel matrices with |X| from 2 to 5, starts (S, |X|)): one or
    two vertices, a point on a face and a Dirichlet draw. Every start is
    replayed serially, so the batch stays this small."""
    nx, ny = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vertices = draw(st.lists(st.integers(0, nx - 1), min_size=1, max_size=2, unique=True))
    starts = np.vstack([np.eye(nx)[vertices], draw(stochastic(1, nx)), rng.dirichlet(np.ones(nx), 1)])
    return draw(stochastic(nx, ny)), draw(stochastic(nx, ny)), starts


@settings(max_examples=30)
@given(pair_and_starts(), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_batched_descent_rows_equal_serial(data, c1, c2):
    rows1, rows2, starts = data
    ch1, ch2 = channel(rows1), channel(rows2)
    gaps = [_rate_gap(ch2, ch1), _rate_gap(ch1, ch2, c1, c2)]
    rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
    if min(rep1.capacity, rep2.capacity) > 0.01:
        gaps.append(_divergence_gap(ch1, ch2, rep1, rep2))
    for objective, gradient in gaps:
        x, fx, evals = _descend(objective, gradient, starts)
        for i, x0 in enumerate(starts):
            one_x, one_fx, one_evals = serial_descent(objective, gradient, x0)
            assert np.array_equal(x[i], one_x)
            assert fx[i] == one_fx
            assert evals[i] == one_evals
