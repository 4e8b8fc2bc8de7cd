"""Properties of the information kernel in `tdopt.core` and of what is built
on it (the search objectives and their batched descent, the region bounds): a
batch evaluates as each of its rows alone.

The kernel functions, the checks' objectives and gradients, the row-wise
simplex projection and the batched descent agree bit for bit: each row takes
the elementwise arithmetic and the BLAS call a lone point takes, and the
descent does so whatever number of backtracking trials one of its passes
makes per start, also when the starts of several checks share one batch and
each row carries its check's index.
The one exception is the search grid's path (`one_product`), where the whole
batch goes through one `p @ rows`: BLAS sums a matrix product in another order
than a vector product, so rows may differ in the last bits, and the bound is
4096 float64 epsilons of the largest term summed. The Marton and UV bounds,
which sum entropies of marginals, agree bit for bit with their joints alone,
and so do the batched time-sharing probes with the lone constructions. On
one joint, I(A;B|C) by the slice formula (`mutual_information_pair`) equals
its per-slice reference, with structural independence an exact +0.0, and
`JointDistribution.marginal` equals an independent einsum marginal. The
bounds' entropy form equals the slice formula within 1e-12 bits, also with
structural zeros and a channel with one output.
"""

import itertools
import math
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
    _check_terms,
    _descend,
    _pair_gaps,
    project_to_simplex,
)
from tdopt.config import RunConfig
from tdopt.core import (
    LN2,
    Alphabet,
    Channel,
    JointDistribution,
    _clean_probs,
    extend_with_channel,
    information,
    kl,
    mutual_information_pair,
    neg_entropy,
    row_divergences,
    row_log_ratios,
    xlogx,
)
from tdopt.families import make_partition_pair

from conftest import at_check_0, same_bits, stochastic

_TOL = 4096 * np.finfo(float).eps

settings.register_profile("kernel", max_examples=60, deadline=None)
settings.load_profile("kernel")


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


def optimal_outputs(rep1, rep2):
    """The divergence form's references: each report's optimal output on
    its channel's reachable outputs."""
    return tuple(rep.optimal_output.probs[rep.channel.reachable] for rep in (rep1, rep2))


def lone_gap(name, ch1, ch2, c1=1.0, c2=1.0, refs=(None, None)):
    """The objective, gradient and grid objective of check `name` alone, as
    functions of the points alone."""
    objective, gradient, grid_objective = _pair_gaps(ch1, ch2, [_check_terms(name, c1, c2)], refs)
    return at_check_0(objective), at_check_0(gradient), lambda p: next(grid_objective(p))


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
    for (objective, gradient, grid_objective), c_min in (
        (lone_gap("more_capable_forward", ch1, ch2), 1.0),
        (lone_gap("more_capable_backward", ch1, ch2), 1.0),
        (lone_gap("ratio_condition", ch1, ch2, c1, c2), min(c1, c2)),
    ):
        assert_rows_exact(objective, pts)
        assert_rows_exact(gradient, pts)
        assert_rows_close(grid_objective, pts, lambda p: 10.0 / c_min)


@given(channel_pair_and_points())
def test_divergence_gap_objective_and_gradient_rows_match(data):
    rows1, rows2, pts = data
    ch1, ch2 = channel(rows1), channel(rows2)
    rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
    c_min = min(rep1.capacity, rep2.capacity)
    assume(c_min > 0.01)
    objective, gradient, grid_objective = lone_gap(
        "divergence_form", ch1, ch2, rep1.capacity, rep2.capacity, optimal_outputs(rep1, rep2)
    )
    assert_rows_exact(objective, pts)
    assert_rows_exact(gradient, pts)
    refs = np.concatenate([rep.optimal_output.probs for rep in (rep1, rep2)])
    log_ref = -math.log(refs[refs > 0.0].min())
    assert_rows_close(grid_objective, pts, lambda p: (log_ref + 10.0) / (LN2 * c_min))


def reference_information(joint, axes_a, axes_b, axes_cond=()):
    """I(A;B|C) in bits from one joint, one conditioning slice at a time: the
    per-slice arithmetic `mutual_information_pair` must reproduce bit for bit."""
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
    """A batch of Dirichlet joints of `shape`, each validated as a lone
    joint is. Some batches get zero cells, as the structured probes have."""
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
    for row in probs:
        joint = JointDistribution(alphas, row)
        got = mutual_information_pair(joint, axes_a, axes_b, axes_cond)
        assert got == reference_information(joint, axes_a, axes_b, axes_cond)


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
    for lam in fractions:
        tc = timeshare_construction(first, second, lam)
        assert timeshare_identities(tc, ch, ch)["aux_cross_information"] == (0.0, 0.0)
        # also with (Q, W) merged into one W axis, as the probes lay it out
        zero = mutual_information_pair(tc.marton_joint(), (0,), (1,), (2,))
        assert zero == 0.0 and not np.signbit(zero)


@st.composite
def bound_batches(draw):
    """(a batch of (U, V, W, X) joints, a batch of (U, V, X) joints, two
    channel matrices) at cards (2, 2, 2) or (3, 3, 2). Some batches have
    structural zeros, and some second channels have a single output."""
    cards = draw(st.sampled_from([(2, 2, 2), (3, 3, 2)]))
    nx = draw(st.integers(2, 4))
    rows1 = draw(stochastic(nx, draw(st.integers(2, 4))))
    rows2 = np.ones((nx, 1)) if draw(st.booleans()) else draw(stochastic(nx, draw(st.integers(2, 4))))
    return draw_joints(draw, cards + (nx,)), draw_joints(draw, cards[:2] + (nx,)), rows1, rows2


def reference_triples(probs, rows1, rows2):
    """The Marton triple of every (U, V, W, X) joint of `probs`, or the UV
    triple of every (U, V, X) joint, each information by the slice formula
    of `reference_information` on the joint extended by an output."""
    ch1, ch2 = channel(rows1), channel(rows2)
    x = probs.ndim - 2
    alphas = tuple(Alphabet.of_size(n, p) for n, p in zip(probs.shape[1:-1], "uvw")) + (ch1.input,)
    triples = []
    for row in probs:
        joint = JointDistribution(alphas, row)
        jy, jz = extend_with_channel(joint, x, ch1), extend_with_channel(joint, x, ch2)
        out = (x + 1,)
        if x == 3:
            triples.append((
                reference_information(jy, (0, 2), out),
                reference_information(jz, (1, 2), out),
                min(reference_information(jy, (2,), out), reference_information(jz, (2,), out))
                + reference_information(jy, (0,), out, (2,))
                + reference_information(jz, (1,), out, (2,))
                - reference_information(joint, (0,), (1,), (2,)),
            ))
        else:
            iu_y, iv_z = reference_information(jy, (0,), out), reference_information(jz, (1,), out)
            triples.append((iu_y, iv_z, min(iu_y + reference_information(jz, (1,), out, (0,)),
                                            iv_z + reference_information(jy, (0,), out, (1,)))))
    return np.array(triples).reshape(len(probs), 3)


@settings(max_examples=40)
@given(bound_batches())
def test_entropy_form_equals_reference_slice_formula(data):
    marton_probs, uv_probs, rows1, rows2 = data
    for rates, probs in ((_marton, marton_probs), (_uv, uv_probs)):
        got = np.stack(rates(probs, rows1, rows2), axis=1)
        np.testing.assert_allclose(got, reference_triples(probs, rows1, rows2), rtol=0.0, atol=1e-12)


@given(bound_batches())
def test_entropy_form_batch_rows_equal_lone_rows(data):
    marton_probs, uv_probs, rows1, rows2 = data
    for rates, probs in ((_marton, marton_probs), (_uv, uv_probs)):
        batch = rates(probs, rows1, rows2)
        for i in range(len(probs)):
            lone = rates(probs[i:i + 1], rows1, rows2)
            assert all(same_bits(b[i:i + 1], one) for b, one in zip(batch, lone))


def test_negative_zero_channel_entries_give_the_positive_zero_bits():
    # a channel file may hold -0.0 entries, and validation keeps them
    rows = np.array([[0.5, 0.5], [1.0, -0.0], [1.0, -0.0]])
    negative, positive = channel(rows), channel(np.abs(rows))
    assert np.signbit(negative.rows).any() and not np.signbit(positive.rows).any()
    other = channel(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]))
    rng = np.random.default_rng(26)
    for arity, rates in ((3, marton_rates), (2, uv_bound_rates)):
        alphas = tuple(Alphabet.of_size(2, p) for p in "uvw"[:arity]) + (negative.input,)
        for zero in (0.0, -0.0):
            probs = rng.dirichlet(np.ones(2**arity * 3)).reshape((2,) * arity + (3,))
            probs[..., 0] = zero  # the first input carries no mass
            joint = JointDistribution(alphas, probs / probs.sum())
            for pair in ((negative, other), (other, negative), (negative, negative)):
                flipped = tuple(positive if ch is negative else ch for ch in pair)
                got, want = (np.array([r.max_r1, r.max_r2, r.max_sum])
                             for r in (rates(joint, *pair), rates(joint, *flipped)))
                assert same_bits(got, want)


@st.composite
def dead_cube(draw):
    """A (C, A, B) joint in which, on every slice, A or B takes a single
    value: no slice is live."""
    nc, na, nb = (draw(st.integers(1, 5)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cube = rng.dirichlet(np.ones(nc * na * nb)).reshape(nc, na, nb)
    for c in range(nc):
        if rng.random() < 0.5:
            cube[c, np.arange(na) != rng.integers(na)] = 0.0
        else:
            cube[c, :, np.arange(nb) != rng.integers(nb)] = 0.0
    if cube.sum() == 0.0:
        cube[0, 0, 0] = 1.0
    return JointDistribution(tuple(Alphabet.of_size(n) for n in cube.shape), cube / cube.sum())


@given(dead_cube())
def test_cube_with_no_live_slice_returns_positive_zero(joint):
    got = mutual_information_pair(joint, (1,), (2,), (0,))
    expected = reference_information(joint, (1,), (2,), (0,))
    assert got == expected == 0.0
    assert not np.signbit(got) and math.copysign(1.0, expected) == 1.0


@given(st.data())
def test_marginal_equals_einsum_on_every_drop_pattern(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    assume(math.prod(shape) <= 2000)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(math.prod(shape)))
    probs[rng.random(probs.shape) < data.draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if probs.sum() == 0.0:
        probs[0] = 1.0
    joint = JointDistribution(tuple(Alphabet.of_size(n, f"a{i}_") for i, n in enumerate(shape)),
                              (probs / probs.sum()).reshape(shape))
    letters = "abcd"[:len(shape)]
    # a sum of n nonnegative cells of total mass 1 is off by at most n epsilons
    tol = math.prod(shape) * np.finfo(float).eps
    for k in range(len(shape) + 1):
        for kept in itertools.combinations(range(len(shape)), k):
            for axes in itertools.permutations(kept):
                marginal = joint.marginal(axes)
                want = np.einsum(f"{letters}->{''.join(letters[a] for a in axes)}", joint.probs)
                assert marginal.alphabets == tuple(joint.alphabets[a] for a in axes)
                if k == len(shape):  # nothing dropped: a transpose, exact
                    assert np.array_equal(marginal.probs, want)
                np.testing.assert_allclose(marginal.probs, want, rtol=0.0, atol=tol)


def test_empty_batch_equals_reference():
    rows = np.full((4, 2), 0.5)
    for probs in (np.empty((0, 2, 3, 2, 4)), np.empty((0, 2, 3, 4))):
        rates = _marton if probs.ndim == 5 else _uv
        assert all(same_bits(v, np.zeros(0)) for v in rates(probs, rows, rows))
        assert same_bits(reference_triples(probs, rows, rows), np.zeros((0, 3)))


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
    points = sample_marton(rep1, rep2, RunConfig(samples=1, seed=seed)).sample.points
    assert same_bits(points[:22], np.concatenate([marton_rates(j, ch1, ch2).corners() for j in joints]))
    (probs, alphabets), = _timeshare_probes(rep1, rep2)
    for i, joint in enumerate(joints):
        assert same_bits(probs[i], joint.probs) and alphabets == joint.alphabets


def test_probe_held_minimum_returns_that_probes_joint():
    pair = make_partition_pair(4, 3)
    ch1, ch2 = pair.first, pair.second
    rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
    report = sample_marton(rep1, rep2, RunConfig(samples=8))
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
    x_prev = g_prev = None
    for _ in range(_MAX_ITERS):
        g = np.nan_to_num(gradient(x), nan=0.0, posinf=1e6, neginf=-1e6)
        alpha = scale
        if x_prev is not None:
            # the spectral step from the last accepted move and the change
            # of the gradient over it, where the curvature is positive
            s = x - x_prev
            sy = float(s @ (g - g_prev))
            if sy > 0.0:
                alpha = min(float(s @ s) / sy, 64.0)
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
        x_prev, g_prev, x, fx = x, g, y, fy
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


def gap_checks(data, c1, c2):
    """(ch1, ch2, checks, refs, starts): the more-capable check, the ratio
    condition at c1 and c2 and, when both capacities are clearly positive,
    the divergence form, each as (name, c1, c2)."""
    rows1, rows2, starts = data
    ch1, ch2 = channel(rows1), channel(rows2)
    checks = [("more_capable_forward", 1.0, 1.0), ("ratio_condition", c1, c2)]
    rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
    if min(rep1.capacity, rep2.capacity) > 0.01:
        checks.append(("divergence_form", rep1.capacity, rep2.capacity))
    return ch1, ch2, checks, optimal_outputs(rep1, rep2), starts


def labelled_batch(ch1, ch2, checks, refs, starts):
    """(objective, gradient, starts, labels): every check's starts in one
    batch, check after check, each row labelled with its check."""
    objective, gradient, _ = _pair_gaps(ch1, ch2, [_check_terms(*check) for check in checks], refs)
    labels = np.repeat(np.arange(len(checks)), len(starts))
    return objective, gradient, np.tile(starts, (len(checks), 1)), labels


@settings(max_examples=30)
@given(pair_and_starts(), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_batched_descent_rows_equal_serial(data, c1, c2):
    ch1, ch2, checks, refs, starts = gap_checks(data, c1, c2)
    serial = []
    for name, a, b in checks:
        objective, gradient, _ = lone_gap(name, ch1, ch2, a, b, refs)
        x, fx, evals = descend(objective, gradient, starts)
        for i, x0 in enumerate(starts):
            one_x, one_fx, one_evals = serial_descent(objective, gradient, x0)
            assert np.array_equal(x[i], one_x)
            assert fx[i] == one_fx
            assert evals[i] == one_evals
            serial.append((one_x, one_fx, one_evals))
    x, fx, evals = descend(*labelled_batch(ch1, ch2, checks, refs, starts))
    for i, (one_x, one_fx, one_evals) in enumerate(serial):
        assert np.array_equal(x[i], one_x)
        assert fx[i] == one_fx
        assert evals[i] == one_evals


@settings(max_examples=5)
@given(pair_and_starts(), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_mixed_batch_rows_equal_serial_at_any_trials_per_pass(data, c1, c2):
    ch1, ch2, checks, refs, starts = gap_checks(data, c1, c2)
    serial = [
        serial_descent(*lone_gap(name, ch1, ch2, a, b, refs)[:2], x0)
        for name, a, b in checks
        for x0 in starts
    ]
    objective, gradient, batch, labels = labelled_batch(ch1, ch2, checks, refs, starts)
    assert_any_trials_per_pass_equal_serial(objective, gradient, batch, serial, labels)


def descend(objective, gradient, starts, checks=None):
    """`_descend` from `starts`: of functions of the points alone with every
    start labelled 0, or, given the labels `checks`, of points and labels."""
    if checks is None:
        f, g, checks = objective, gradient, np.zeros(len(starts), dtype=int)
        objective, gradient = (lambda p, k: f(p)), (lambda p, k: g(p))
    return _descend(objective, gradient, starts, checks)


def assert_any_trials_per_pass_equal_serial(objective, gradient, starts, serial=None, checks=None):
    """Descend from `starts` with 1 to 4 backtracking trials per pass, and
    compare every row with its lone descent, `serial` (by default, each
    start's from `objective` and `gradient`); `checks` labels the rows for
    `_descend`. Returns the lone evaluations."""
    if serial is None:
        serial = [serial_descent(objective, gradient, x0) for x0 in starts]
    for trials in (1, 2, 3, 4):
        with patch("tdopt.comparison._TRIALS", trials):
            x, fx, evals = descend(objective, gradient, starts, checks)
        for i, (one_x, one_fx, one_evals) in enumerate(serial):
            assert np.array_equal(x[i], one_x)
            assert fx[i] == one_fx
            assert evals[i] == one_evals
    return np.array([one_evals for _, _, one_evals in serial])


def linear(c):
    """p -> c.p and its constant gradient."""
    return (lambda p: (p * c).sum(-1)), (lambda p: np.broadcast_to(c, p.shape).copy())


def vertices_and_draws(nx, rng):
    return np.vstack([np.eye(nx), rng.dirichlet(np.ones(nx), 2)])


@settings(max_examples=15)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_uphill_rows_stop_at_the_halving_cap_mid_pass(nx, seed):
    # with the gradient's sign flipped every moving trial raises a linear
    # objective, by far more than its rounding, so each start but the
    # vertex of the largest coefficient fails 50 trials in its first outer
    # step; 50 is no multiple of 3 or 4
    rng = np.random.default_rng(seed)
    c = 100.0 * (rng.permutation(nx) + rng.random(nx) * 0.5)
    objective, gradient = linear(c)
    starts = vertices_and_draws(nx, rng)
    evals = assert_any_trials_per_pass_equal_serial(objective, lambda p: -gradient(p), starts)
    assert evals[c.argmax()] == 1
    assert (np.delete(evals, c.argmax()) == 51).all()


@settings(max_examples=15)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_vertex_start_whose_trial_does_not_move(nx, seed):
    # a linear objective descends to the vertex of its smallest coefficient,
    # where every trial step projects back onto the point itself
    rng = np.random.default_rng(seed)
    c = rng.permutation(nx) + rng.random(nx) * 0.5
    evals = assert_any_trials_per_pass_equal_serial(*linear(c), vertices_and_draws(nx, rng))
    assert evals[c.argmin()] == 1


@settings(max_examples=15)
@given(pair_and_starts(), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_non_finite_gradient_entries(data, c1, c2):
    # NaN, +inf and -inf entries chosen by the point's own coordinates, so a
    # lone point and a batch row get the same ones
    rows1, rows2, starts = data
    objective, gradient, _ = lone_gap("ratio_condition", channel(rows1), channel(rows2), c1, c2)

    def non_finite(p):
        g = gradient(p)
        g = np.where(p > 0.8, np.nan, g)
        g = np.where((p > 0.45) & (p < 0.5), np.inf, g)
        return np.where(p == 0.0, -np.inf, g)

    assert not np.isfinite(non_finite(starts)).all()
    assert_any_trials_per_pass_equal_serial(objective, non_finite, starts)


@settings(max_examples=15)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_spectral_step_falls_back_where_curvature_is_not_positive(nx, seed, non_finite):
    # a concave objective has <s,y> < 0 at every step, so the first trial of
    # each outer step must be the row's scale, not the negative (or, on the
    # first step, 0/0) spectral quotient; some gradients get NaN and infinite
    # entries, which the descent replaces before taking y. Every trial point
    # of an outer step from x with gradient g is then finite, goes downhill
    # (<g, x - y> >= 0) and lies within 64 |g| of x, projection being
    # non-expansive: both up to how far x is off the simplex, which after a
    # step of 1e6-sized entries is the rounding of the projected sum
    rng = np.random.default_rng(seed)
    w = 1.0 + rng.random(nx)

    def objective(p):
        return -(w * p * p).sum(-1)

    def gradient(p):
        g = -2.0 * w * p
        if non_finite:
            g = np.where(p > 0.8, np.nan, g)
            g = np.where((p > 0.45) & (p < 0.5), -np.inf, g)
        return g

    for x0 in vertices_and_draws(nx, rng):
        points = []  # (x, g) of each outer step, with its trial points

        def spy_gradient(p):
            g = gradient(p)
            points.append((p[0].copy(), np.nan_to_num(g[0], nan=0.0, posinf=1e6, neginf=-1e6), []))
            return g

        def spy_objective(p):
            if points:
                points[-1][2].extend(p.copy())
            return objective(p)

        descend(spy_objective, spy_gradient, x0[None])
        curvatures = [(x - x_prev) @ (g - g_prev) for (x_prev, g_prev, _), (x, g, _) in zip(points, points[1:])]
        assert non_finite or all(c <= 0.0 for c in curvatures)
        for x, g, trials in points:
            off = abs(x.sum() - 1.0) + 1e-15
            for y in trials:
                assert np.isfinite(y).all()
                assert g @ (x - y) >= -np.abs(g).sum() * off
                assert np.linalg.norm(x - y) <= 64.0 * np.linalg.norm(g) * (1.0 + 1e-12) + off
    assert_any_trials_per_pass_equal_serial(objective, gradient, vertices_and_draws(nx, rng))
