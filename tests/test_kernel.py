"""Properties of the information kernel in `tdopt.core` and of the search
objectives built on it: a batch of shape (S, |X|) evaluates as each of its
rows alone.

The kernel functions whose contractions are elementwise or take one BLAS
call per row agree bit for bit. Where a batch goes through `p @ rows` (I(X;Y)
and the three checks' objectives and gradients), BLAS sums a matrix product
in another order than a vector product, so rows may differ in the last bits;
there the bound is 4096 float64 epsilons of the largest term summed.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdopt.capacity import analyze_channel
from tdopt.comparison import _divergence_gap, _rate_gap
from tdopt.core import (
    LN2,
    Alphabet,
    Channel,
    information,
    kl,
    neg_entropy,
    row_divergences,
    row_log_ratios,
    xlogx,
)

_TOL = 4096 * np.finfo(float).eps
_STAND_IN = 1e9  # magnitude of the ln 0 stand-in in the row divergences

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
    assert_rows_close(lambda p: information(p, rows, rne), pts, lambda p: 3.0)


def _gradient_scale(rows_pair, c_min):
    """Largest term a check's gradient sums: the ln 0 stand-in when some
    output goes unreached, else a few nats."""

    def scale(p):
        unreached = any(np.any((p @ rows == 0.0) & (rows.max(axis=0) > 0.0)) for rows in rows_pair)
        return (_STAND_IN if unreached else 100.0) / (LN2 * c_min)

    return scale


@given(channel_pair_and_points(), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_rate_gap_objective_and_gradient_rows_match(data, c1, c2):
    rows1, rows2, pts = data
    ch1, ch2 = channel(rows1), channel(rows2)
    for (objective, gradient), c_min in (
        (_rate_gap(ch2, ch1), 1.0),                   # the more-capable check
        (_rate_gap(ch1, ch2, c1, c2), min(c1, c2)),   # the ratio condition
    ):
        assert_rows_close(objective, pts, lambda p: 10.0 / c_min)
        assert_rows_close(gradient, pts, _gradient_scale((rows1, rows2), c_min))


@given(channel_pair_and_points())
def test_divergence_gap_objective_and_gradient_rows_match(data):
    rows1, rows2, pts = data
    ch1, ch2 = channel(rows1), channel(rows2)
    rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
    c_min = min(rep1.capacity, rep2.capacity)
    assume(c_min > 0.01)
    objective, gradient = _divergence_gap(ch1, ch2, rep1, rep2)
    refs = np.concatenate([rep.optimal_output.probs for rep in (rep1, rep2)])
    log_ref = -math.log(refs[refs > 0.0].min())
    assert_rows_close(objective, pts, lambda p: (log_ref + 10.0) / (LN2 * c_min))
    assert_rows_close(gradient, pts, _gradient_scale((rows1, rows2), c_min))
