"""Finite-alphabet probability primitives: alphabets, distributions, channels,
joints, and the information quantities everything else is built from.

All information quantities are computed in natural log internally and reported
in bits. Conventions: 0*log(0) = 0 and 0*log(0/0) = 0; a strictly positive
probability against a zero reference yields +inf (never an exception), except
in the per-row divergences that drive the capacity iteration and the search
gradients, which use a large finite stand-in. The kernel functions below are
the only place these conventions are written down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

# Validity tolerances for probability vectors: accept as-is within EXACT_TOL,
# renormalize when within RENORM_TOL, reject beyond that.
EXACT_TOL = 1e-12
RENORM_TOL = 1e-9


class AlphabetMismatchError(ValueError):
    """Raised when two objects that must share an alphabet do not."""


def _clean_probs(values, what, batch: bool = False) -> np.ndarray:
    """Validate a probability array (any shape), returning a normalized copy.

    Entries below -RENORM_TOL or total mass off by more than RENORM_TOL are
    rejected; small negatives are clamped to zero and near-unit mass is left
    untouched so that clean inputs round-trip bit-for-bit.

    With `batch`, the first axis indexes independent arrays: each is checked
    and normalized exactly as it would be alone, and the first one that fails
    raises the message it would raise alone. There `what` may also be a
    function of the failing array's index that returns its name.
    """
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{what} is empty")
    # sums run over each array's own memory order, as a lone array's would
    rows = arr if batch else arr[None]
    axes = tuple(range(1, rows.ndim))
    finite = np.isfinite(rows).all(axis=axes)
    low = rows.min(axis=axes)
    clamp = low.min() < 0.0
    clamped = np.where(rows < 0.0, 0.0, rows) if clamp else rows
    total = clamped.sum(axis=axes)
    bad = ~finite | (low < -RENORM_TOL) | (np.abs(total - 1.0) > RENORM_TOL)
    if bad.any():
        i = int(bad.argmax())
        if callable(what):
            what = what(i)
        if not finite[i]:
            raise ValueError(f"{what} contains non-finite entries")
        if low[i] < -RENORM_TOL:
            idx = tuple(int(k) for k in np.unravel_index(int(rows[i].argmin()), rows.shape[1:]))
            raise ValueError(
                f"{what} has negative entry {float(low[i]):.12g} at position {idx}"
            )
        raise ValueError(f"{what} sums to {float(total[i]):.12g}, not 1")
    if clamp:
        rows[...] = clamped
    # accept-as-is band grows with width: rounding every entry to 12
    # significant digits can shift the sum by up to ~5e-13 per entry, and
    # such vectors must survive a save/load cycle untouched
    off = np.abs(total - 1.0) > max(EXACT_TOL, 5e-13 * (rows.size // len(rows)))
    if off.any():
        rows[off] /= total[off].reshape((-1,) + (1,) * len(axes))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free collection of symbol labels."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        syms = tuple(str(s) for s in self.symbols)
        if not syms:
            raise ValueError("alphabet must not be empty")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet has duplicate symbols")
        object.__setattr__(self, "symbols", syms)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol) -> bool:
        return symbol in self.symbols

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} not in alphabet") from None

    @staticmethod
    def of_size(n: int, prefix: str = "x") -> "Alphabet":
        if n < 1:
            raise ValueError("alphabet size must be >= 1")
        return Alphabet(tuple(f"{prefix}{i}" for i in range(n)))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability distribution over an Alphabet."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        arr = _clean_probs(self.probs, "distribution")
        if arr.ndim != 1 or arr.shape[0] != len(self.alphabet):
            raise ValueError(
                f"distribution has {arr.size} entries for alphabet of size {len(self.alphabet)}"
            )
        object.__setattr__(self, "probs", arr)

    @staticmethod
    def uniform(alphabet: Alphabet) -> "Distribution":
        n = len(alphabet)
        return Distribution(alphabet, np.full(n, 1.0 / n))

    @staticmethod
    def point_mass(alphabet: Alphabet, symbol: str) -> "Distribution":
        probs = np.zeros(len(alphabet))
        probs[alphabet.index(symbol)] = 1.0
        return Distribution(alphabet, probs)

    def prob(self, symbol: str) -> float:
        return float(self.probs[self.alphabet.index(symbol)])

    def support(self) -> tuple[str, ...]:
        return tuple(s for s, p in zip(self.alphabet, self.probs) if p > 0.0)


@dataclass(frozen=True, eq=False)
class Channel:
    """Discrete memoryless channel: a stochastic matrix indexed by
    (input symbol, output symbol), and its reduced form, computed once and
    read-only: `reachable`, the mask of outputs some input reaches;
    `reduced_rows`, the slice `rows[:, reachable]` in that slice's layout;
    and `reduced_neg_ent`, the `neg_entropy` of each reduced row."""

    input: Alphabet
    output: Alphabet
    rows: np.ndarray
    reachable: np.ndarray = field(init=False, repr=False)
    reduced_rows: np.ndarray = field(init=False, repr=False)
    reduced_neg_ent: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # C order, so each row is summed as the lone row would be
        arr = np.array(self.rows, dtype=float, order="C")
        if arr.ndim != 2 or arr.shape != (len(self.input), len(self.output)):
            raise ValueError(
                f"channel matrix shape {arr.shape} does not match "
                f"{len(self.input)} inputs x {len(self.output)} outputs"
            )
        symbols = self.input.symbols
        cleaned = _clean_probs(arr, lambda i: f"channel row {i} (input {symbols[i]!r})", batch=True)
        reachable = cleaned.max(axis=0) > 0.0
        reduced = cleaned[:, reachable]
        for name, value in (("rows", cleaned), ("reachable", reachable),
                            ("reduced_rows", reduced), ("reduced_neg_ent", neg_entropy(reduced))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class BroadcastPair:
    """Two channels fed by one input terminal; marginals fully determine the
    capacity region, so no joint conditional is kept."""

    first: Channel
    second: Channel

    def __post_init__(self):
        if self.first.input != self.second.input:
            raise AlphabetMismatchError("broadcast pair channels must share the input alphabet")


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint distribution over a product of alphabets, stored densely."""

    alphabets: tuple[Alphabet, ...]
    probs: np.ndarray

    def __post_init__(self):
        alphs = tuple(self.alphabets)
        arr = _clean_probs(self.probs, "joint distribution")
        expected = tuple(len(a) for a in alphs)
        if arr.shape != expected:
            raise ValueError(f"joint shape {arr.shape} does not match alphabets {expected}")
        object.__setattr__(self, "alphabets", alphs)
        object.__setattr__(self, "probs", arr)

    @property
    def ndim(self) -> int:
        return self.probs.ndim

    def marginal(self, axes: tuple[int, ...]) -> "JointDistribution":
        """Marginal joint over `axes`, kept in the given order."""
        axes = tuple(axes)
        _check_axes(self.ndim, axes)
        reduced = _marginal_batch(self.probs[None], axes)[0]
        return JointDistribution(tuple(self.alphabets[a] for a in axes), reduced)

    def marginal_distribution(self, axis: int) -> Distribution:
        return Distribution(self.alphabets[axis], self.marginal((axis,)).probs)


def _check_axes(ndim: int, axes: tuple[int, ...]):
    if len(set(axes)) != len(axes):
        raise ValueError(f"repeated axes in {axes}")
    for a in axes:
        if not 0 <= a < ndim:
            raise ValueError(f"axis {a} out of range for {ndim}-axis joint")


# The information kernel. Every function reduces over the last axis and
# broadcasts over any leading ones, so one call evaluates a single point or a
# whole batch; natural logs throughout, bits where a docstring says so.

FLOOR = 1e-300  # smallest probability put under a logarithm
_ZERO_REF_LOG = -1e9  # stands in for ln 0 where a reference misses an output a row reaches


def _log(a: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(a, FLOOR))


def _rows_dot(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows @ v for v of shape (..., |Y|). Each v row takes the same BLAS
    call as a lone vector, so a batch agrees bit for bit with single calls."""
    return (rows @ v[..., None])[..., 0]


def _point_dot(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """p @ m for points p of shape (..., |X|) and a vector or matrix m with
    |X| rows. Each point takes the same BLAS call as a lone point, so a batch
    agrees bit for bit with single calls."""
    return np.squeeze(p[..., None, :] @ m, axis=p.ndim - 1)


def xlogx(a: np.ndarray) -> np.ndarray:
    """Elementwise a*ln(a) in nats, with 0*ln(0) = 0."""
    return np.where(a > 0.0, a * _log(a), 0.0)


def neg_entropy(a: np.ndarray) -> np.ndarray:
    """sum a*ln(a) over the last axis in nats: minus each row's entropy."""
    return xlogx(a).sum(axis=-1)


def information(
    p: np.ndarray, rows: np.ndarray, rows_neg_ent: np.ndarray, one_product: bool = False
) -> np.ndarray:
    """I(X;Y) in bits for input distributions `p` (shape (..., |X|)) through
    the channel matrix `rows`, given `neg_entropy(rows)`. Each point takes a
    lone point's products, so a batch agrees bit for bit with single calls.

    With `one_product` (the search grid's path), the whole batch takes one
    matrix product instead: much faster on large batches, but BLAS may sum it
    in another order than a single point's, so rows can differ from single
    calls in the last bits."""
    dot = np.matmul if one_product else _point_dot
    return (dot(p, rows_neg_ent) - neg_entropy(dot(p, rows))) / LN2


def row_divergences(rows: np.ndarray, rows_neg_ent: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(rows[x] || q) in nats for every row x, for references `q` of shape
    (..., |Y|); returns shape (..., |X|). With q = p @ rows this is the
    gradient of I(X;Y) in p(x), less a constant.

    Where q misses an output some row reaches, ln 0 is replaced by a large
    negative constant, so that row's divergence is huge but finite.
    """
    return rows_neg_ent - _rows_dot(rows, np.where(q > 0.0, _log(q), _ZERO_REF_LOG))


def row_log_ratios(rows: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_y rows[x, y] ln(q(y) / r(y)) in nats for every row x, for `q` of
    shape (..., |Y|) and a positive reference `r`. With q = p @ rows this is
    the gradient of D(q || r) in p(x), less a constant. Where q misses an
    output, the same stand-in as in `row_divergences` replaces the log ratio.
    """
    return _rows_dot(rows, np.where(q > 0.0, _log(q) - np.log(r), _ZERO_REF_LOG))


def kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p || q) in bits over the last axis; +inf where supp(p) escapes supp(q)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (_log(p) - np.log(q)), 0.0)
    return terms.sum(axis=-1) / LN2


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits."""
    return float(-neg_entropy(dist.probs) / LN2)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Relative entropy D(p || q) in bits; +inf when supp(p) escapes supp(q)."""
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError("KL divergence needs a common alphabet")
    return float(kl(p.probs, q.probs))


def push_forward(p: Distribution, ch: Channel) -> Distribution:
    """Output distribution of `ch` when fed `p`."""
    if p.alphabet != ch.input:
        raise AlphabetMismatchError("input distribution does not match channel input alphabet")
    return Distribution(ch.output, p.probs @ ch.rows)


def mutual_information(p: Distribution, ch: Channel) -> float:
    """I(X;Y) in bits between `p` and the output of `ch`."""
    if p.alphabet != ch.input:
        raise AlphabetMismatchError("input distribution does not match channel input alphabet")
    return float(information(p.probs, ch.rows, neg_entropy(ch.rows)))


def extend_with_channel(joint: JointDistribution, axis: int, ch: Channel) -> JointDistribution:
    """Append a channel-output axis: the new last axis is ch applied to `axis`."""
    _check_axes(joint.ndim, (axis,))
    if joint.alphabets[axis] != ch.input:
        raise AlphabetMismatchError(f"joint axis {axis} does not match channel input alphabet")
    ext = extend_batch(joint.probs[None], axis, ch.rows)[0]
    return JointDistribution(joint.alphabets + (ch.output,), ext)


def mutual_information_pair(
    joint: JointDistribution,
    axes_a: tuple[int, ...],
    axes_b: tuple[int, ...],
    axes_cond: tuple[int, ...] = (),
) -> float:
    """Mutual information I(A;B|C) in bits between axis groups of a joint;
    see `conditional_information`."""
    return float(conditional_information(joint.probs[None], axes_a, axes_b, axes_cond)[0])


# The batch-first joint kernel: a batch of joints is an array of shape
# (S, *joint_shape), and axis arguments index the joint axes. Each joint of a
# batch gets the bits it would get alone.


def _marginal_batch(probs: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Marginals over joint axes `axes`, kept in the given order, as a view
    of their sums: its memory layout is the one every later sum follows."""
    drop = tuple(i + 1 for i in range(probs.ndim - 1) if i not in axes)
    reduced = probs.sum(axis=drop) if drop else probs
    order = sorted(axes).index  # reduced axes appear in sorted order
    return np.transpose(reduced, (0,) + tuple(order(a) + 1 for a in axes))


def extend_batch(probs: np.ndarray, axis: int, rows: np.ndarray) -> np.ndarray:
    """Append a channel-output axis to every joint of a batch: the new last
    axis is the channel matrix `rows` applied to joint axis `axis`."""
    ext = np.moveaxis(probs, axis + 1, -1)[..., :, None] * rows
    return np.moveaxis(ext, -2, axis + 1)


def extended_marginal(probs: np.ndarray, axes: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """The marginal over joint axes `axes` (in the given order) and a channel
    output, for every joint of a batch whose last joint axis is the channel
    input X: the marginal of `extend_batch(probs, X, rows)` over `axes` and
    its new last axis, without building that extension.

    Each joint is summed over the axes it drops, then multiplied by `rows`
    and summed over X elementwise (no BLAS product), so every joint of a
    batch gets the bits it would get alone. The output axis comes last."""
    x_axis = probs.ndim - 2
    marginal = _marginal_batch(probs, tuple(axes) + (x_axis,))
    return (marginal[..., None] * rows).sum(axis=-2)


def conditional_information(
    probs: np.ndarray,
    axes_a: tuple[int, ...],
    axes_b: tuple[int, ...],
    axes_cond: tuple[int, ...] = (),
) -> np.ndarray:
    """I(A;B|C) in bits between axis groups, for every joint of a batch.

    Each slice of the conditioning product contributes the sum of
    m*ln(m*s / (pa*pb)) over its nonzero cells m, where pa and pb are the
    slice's marginals and s its mass; a joint's slices are added in slice
    order. Slices where either group is almost surely constant contribute
    exactly 0.0, so independence that holds by structure (not by
    cancellation) is reported without float noise.
    """
    axes_a, axes_b, axes_cond = tuple(axes_a), tuple(axes_b), tuple(axes_cond)
    all_axes = axes_cond + axes_a + axes_b
    _check_axes(probs.ndim - 1, all_axes)
    if not axes_a or not axes_b:
        raise ValueError("both axis groups must be non-empty")

    return cube_information(_marginal_batch(probs, all_axes), len(axes_cond), len(axes_a))


def cube_information(marginal: np.ndarray, n_cond: int, n_a: int) -> np.ndarray:
    """I(A;B|C) in bits, as in `conditional_information`, for a batch of
    marginals whose joint axes are the `n_cond` axes of C, then the `n_a`
    axes of A, then those of B; they are read as (S, |C|, |A|, |B|) cubes.
    When no slice is live in any joint, every row is +0.0 and nothing else
    is computed."""
    shape = marginal.shape[1:]
    n, nc, na, nb = (len(marginal), math.prod(shape[:n_cond]),
                     math.prod(shape[n_cond:n_cond + n_a]), math.prod(shape[n_cond + n_a:]))
    cube = marginal.reshape(n, nc, na, nb)
    nz = cube > 0.0
    # Structural independence: a slice where A or B is constant carries no
    # information, and saying so exactly avoids spurious 1e-16 residue.
    live = (nz.any(axis=3).sum(axis=2) > 1) & (nz.any(axis=2).sum(axis=2) > 1)
    if not live.any():
        return np.zeros(n)

    # numpy orders a reduction's loops by memory layout, so summing the whole
    # cube at once could add a slice's cells in another order than a lone
    # joint's slice. The marginals and masses are therefore summed one slice
    # at a time, each an (S, |A|, |B|) batch laid out as the lone slices are.
    # Slices dead in every joint keep ones; their terms are discarded.
    pa = np.ones((n, nc, na, 1))
    pb = np.ones((n, nc, 1, nb))
    s = np.ones((n, nc, 1, 1))
    for ic in np.flatnonzero(live.any(axis=0)):
        m = cube[:, ic]
        pa[:, ic] = m.sum(axis=2, keepdims=True)
        pb[:, ic] = m.sum(axis=1, keepdims=True)
        s[:, ic] = m.sum(axis=(1, 2), keepdims=True)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nz, (cube * s) / (pa * pb), 1.0)
    terms = (cube * np.log(ratio)).reshape(n * nc, na * nb)
    slice_nats = _sum_nonzero(terms, nz.reshape(n * nc, na * nb)).reshape(n, nc)
    slice_nats = np.where(live, slice_nats, 0.0)
    # accumulate adds strictly left to right; sum would pair slices
    return np.add.accumulate(slice_nats, axis=1)[:, -1] / LN2


def _sum_nonzero(terms: np.ndarray, nz: np.ndarray) -> np.ndarray:
    """Row sums of `terms` over the cells where `nz` holds. numpy sums by
    position (pairwise, in blocks of eight), so each row's selected cells are
    packed to the front in order and summed at their own count, exactly as
    the 1-D array of those cells alone would be."""
    count = nz.sum(axis=1)
    if (count == nz.shape[1]).all():
        return terms.sum(axis=1)
    packed = np.take_along_axis(terms, np.argsort(~nz, axis=1, kind="stable"), axis=1)
    sums = np.empty(len(terms))
    for k in np.flatnonzero(np.bincount(count)):  # the distinct counts
        pick = count == k
        sums[pick] = packed[pick][:, :k].sum(axis=1)
    return sums
