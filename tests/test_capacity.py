import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import tdopt.capacity as capacity
from tdopt.capacity import (
    ConvergenceError,
    InconsistentCertificateError,
    _support_union_lp,
    analyze_channel,
    compute_capacity,
    compute_peak_set,
    divergence_profile,
    is_capacity_achieving,
)
from tdopt.config import RunConfig
from tdopt.core import (
    LN2,
    Alphabet,
    Channel,
    Distribution,
    kl_divergence,
    mutual_information,
    neg_entropy,
    push_forward,
    row_divergences,
)
from tdopt.families import make_bec, make_bsc, make_partition_pair

from conftest import (
    h2,
    make_identity,
    noisy_identity,
    random_channel,
    random_distribution,
    same_bits,
)

B = Alphabet(("0", "1"))
TDBENCH = pathlib.Path(__file__).resolve().parents[1] / "tdbench"
# the benchmark's reference computations, which import nothing from tdopt
_ORACLES_SPEC = importlib.util.spec_from_file_location("oracles", TDBENCH / "oracles.py")
oracles = importlib.util.module_from_spec(_ORACLES_SPEC)
_ORACLES_SPEC.loader.exec_module(oracles)
# the seeded random channels of the capacity sweep tool
_CAPSWEEP_SPEC = importlib.util.spec_from_file_location("capsweep", TDBENCH.parent / "tools" / "capsweep.py")
capsweep = importlib.util.module_from_spec(_CAPSWEEP_SPEC)
_CAPSWEEP_SPEC.loader.exec_module(capsweep)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Capacity 1 bit. The over-relaxed update p * exp(2 (d - max d)) falls into a
# 2-cycle here and never closes the bracket.
TWO_CYCLE_ROWS = np.array([[0, 1], [0, 1], [0.5, 0.5], [1, 0]])
# Four identical rows: solved as one row, or the Newton system is singular.
IDENTICAL_ROWS = np.array([[0, 0, 0, 1, 0]] * 4 + [[0, 0, 0.25, 0, 0.75], [0, 0, 0.5, 0.5, 0]])
# The near-peak support at iteration 8 leaves out x1, the only input reaching
# y2, so the Newton system meets an output column with no mass.
DEAD_COLUMN_ROWS = np.array([[1, 0, 0, 0, 0], [2, 3, 1, 0, 0], [0, 2, 0, 2, 1],
                             [1, 1, 0, 1, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]]) / \
    np.array([[1], [6], [5], [3], [1], [1]])

# Three rows and a fourth within eps of the first: more near-peak inputs than
# outputs, which made the polish's Newton system singular.
NEAR_DUPLICATE_ROWS = np.array([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7], [0.7, 0.2, 0.1]])


def near_duplicate(rows, eps):
    """`rows` with its last row moved by eps * (1, -1, 0, ...)."""
    rows = np.array(rows, dtype=float)
    rows[-1, :2] += (eps, -eps)
    return rows


def channel(rows) -> Channel:
    rows = np.asarray(rows, dtype=float)
    return Channel(Alphabet.of_size(rows.shape[0]), Alphabet.of_size(rows.shape[1], "y"), rows)


def count_lp_calls(monkeypatch):
    """Count the calls analyze_channel makes to the two simplex programs."""
    calls = {"feasible_basis": 0, "lp_solve_max_coordinate": 0}

    def counting(name):
        fn = getattr(capacity, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(capacity, name, wrapper)

    counting("feasible_basis")
    counting("lp_solve_max_coordinate")
    return calls


class TestClosedFormCapacities:
    @pytest.mark.parametrize("eps", [0.05, 0.11, 0.25, 0.45])
    def test_bsc(self, eps):
        rep = analyze_channel(make_bsc(eps))
        assert rep.capacity == pytest.approx(1.0 - h2(eps), abs=1e-9)
        assert np.allclose(rep.achieving_input.probs, [0.5, 0.5], atol=1e-6)
        assert np.allclose(rep.optimal_output.probs, [0.5, 0.5], atol=1e-6)

    @pytest.mark.parametrize("eps", [0.1, 0.4, 0.9])
    def test_bec(self, eps):
        rep = analyze_channel(make_bec(eps))
        assert rep.capacity == pytest.approx(1.0 - eps, abs=1e-9)

    def test_identity(self):
        rep = analyze_channel(make_identity(4))
        assert rep.capacity == pytest.approx(2.0, abs=1e-12)

    def test_constant_channel_zero_capacity(self):
        ch = Channel(B, B, np.array([[0.3, 0.7], [0.3, 0.7]]))
        rep = analyze_channel(ch)
        assert rep.capacity == pytest.approx(0.0, abs=1e-12)

    def test_partition_pair_golden(self):
        pair = make_partition_pair(4, 2)
        assert analyze_channel(pair.first).capacity == pytest.approx(2.0, abs=1e-9)
        assert analyze_channel(pair.second).capacity == pytest.approx(1.0, abs=1e-9)


class TestBracket:
    def test_gap_within_tolerance_and_capacity_in_range(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            rep = analyze_channel(ch)
            assert 0.0 <= rep.gap <= 1e-10
            bound = min(math.log2(len(ch.input)), math.log2(len(ch.output)))
            assert -1e-9 <= rep.capacity <= bound + 1e-9

    def test_worst_case_divergence_matches_capacity(self):
        # the minimax identity: min over outputs of the worst-case divergence
        # equals capacity, attained by the optimal output
        rng = np.random.default_rng(7)
        for _ in range(20):
            ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            rep = analyze_channel(ch)
            assert abs(rep.divergence_profile.max() - rep.capacity) <= 1e-5

    def test_suboptimal_reference_does_worse(self):
        # any other output distribution has a strictly larger worst-case divergence
        rng = np.random.default_rng(8)
        ch = random_channel(rng, 4, 4)
        rep = analyze_channel(ch)
        for _ in range(25):
            r = random_distribution(rng, ch.output)
            try:
                prof = divergence_profile(ch, r)
            except ValueError:
                continue
            assert prof.max() >= rep.capacity - 1e-9

    def test_non_convergence_raises_with_bracket(self, monkeypatch):
        ch = Channel(B, B, np.array([[0.9, 0.1], [0.4, 0.6]]))
        monkeypatch.setattr(capacity, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as exc:
            compute_capacity(ch, RunConfig(tol=1e-15))
        lo, hi = exc.value.bracket_bits
        assert hi > lo and exc.value.iterations == 1

    def test_unreachable_outputs_ignored(self):
        wide = Channel(B, Alphabet(("0", "1", "dead")),
                       np.array([[0.89, 0.11, 0.0], [0.11, 0.89, 0.0]]))
        rep = analyze_channel(wide)
        assert rep.capacity == pytest.approx(1.0 - h2(0.11), abs=1e-9)
        assert rep.optimal_output.prob("dead") == 0.0


class TestDivergenceProfile:
    def test_identity_channel_uniform_reference(self):
        ch = make_identity(4)
        prof = divergence_profile(ch, Distribution.uniform(ch.output))
        assert np.allclose(prof, 2.0, atol=1e-12)

    def test_partition_channel_profile(self):
        pair = make_partition_pair(4, 2)
        rep = analyze_channel(pair.first)
        prof = divergence_profile(pair.first, rep.optimal_output)
        assert np.allclose(prof[:4], 2.0, atol=1e-9)
        assert np.allclose(prof[4:], 0.0, atol=1e-9)

    def test_reference_missing_reachable_output(self):
        ch = make_bsc(0.2)
        with pytest.raises(ValueError, match="reachable"):
            divergence_profile(ch, Distribution.point_mass(ch.output, "0"))


class TestPeakSet:
    def test_bsc_everything_peaks(self):
        rep = analyze_channel(make_bsc(0.11))
        assert rep.peak_set == ("0", "1")

    def test_partition_blocks(self):
        pair = make_partition_pair(4, 2)
        assert analyze_channel(pair.first).peak_set == ("a0", "a1", "a2", "a3")
        assert analyze_channel(pair.second).peak_set == ("b0", "b1")

    def test_empty_peak_set_rejected(self):
        rep = analyze_channel(make_bsc(0.11))
        with pytest.raises(ValueError, match="tolerance"):
            compute_peak_set(rep.channel, 5.0, rep.gap, rep.divergence_profile, RunConfig.peak_tol)

    def test_average_divergence_saturates_on_peak_set(self):
        # any input supported on the peak set realizes capacity as its
        # average divergence to the optimal output
        rng = np.random.default_rng(12)
        for _ in range(10):
            ch = random_channel(rng, 4, 4)
            rep = analyze_channel(ch)
            idx = [ch.input.index(s) for s in rep.peak_set]
            w = rng.dirichlet(np.ones(len(idx)))
            probs = np.zeros(len(ch.input))
            probs[idx] = w
            p = Distribution(ch.input, probs)
            div = row_divergences(ch.rows, neg_entropy(ch.rows), rep.optimal_output.probs)
            assert float(p.probs @ div) / LN2 == pytest.approx(rep.capacity, abs=1e-5)


class TestSupportUnion:
    def test_bsc_full(self):
        rep = analyze_channel(make_bsc(0.11))
        assert rep.support_union == ("0", "1")

    def test_partition_blocks(self):
        pair = make_partition_pair(4, 2)
        assert analyze_channel(pair.first).support_union == ("a0", "a1", "a2", "a3")
        assert analyze_channel(pair.second).support_union == ("b0", "b1")

    def test_constant_channel_union_is_everything(self):
        ch = Channel(B, B, np.array([[0.3, 0.7], [0.3, 0.7]]))
        rep = analyze_channel(ch)
        assert rep.support_union == ("0", "1")

    def test_union_inside_peak_set(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            rep = analyze_channel(ch)
            assert set(rep.support_union) <= set(rep.peak_set)

    def test_witness_has_exactly_union_support(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            rep = analyze_channel(ch)
            w = rep.achieving_input
            assert w.support() == rep.support_union
            assert is_capacity_achieving(w, rep)

    def test_identical_rows_certify(self):
        # four identical rows make the polish's Newton system singular; each
        # group of identical rows is solved as one row, so the bracket closes
        # and the peak set reproduces the optimal output
        rep = analyze_channel(channel(IDENTICAL_ROWS))
        assert abs(rep.capacity - 1.0) <= 1e-9
        assert rep.support_union == ("x0", "x1", "x2", "x3", "x4")
        assert is_capacity_achieving(rep.achieving_input, rep)

    def test_report_achieving_input_is_the_witness(self):
        pair = make_partition_pair(4, 2)
        rep = analyze_channel(pair.first)
        assert rep.achieving_input.support() == rep.support_union
        assert np.allclose(rep.achieving_input.probs[:4], 0.25, atol=1e-9)

    def test_one_phase_one_per_channel(self, monkeypatch):
        # the optimizer is not unique: more peak rows than the outputs they
        # reach, or two identical peak rows among no more peak rows than outputs
        for rows in (IDENTICAL_ROWS, [[0.9, 0.1], [0.1, 0.9]] * 2,
                     [[0.9, 0.1, 0], [0.9, 0.1, 0], [0, 0.1, 0.9]]):
            calls = count_lp_calls(monkeypatch)
            rep = analyze_channel(channel(rows))
            assert len(rep.peak_set) == len(rows)
            assert calls == {"feasible_basis": 1, "lp_solve_max_coordinate": len(rep.peak_set)}

    @pytest.mark.parametrize("ch", [make_bsc(0.11), make_partition_pair(4, 2).first],
                             ids=["bsc", "partition"])
    def test_unique_optimizer_skips_the_simplex(self, monkeypatch, ch):
        calls = count_lp_calls(monkeypatch)
        analyze_channel(ch)
        assert calls == {"feasible_basis": 0, "lp_solve_max_coordinate": 0}

    @pytest.mark.parametrize("peak, r_star", [
        (("0", "1"), [0.9, 0.1]),  # solved only by a negative mass on input 1
        (("0",), [0.5, 0.5]),      # input 0 alone leaves a residual
    ])
    def test_unique_path_rejects_an_unreproducible_output(self, monkeypatch, peak, r_star):
        calls = count_lp_calls(monkeypatch)
        with pytest.raises(InconsistentCertificateError):
            _support_union_lp(make_bsc(0.11), peak, Distribution(B, np.array(r_star)))
        assert calls == {"feasible_basis": 0, "lp_solve_max_coordinate": 0}

    @pytest.mark.parametrize("rank_tol", [capacity._RANK_TOL, math.inf], ids=["unique", "lp"])
    def test_mass_at_or_below_lp_tol_is_an_exact_zero(self, monkeypatch, rank_tol):
        # input 1 can carry at most 1e-12, below _LP_TOL: it is outside the
        # union, and the witness gives it nothing
        monkeypatch.setattr(capacity, "_RANK_TOL", rank_tol)
        r_star = Distribution(B, np.array([1.0 - 1e-12, 1e-12]))
        union, witness = _support_union_lp(Channel(B, B, np.eye(2)), ("0", "1"), r_star)
        assert union == ("0",)
        assert witness[1] == 0.0

    def test_unique_and_lp_paths_agree_on_the_corpora(self, tmp_path, monkeypatch):
        # every channel of the benchmark corpora has a unique optimizer; the
        # simplex, forced by counting every system as rank deficient, must
        # find the same union and the same witness
        monkeypatch.syspath_prepend(str(TDBENCH))
        from corpus import CORPORA

        specs = {}
        for corpus in CORPORA.values():
            for cmd in corpus(0, str(tmp_path)):
                for spec in (cmd.pair.first, cmd.pair.second) if cmd.pair else (cmd.channel,):
                    specs[spec.name] = spec
        for spec in specs.values():
            ch = Channel(Alphabet(tuple(spec.inputs)), Alphabet(tuple(spec.outputs)), spec.rows)
            rep = analyze_channel(ch)
            with monkeypatch.context() as m:
                m.setattr(capacity, "_RANK_TOL", math.inf)
                lp_union, lp_witness = _support_union_lp(ch, rep.peak_set, rep.optimal_output)
            assert rep.support_union == lp_union, spec.name
            assert np.abs(rep.achieving_input.probs - lp_witness).max() <= 1e-12, spec.name
            assert rep.achieving_input.support() == rep.support_union, spec.name


class TestIsCapacityAchieving:
    def test_accepts_the_certificate_input(self):
        rep = analyze_channel(make_bsc(0.11))
        assert is_capacity_achieving(rep.achieving_input, rep)

    def test_rejects_wrong_pushforward(self):
        rep = analyze_channel(make_bsc(0.11))
        skew = Distribution(B, np.array([0.9, 0.1]))
        assert not is_capacity_achieving(skew, rep)

    def test_rejects_support_outside_peak_set(self):
        pair = make_partition_pair(4, 2)
        rep = analyze_channel(pair.first)
        off_block = Distribution.point_mass(pair.first.input, "b0")
        assert not is_capacity_achieving(off_block, rep)

    def test_partition_uniform_on_block(self):
        pair = make_partition_pair(4, 2)
        rep = analyze_channel(pair.first)
        p = Distribution(pair.first.input, np.array([0.25, 0.25, 0.25, 0.25, 0.0, 0.0]))
        assert is_capacity_achieving(p, rep)


class TestFullSupportIdentity:
    def test_information_plus_output_divergence_is_capacity(self):
        # whenever the support union covers the whole input alphabet,
        # I(X;Y) + D(p_Y || r*) equals capacity for every input p
        rng = np.random.default_rng(0)
        channels = [make_bsc(0.11), make_bsc(0.25), make_bec(0.4),
                    noisy_identity(rng, 3), noisy_identity(rng, 4, 5)]
        for ch in channels:
            rep = analyze_channel(ch)
            assert len(rep.support_union) == len(ch.input)
            for _ in range(25):
                p = random_distribution(rng, ch.input)
                val = mutual_information(p, ch) + \
                    kl_divergence(push_forward(p, ch), rep.optimal_output)
                assert val == pytest.approx(rep.capacity, abs=1e-6)


@st.composite
def small_channels(draw):
    """Channels with 2-8 inputs and outputs from small integer weights, so
    ties and zeros are common, with optional duplicated rows, outputs no
    input reaches and an erasure column (constant across inputs)."""
    n_x, n_y = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    weight = st.one_of(st.just(0), st.integers(1, 4))
    row = st.lists(weight, min_size=n_y, max_size=n_y).filter(any)
    rows = np.array(draw(st.lists(row, min_size=n_x, max_size=n_x)), dtype=float)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n_x - 1), st.integers(0, n_x - 1)), max_size=3)):
        rows[dst] = rows[src]
    dead = draw(st.integers(0, n_y - 1))
    if draw(st.booleans()) and rows[:, np.arange(n_y) != dead].any(axis=1).all():
        rows[:, dead] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    erasure = draw(st.sampled_from([0.0, 0.25, 0.5]))
    if erasure:
        rows = np.hstack([(1.0 - erasure) * rows, np.full((n_x, 1), erasure)])
    return channel(rows)


@st.composite
def relabelled_channels(draw):
    """A small channel and permutations of its input and output symbols."""
    ch = draw(small_channels())
    return (ch, draw(st.permutations(range(len(ch.input)))),
            draw(st.permutations(range(len(ch.output)))))


@st.composite
def binary_channels(draw):
    """Binary-input channels with 2-4 outputs, each row a seeded Dirichlet
    draw at concentration 0.3, 1 or 3."""
    n_y = draw(st.integers(2, 4))
    alpha = draw(st.sampled_from([0.3, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return channel(rng.dirichlet(np.full(n_y, alpha), size=2))


def binary_grid_capacity(rows) -> float:
    """max I(X;Y) in bits over inputs Bern(delta), independent of the tdopt
    kernel: the best point of a 10,001-point grid of delta, refined by
    golden-section search between its two neighbours (I is concave in
    delta)."""
    def info(deltas):
        return oracles.mutual_information_batch(np.column_stack([1.0 - deltas, deltas]), rows)

    grid = np.linspace(0.0, 1.0, 10_001)
    values = info(grid)
    k = int(values.argmax())
    lo, hi, best = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], float(values[k])
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        fa, fb = info(np.array([a, b]))
        best = max(best, fa, fb)
        lo, hi = (a, hi) if fa < fb else (lo, b)
    return best


def information_bits(p, rows):
    q = [sum(p[x] * rows[x][y] for x in range(len(p))) for y in range(len(rows[0]))]
    return sum(p[x] * w * math.log2(w / q[y])
               for x in range(len(p)) if p[x] > 0.0
               for y, w in enumerate(rows[x]) if w > 0.0)


def worst_divergence_bits(rows, r):
    return max(sum(w * math.log2(w / r[y]) for y, w in enumerate(row) if w > 0.0) for row in rows)


def linprog_union(ch, peak, r_star):
    """Peak symbols to which some input on the peak set that reproduces
    `r_star` gives mass above 1e-9, one scipy LP per symbol."""
    idx = [ch.input.index(s) for s in peak]
    a_eq = np.vstack([ch.rows[idx].T, np.ones(len(idx))])
    b_eq = np.concatenate([r_star, [1.0]])
    union = []
    for j, sym in enumerate(peak):
        res = linprog(-np.eye(len(idx))[j], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert res.status == 0
        if -res.fun > 1e-9:
            union.append(sym)
    return tuple(union)


class TestCertificateProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_channels())
    @example(channel(TWO_CYCLE_ROWS))
    @example(channel(IDENTICAL_ROWS))
    @example(channel(DEAD_COLUMN_ROWS))
    @example(channel([[1, 0], [1, 0], [1, 0], [0, 1]]))  # bracket width rounds below 0
    @example(channel(near_duplicate([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]], 1e-15)))
    @example(channel(near_duplicate([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]], 1e-12)))
    @example(channel(near_duplicate(NEAR_DUPLICATE_ROWS, 1e-6)))
    def test_analyze_channel_certifies(self, ch):
        tol = RunConfig.tol
        rep = analyze_channel(ch)
        assert 0.0 <= rep.gap <= tol
        rows = ch.rows.tolist()
        assert abs(information_bits(rep.achieving_input.probs.tolist(), rows) - rep.capacity) <= tol
        assert abs(worst_divergence_bits(rows, rep.optimal_output.probs.tolist()) - rep.capacity) <= tol
        assert rep.support_union == linprog_union(ch, rep.peak_set, rep.optimal_output.probs)

    @settings(max_examples=60, deadline=None)
    @given(small_channels())
    @example(channel(IDENTICAL_ROWS))
    @example(channel([[1, 0, 0], [0.5, 0, 0.5]]))  # the middle output is unreachable
    def test_reduced_form_and_profile_computed_once(self, ch):
        # the channel's reduced form is the slice and the kernel call its
        # users made before, in the same layout and read-only; the report's
        # profile is what divergence_profile computes at its optimal output
        mask = (ch.rows > 0.0).any(axis=0)
        assert same_bits(ch.reachable, mask) and not ch.reachable.flags.writeable
        sliced = ch.rows[:, mask]
        for got, want in ((ch.reduced_rows, sliced), (ch.reduced_neg_ent, neg_entropy(sliced))):
            assert same_bits(got, want) and not got.flags.writeable
            assert (got.strides, got.flags.c_contiguous, got.flags.f_contiguous) == \
                (want.strides, want.flags.c_contiguous, want.flags.f_contiguous)
        rep = analyze_channel(ch)
        assert same_bits(rep.divergence_profile, divergence_profile(ch, rep.optimal_output))

    @settings(max_examples=40, deadline=None)
    @given(relabelled_channels())
    @example((channel(IDENTICAL_ROWS), [5, 4, 3, 2, 1, 0], [4, 3, 2, 1, 0]))
    def test_certificate_invariant_under_relabelling(self, relabelled):
        # permuting the input and output symbols permutes the certificate;
        # witnesses are not compared, since the simplex path averages LP
        # vertices whose choice depends on the symbol order
        ch, px, py = relabelled
        px, py = np.array(px), np.array(py)
        moved = Channel(Alphabet(tuple(ch.input.symbols[i] for i in px)),
                        Alphabet(tuple(ch.output.symbols[j] for j in py)), ch.rows[px][:, py])
        cfg = RunConfig()
        rep, rep_moved = analyze_channel(ch, cfg), analyze_channel(moved, cfg)
        assert abs(rep.capacity - rep_moved.capacity) <= cfg.tol
        assert np.abs(rep.optimal_output.probs[py] - rep_moved.optimal_output.probs).max() <= 1e-6
        assert set(rep.peak_set) == set(rep_moved.peak_set)
        assert set(rep.support_union) == set(rep_moved.support_union)

    @settings(max_examples=50, deadline=None)
    @given(binary_channels())
    @example(channel([[0.9, 0.1], [0.1, 0.9]]))
    @example(channel([[1, 0], [0.5, 0.5]]))  # Z channel: the optimum is off delta = 1/2
    @example(channel([[0.3, 0.7], [0.3, 0.7]]))  # identical rows: capacity 0
    def test_bracket_contains_binary_grid_oracle(self, ch):
        rep = analyze_channel(ch)
        oracle = binary_grid_capacity(ch.rows)
        assert rep.capacity - rep.gap / 2 - 1e-12 <= oracle <= rep.capacity + rep.gap / 2 + 1e-12

    def test_two_cycle_channel(self):
        rep = analyze_channel(channel(TWO_CYCLE_ROWS))
        assert rep.capacity == pytest.approx(1.0, abs=1e-12)
        assert rep.peak_set == rep.support_union == ("x0", "x1", "x3")

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3])
    def test_more_near_peak_inputs_than_outputs_certify(self, eps):
        # four near-peak rows reach three outputs; the polish solves on the
        # three of largest divergence instead of a singular Newton system
        bracket = compute_capacity(channel(near_duplicate(NEAR_DUPLICATE_ROWS, eps)))
        assert bracket.iterations <= 8
        assert bracket.upper - bracket.lower <= RunConfig.tol * LN2

    @pytest.mark.parametrize("n_y", [32, 64])
    def test_random_channels_certify_within_128_iterations(self, n_y):
        # the Newton polish certifies these by iteration 64; the plain
        # iteration alone needs thousands
        rows = np.random.default_rng(0).dirichlet(np.full(n_y, 0.5), size=64)
        bracket = compute_capacity(channel(rows))
        assert bracket.iterations <= 128
        assert bracket.upper - bracket.lower <= RunConfig.tol * LN2


# The benchmark's capacity corpus (tdbench/corpus.py), rebuilt here without
# importing it: two copies of nine shapes, rows from one shared generator.
CORPUS_SEED = 1605
CORPUS_SHAPES = ((16, 16), (24, 24), (32, 32), (48, 48), (64, 64),
                 (16, 48), (48, 16), (32, 64), (64, 32))
CORPUS_ITERATIONS = [32, 32, 32, 32, 64, 4, 64, 32, 64, 32, 32, 32, 32, 64, 64, 64, 32, 64]


def reference_polish(rows, row_neg_ent, p_ba, d, tol_nats):
    """The polish with one input per move, one Newton solve each: drop the
    input of most negative mass, or else add the input of largest divergence
    unless the bracket certifies."""
    gap = float(d.max() - p_ba @ d)
    support = np.flatnonzero(d >= d.max() - max(1e-5, 10.0 * gap))
    tried = set()
    for _ in range(2 * len(rows)):
        if support.size == 0 or support.tobytes() in tried:
            return None
        tried.add(support.tobytes())
        refined = capacity._newton_refine(rows, row_neg_ent, p_ba, d, support)
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


@st.composite
def duplicated_channels(draw):
    """Seeded Dirichlet channels with 8-40 inputs and 4-40 outputs, a few of
    whose rows are copied over others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_x, n_y = draw(st.integers(8, 40)), draw(st.integers(4, 40))
    rows = rng.dirichlet(np.full(n_y, draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))), size=n_x)
    for _ in range(draw(st.integers(1, n_x // 4))):
        src, dst = rng.integers(0, n_x, size=2)
        rows[dst] = rows[src]
    return channel(rows)


class TestSetMovePolish:
    def test_capacity_corpus_takes_fewer_solves_at_the_same_iterations(self, monkeypatch):
        # one Newton solve per support change: the one-input moves took 190
        solves = 0
        solve = capacity._newton_solve

        def counting(*args):
            nonlocal solves
            solves += 1
            return solve(*args)

        monkeypatch.setattr(capacity, "_newton_solve", counting)
        rng = np.random.default_rng(CORPUS_SEED)
        iterations = [analyze_channel(channel(rng.dirichlet(np.full(n_y, 0.5), size=n_x))).iterations
                      for _ in range(2) for n_x, n_y in CORPUS_SHAPES]
        assert iterations == CORPUS_ITERATIONS
        assert solves <= 118

    @staticmethod
    def assert_certificates_agree(ch):
        rep = analyze_channel(ch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(capacity, "_polish", reference_polish)
            ref = analyze_channel(ch)
        assert 0.0 <= rep.gap <= RunConfig.tol and 0.0 <= ref.gap <= RunConfig.tol
        assert rep.peak_set == ref.peak_set
        assert rep.support_union == ref.support_union
        assert abs(rep.capacity - ref.capacity) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(small_channels())
    @example(channel(TWO_CYCLE_ROWS))
    @example(channel(IDENTICAL_ROWS))
    @example(channel(DEAD_COLUMN_ROWS))
    @example(channel(near_duplicate(NEAR_DUPLICATE_ROWS, 1e-6)))
    def test_small_channels_agree_with_one_input_moves(self, ch):
        self.assert_certificates_agree(ch)

    @settings(max_examples=15, deadline=None)
    @given(duplicated_channels())
    # sweep channel 712 of seed 0 (15x6, duplicated rows): the set move
    # certifies at iteration 16, one doubling after the one-input move
    @example(channel(capsweep.sweep_rows(0, 712)[0]))
    def test_duplicated_rows_agree_with_one_input_moves(self, ch):
        self.assert_certificates_agree(ch)
