"""Simplex-search checks: minimizer quality, ordering verdicts, screens,
and the small-mixture expansion."""

import math
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdopt.bounds import sample_marton, sample_uv
from tdopt.capacity import analyze_channel, full_support
from tdopt.comparison import (
    HOLDS_UP_TO_SEARCH,
    VIOLATED,
    AssumptionNotMetError,
    PerturbationProbe,
    dc_minimize,
    divergence_form_check,
    more_capable_check,
    pair_checks,
    perturbation_feasibility_bound,
    perturbation_identity_check,
    project_to_simplex,
    ratio_condition_check,
    vertex_screen,
)
from tdopt.comparison import (
    _AUTO_SUBDIVISIONS,
    _check_terms,
    _grid_size,
    _pair_gaps,
    _simplex_grid,
)
from tdopt.config import RunConfig
from tdopt.core import (
    Alphabet,
    AlphabetMismatchError,
    BroadcastPair,
    Channel,
    Distribution,
    kl_divergence,
    mutual_information,
    push_forward,
)
from tdopt.families import make_bec, make_bsc, make_partition_pair
from tdopt.verdict import EQUAL_CAPACITY_MORE_CAPABLE, decide_td_optimality

from conftest import at_check_0, same_bits, stochastic


def bern_grid(step=1e-4):
    """All Bernoulli(d) inputs with d on a uniform grid, as an (N, 2) array."""
    d = np.arange(0.0, 1.0 + step / 2, step)
    return np.column_stack([1.0 - d, d])


def mi_bits(ch, p):
    return mutual_information(Distribution(ch.input, p), ch)


def mi_bits_batch(ch, pts):
    """Vectorized I(X;Y) over the last axis of `pts`, via the entropy decomposition."""
    rows = ch.rows
    h_rows = -np.where(rows > 0.0, rows * np.log2(np.where(rows > 0.0, rows, 1.0)), 0.0).sum(axis=1)
    q = pts @ rows
    h_out = -np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0).sum(axis=-1)
    return h_out - pts @ h_rows


class TestProjection:
    def test_already_on_simplex(self):
        x = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_to_simplex(x), x, atol=1e-15)

    def test_clips_negative_mass(self):
        y = project_to_simplex(np.array([0.4, -0.2, 1.1]))
        assert y.min() >= 0.0
        assert y.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(y, [0.15, 0.0, 0.85], atol=1e-12)

    def test_is_nearest_point(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(size=5) * 3.0
            y = project_to_simplex(v)
            # any other simplex point is farther away
            for _ in range(20):
                z = rng.dirichlet(np.ones(5))
                assert np.sum((v - y) ** 2) <= np.sum((v - z) ** 2) + 1e-12


class TestGrid:
    @staticmethod
    def bar_enumeration(dim, m):
        """The grid read off every placement of dim - 1 bars among m + dim - 1
        slots, in lexicographic order of the bars."""
        pts = []
        for bars in combinations(range(m + dim - 1), dim - 1):
            edges = (-1,) + bars + (m + dim - 1,)
            pts.append([b - a - 1 for a, b in zip(edges, edges[1:])])
        return np.asarray(pts, dtype=float) / m

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_grid_matches_bar_enumeration(self, dim):
        # the search grids of every dimension up to 9, bit for bit and in order
        m = _AUTO_SUBDIVISIONS.get(dim, 6)
        grid = _simplex_grid(dim, m)
        assert grid.shape == (_grid_size(dim, m), dim)
        assert same_bits(grid, self.bar_enumeration(dim, m))


class TestMinimizer:
    def test_linear_objective_hits_vertex(self):
        c = np.array([3.0, -1.0, 2.0, 0.5])
        res = dc_minimize(lambda p: p @ c, lambda p: c, 4, RunConfig(starts=8))
        assert res.value == pytest.approx(-1.0, abs=1e-10)
        assert np.allclose(res.argmin, [0.0, 1.0, 0.0, 0.0], atol=1e-8)

    def test_convex_quadratic_minimum_at_uniform(self):
        target = np.full(3, 1.0 / 3)

        def f(p):
            return np.sum((p - target) ** 2, axis=-1)

        res = dc_minimize(f, lambda p: 2.0 * (p - target), 3, RunConfig(starts=8))
        assert res.value <= 1e-10
        assert np.allclose(res.argmin, target, atol=1e-5)

    def test_deterministic_across_calls(self):
        rng_free = RunConfig(starts=16, seed=3)

        def f(p):
            return np.cos(4.0 * p[..., 0]) + p[..., 1] ** 2 - p[..., 2]

        def grad(p):
            minus_one = np.full(p.shape[:-1], -1.0)
            return np.stack([-4.0 * np.sin(4.0 * p[..., 0]), 2.0 * p[..., 1], minus_one], axis=-1)

        a = dc_minimize(f, grad, 3, rng_free)
        b = dc_minimize(f, grad, 3, rng_free)
        assert a.value == b.value
        assert np.array_equal(a.argmin, b.argmin)
        assert a.evaluations == b.evaluations

    @pytest.mark.parametrize(
        "ch1, ch2",
        [
            (make_bsc(0.11), make_bsc(0.89)),
            (make_bec(0.2), make_bec(0.5)),
            (make_bsc(0.1), make_bsc(0.3)),
        ],
        ids=["bsc-0.11-0.89", "bec-0.2-0.5", "bsc-0.1-0.3"],
    )
    def test_reported_value_replays_at_argmin(self, ch1, ch2):
        # the objectives of the more-capable, ratio and divergence-form
        # checks: the value reported is the single-point value at the argmin,
        # never a grid value that the batch arithmetic rounded differently
        rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
        refs = tuple(rep.optimal_output.probs[rep.channel.reachable] for rep in (rep1, rep2))
        for name in ("more_capable_forward", "ratio_condition", "divergence_form"):
            terms = _check_terms(name, rep1.capacity, rep2.capacity)
            objective, gradient, _ = _pair_gaps(ch1, ch2, [terms], refs)
            objective, gradient = at_check_0(objective), at_check_0(gradient)
            res = dc_minimize(objective, gradient, len(ch1.input))
            assert res.value == objective(res.argmin)

    def test_partition_info_gap_matches_derived_minimum(self):
        # min of I(X;Y) - I(X;Z) sits at the uniform input on the small
        # block, where the first channel is blind and the second is clean:
        # the value is exactly -1 bit.
        pair = make_partition_pair(4, 2)

        def f(p):
            return mi_bits_batch(pair.first, p) - mi_bits_batch(pair.second, p)

        def dvec(ch, p):
            q = p @ ch.rows
            logq = np.where(q > 0.0, np.log2(np.where(q > 0.0, q, 1.0)), -1e9)
            rlog = np.where(ch.rows > 0.0, np.log2(np.where(ch.rows > 0.0, ch.rows, 1.0)), 0.0)
            return (ch.rows * rlog).sum(axis=1) - logq @ ch.rows.T

        res = dc_minimize(
            f,
            lambda p: dvec(pair.first, p) - dvec(pair.second, p),
            6,
            RunConfig(starts=32),
        )
        assert res.value == pytest.approx(-1.0, abs=1e-6)

        # coarse deterministic grid oracle never beats the search result
        grid = _simplex_grid(6, 20)
        grid_min = (mi_bits_batch(pair.first, grid) - mi_bits_batch(pair.second, grid)).min()
        assert res.value <= grid_min + 1e-9

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            dc_minimize(lambda p: 0.0, lambda p: p, 0)


class TestMoreCapable:
    def test_identical_channels_hold(self):
        ch = make_bsc(0.17)
        v = more_capable_check(ch, ch)
        assert v.status == HOLDS_UP_TO_SEARCH
        assert v.gap >= -1e-12
        assert v.witness is None

    def test_degraded_bsc_pair_holds(self):
        v = more_capable_check(make_bsc(0.1), make_bsc(0.2))
        assert v.status == HOLDS_UP_TO_SEARCH
        assert v.gap >= -1e-9

    def test_partition_pair_violated_both_ways(self):
        pair = make_partition_pair(4, 2)
        fwd = more_capable_check(pair.first, pair.second)
        bwd = more_capable_check(pair.second, pair.first)
        assert fwd.status == VIOLATED
        assert bwd.status == VIOLATED
        # best violations live on a single block: blind one channel,
        # max out the other
        assert fwd.gap == pytest.approx(-1.0, abs=1e-6)
        assert bwd.gap == pytest.approx(-2.0, abs=1e-6)
        a_mass = fwd.witness.probs[:4].sum()
        assert a_mass <= 1e-6  # forward witness lives on the small block
        b_mass = bwd.witness.probs[4:].sum()
        assert b_mass <= 1e-6  # backward witness lives on the large block

    def test_witness_replays_gap(self):
        pair = make_partition_pair(4, 2)
        v = more_capable_check(pair.first, pair.second)
        replay = mutual_information(v.witness, pair.first) - mutual_information(
            v.witness, pair.second
        )
        assert replay == pytest.approx(v.gap, abs=1e-9)

    def test_binary_status_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        grid = bern_grid()
        bits = Alphabet(("0", "1"))
        outs = Alphabet(("a", "b", "c"))
        for _ in range(6):
            ch1 = Channel(bits, outs, rng.dirichlet(np.ones(3), size=2))
            ch2 = Channel(bits, outs, rng.dirichlet(np.ones(3), size=2))
            v = more_capable_check(ch1, ch2)
            diffs = mi_bits_batch(ch1, grid) - mi_bits_batch(ch2, grid)
            oracle = VIOLATED if diffs.min() < -1e-7 else HOLDS_UP_TO_SEARCH
            assert v.status == oracle
            assert v.gap <= diffs.min() + 1e-6

    def test_input_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            more_capable_check(make_bsc(0.1), make_partition_pair(4, 2).second)


class TestRatioCondition:
    def test_identical_channels_hold(self):
        ch = make_bec(0.25)
        c = analyze_channel(ch).capacity
        v = ratio_condition_check(ch, ch, c, c)
        assert v.status == HOLDS_UP_TO_SEARCH
        assert v.gap >= -1e-12

    def test_partition_pair_violated_at_minus_one(self):
        # uniform on the large block: the first channel runs at capacity,
        # the second carries nothing, so the normalized gap is exactly -1.
        pair = make_partition_pair(4, 2)
        v = ratio_condition_check(pair.first, pair.second, 2.0, 1.0)
        assert v.status == VIOLATED
        assert v.gap == pytest.approx(-1.0, abs=1e-6)
        assert v.witness.probs[4:].sum() <= 1e-6
        assert np.allclose(v.witness.probs[:4], 0.25, atol=1e-5)

    def test_bec_pair_holds_identically(self):
        # both channels expose the same fraction of the input entropy, so
        # the normalized rates coincide for every input
        ch1, ch2 = make_bec(0.1), make_bec(0.4)
        v = ratio_condition_check(ch1, ch2, 0.9, 0.6)
        assert v.status == HOLDS_UP_TO_SEARCH
        assert abs(v.gap) <= 1e-9

    def test_bsc_pair_matches_grid_oracle(self):
        ch1, ch2 = make_bsc(0.1), make_bsc(0.3)
        c1 = analyze_channel(ch1).capacity
        c2 = analyze_channel(ch2).capacity
        v = ratio_condition_check(ch1, ch2, c1, c2)
        grid = bern_grid()
        vals = mi_bits_batch(ch2, grid) / c2 - mi_bits_batch(ch1, grid) / c1
        oracle = VIOLATED if vals.min() < -1e-7 else HOLDS_UP_TO_SEARCH
        assert v.status == oracle
        assert v.gap <= vals.min() + 1e-6

    def test_zero_capacity_rejected(self):
        ch = make_bsc(0.1)
        with pytest.raises(ValueError, match="positive"):
            ratio_condition_check(ch, ch, 0.0, 1.0)


@st.composite
def check_pairs(draw):
    """Two channels on one input alphabet, |X| from 2 to 5 and |Y|, |Z| from
    2 to 6: Dirichlet(1) rows, whose support unions are mostly full, or rows
    of small integer weights with zero cells common, whose unions are mostly
    not; or, for equal capacities, the second relabels the first's inputs
    and outputs."""
    nx, sparse = draw(st.integers(2, 5)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows():
        ny = draw(st.integers(2, 6))
        return draw(stochastic(nx, ny)) if sparse else rng.dirichlet(np.ones(ny), nx)

    rows1 = rows()
    if draw(st.booleans()):
        rows2 = rows()
    else:
        rows2 = rows1[draw(st.permutations(range(nx)))][:, draw(st.permutations(range(rows1.shape[1])))]
    return tuple(Channel(Alphabet.of_size(nx), Alphabet.of_size(r.shape[1], "y"), r) for r in (rows1, rows2))


def assert_same_verdict(a, b):
    assert (a.status, a.starts, a.evaluations) == (b.status, b.starts, b.evaluations)
    assert same_bits(np.float64(a.gap), np.float64(b.gap))
    assert (a.witness is None) == (b.witness is None)
    if a.witness is not None:
        assert same_bits(a.witness.probs, b.witness.probs)


@settings(max_examples=10, deadline=None)
@given(check_pairs(), st.integers(0, 3), st.sampled_from([0, 3, 10]))
@example((make_bsc(0.2), make_bsc(0.1)), 0, 3)  # a capacity gap, stronger channel second
def test_one_descent_equals_the_lone_checks(pair, seed, starts):
    # analyze's checks and each branch's checks of the verdict in one
    # descent: every verdict is its lone check's, bit for bit
    ch1, ch2 = pair
    cfg = RunConfig(seed=seed, starts=starts)
    rep1, rep2 = analyze_channel(ch1, cfg), analyze_channel(ch2, cfg)
    assume(min(rep1.capacity, rep2.capacity) > 0.0)
    lone = {
        "more_capable_forward": more_capable_check(ch1, ch2, cfg),
        "more_capable_backward": more_capable_check(ch2, ch1, cfg),
        "ratio_condition": ratio_condition_check(ch1, ch2, rep1.capacity, rep2.capacity, cfg),
    }
    if full_support(rep1) and full_support(rep2):
        lone["divergence_form"] = divergence_form_check(rep1, rep2, cfg)
    joint = pair_checks(rep1, rep2, list(lone), cfg)
    assert list(joint) == list(lone)
    for name, verdict in lone.items():
        assert_same_verdict(joint[name], verdict)

    if "divergence_form" not in lone:
        return  # the verdict samples the bounds and runs no check
    verdict = decide_td_optimality(BroadcastPair(ch1, ch2), cfg)
    if verdict.branch == EQUAL_CAPACITY_MORE_CAPABLE:
        # the verdict's forward check runs from the stronger channel, which is
        # the second when the verdict swapped the pair
        forward, backward = "more_capable_forward", "more_capable_backward"
        if verdict.swapped:
            forward, backward = backward, forward
        assert_same_verdict(verdict.checks["more_capable_forward"], lone[forward])
        assert_same_verdict(verdict.checks["more_capable_backward"], lone[backward])
    else:
        strong, weak = (rep2, rep1) if verdict.swapped else (rep1, rep2)
        assert_same_verdict(verdict.checks["ratio_condition"], ratio_condition_check(
            strong.channel, weak.channel, strong.capacity, weak.capacity, cfg))


def test_pair_checks_judge_every_assumption_before_searching():
    rep = analyze_channel(make_bsc(0.1))
    zero = analyze_channel(make_bsc(0.5))
    pair = make_partition_pair(4, 2)
    partition = analyze_channel(pair.first), analyze_channel(pair.second)
    with patch("tdopt.comparison.dc_minimize", side_effect=AssertionError("searched")):
        with pytest.raises(ValueError, match="the per-capacity ratio condition needs positive"):
            pair_checks(rep, zero, ["more_capable_forward", "ratio_condition"])
        with pytest.raises(AssumptionNotMetError, match="the first channel's optimizers miss"):
            pair_checks(*partition, ["more_capable_forward", "divergence_form"])


class TestSearchGolden:
    """Every check's gap to the last bit, start count and evaluation count at
    the default configuration, on a 4-input and a 5-input pair: any change in
    how the starts descend shows here. Each channel is half the identity
    plus half Dirichlet(1) rows, so both optimizers have full support and
    the divergence form runs too."""

    @pytest.mark.parametrize(
        "nx, seed, golden",
        [
            (4, 40, {
                "more_capable_forward": ("-0x1.2cf75c48a4cfap-2", 70, 15747),
                "more_capable_backward": ("-0x1.9efcbaa44b446p-2", 70, 16157),
                "ratio_condition": ("-0x1.060bb92711448p-1", 70, 18142),
                "divergence_form": ("-0x1.060bb92711443p-1", 70, 18246),
            }),
            (5, 5, {
                "more_capable_forward": ("-0x1.fb8c13d05e9e4p-3", 71, 14708),
                "more_capable_backward": ("-0x1.f20d1d355db3ep-3", 71, 15737),
                "ratio_condition": ("-0x1.71f319f518545p-2", 71, 20552),
                "divergence_form": ("-0x1.71f319f51853cp-2", 71, 20624),
            }),
        ],
        ids=["4-inputs", "5-inputs"],
    )
    def test_every_check(self, nx, seed, golden):
        rng = np.random.default_rng(seed)
        ch1, ch2 = (
            Channel(Alphabet.of_size(nx), Alphabet.of_size(nx, "y"),
                    0.5 * np.eye(nx) + 0.5 * rng.dirichlet(np.ones(nx), nx))
            for _ in range(2)
        )
        rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
        checks = {
            "more_capable_forward": more_capable_check(ch1, ch2),
            "more_capable_backward": more_capable_check(ch2, ch1),
            "ratio_condition": ratio_condition_check(ch1, ch2, rep1.capacity, rep2.capacity),
            "divergence_form": divergence_form_check(rep1, rep2),
        }
        assert {k: (c.gap.hex(), c.starts, c.evaluations) for k, c in checks.items()} == golden


class TestDivergenceForm:
    @staticmethod
    def _analyzed(ch):
        return analyze_channel(ch)

    def test_agrees_with_ratio_form_pointwise(self):
        ch1, ch2 = make_bsc(0.1), make_bsc(0.3)
        rep1, rep2 = self._analyzed(ch1), self._analyzed(ch2)
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.dirichlet(np.ones(2))
            g = mi_bits(ch2, p) / rep2.capacity - mi_bits(ch1, p) / rep1.capacity
            py = Distribution(ch1.output, p @ ch1.rows)
            pz = Distribution(ch2.output, p @ ch2.rows)
            h = (
                kl_divergence(py, rep1.optimal_output) / rep1.capacity
                - kl_divergence(pz, rep2.optimal_output) / rep2.capacity
            )
            assert h == pytest.approx(g, abs=1e-9)

    def test_status_and_gap_agree_with_ratio_check(self):
        for ch1, ch2 in [
            (make_bsc(0.1), make_bsc(0.3)),
            (make_bsc(0.3), make_bsc(0.1)),
            (make_bec(0.1), make_bec(0.4)),
            (make_bsc(0.11), make_bsc(0.11)),
        ]:
            rep1, rep2 = self._analyzed(ch1), self._analyzed(ch2)
            a = ratio_condition_check(ch1, ch2, rep1.capacity, rep2.capacity)
            b = divergence_form_check(rep1, rep2)
            assert a.status == b.status
            assert a.gap == pytest.approx(b.gap, abs=1e-6)

    def test_point_mass_value_nonnegative(self):
        # at a capacity-peak symbol the objective reduces to
        # 1 - D(row_Z || s*_Z)/C2, nonnegative by the minimax bound
        ch1, ch2 = make_bsc(0.1), make_bsc(0.3)
        rep1, rep2 = self._analyzed(ch1), self._analyzed(ch2)
        for i in range(2):
            row_div = kl_divergence(
                Distribution(ch2.output, ch2.rows[i]), rep2.optimal_output
            )
            h = rep1.divergence_profile[i] / rep1.capacity - row_div / rep2.capacity
            assert row_div <= rep2.capacity + 1e-9
            assert h == pytest.approx(1.0 - row_div / rep2.capacity, abs=1e-9)
            assert h >= -1e-9

    def test_partial_support_rejected(self):
        pair = make_partition_pair(4, 2)
        rep1, rep2 = self._analyzed(pair.first), self._analyzed(pair.second)
        with pytest.raises(AssumptionNotMetError, match="miss"):
            divergence_form_check(rep1, rep2)


class TestVertexScreen:
    def test_identical_channels_hold_with_equality(self):
        ch = make_bsc(0.13)
        rep = analyze_channel(ch)
        screen = vertex_screen(rep, rep)
        assert screen.first_family_holds
        assert screen.second_family_holds
        assert np.allclose(
            screen.div_first_at_second_mix, screen.div_second_peak, atol=1e-9
        )
        assert screen.mixed_output_gap <= 1e-9
        assert screen.mixed_output_is_optimal

    def test_bsc_pair_divergence_table(self):
        ch1, ch2 = make_bsc(0.11), make_bsc(0.3)
        rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
        screen = vertex_screen(rep1, rep2)
        # both optimizers are uniform, so each mixed reference equals the
        # channel's own optimal output and the table collapses to the
        # divergence profiles
        assert np.allclose(screen.div_first_at_second_mix, rep1.capacity, atol=1e-6)
        assert np.allclose(screen.div_second_at_first_mix, rep2.capacity, atol=1e-6)
        assert screen.second_family_holds
        assert screen.mixed_output_is_optimal
        assert not screen.first_family_holds  # C1 > C2 rules family one out

    def test_partition_pair_mixed_output_is_uniform_on_small_block(self):
        pair = make_partition_pair(4, 2)
        rep1, rep2 = analyze_channel(pair.first), analyze_channel(pair.second)
        screen = vertex_screen(rep1, rep2)
        # pushing the uniform-on-large-block optimizer through the second
        # channel lands exactly on its optimal output
        assert screen.mixed_output_gap <= 1e-9
        r_z = push_forward(rep1.achieving_input, pair.second)
        assert np.allclose(r_z.probs, rep2.optimal_output.probs, atol=1e-9)

    def test_screens_reports_by_their_profile(self):
        # the peak columns are the reports' own profiles, not recomputed
        ch1, ch2 = make_bsc(0.2), make_bsc(0.3)
        rep1, rep2 = analyze_channel(ch1), analyze_channel(ch2)
        screen = vertex_screen(rep1, rep2)
        assert same_bits(screen.div_first_peak, rep1.divergence_profile)
        assert same_bits(screen.div_second_peak, rep2.divergence_profile)

    @pytest.mark.parametrize("dead_first", [True, False], ids=["first", "second"])
    def test_zero_capacity_rejected_before_any_division(self, dead_first):
        bsc = make_bsc(0.1)
        dead = analyze_channel(Channel(bsc.input, bsc.output, np.array([[0.3, 0.7], [0.3, 0.7]])))
        assert dead.capacity == 0.0
        reps = (dead, analyze_channel(bsc)) if dead_first else (analyze_channel(bsc), dead)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="positive capacities"):
            vertex_screen(*reps)

    @pytest.mark.parametrize("pair, golden", [
        ((make_bsc(0.1), make_bsc(0.3)), (
            ("0x1.0fdfcf3f21c23p-1", "0x1.0fdfcf3f21c16p-1"),
            ("0x1.e63b8398aafb0p-4", "0x1.e63b8398aafb0p-4"),
            ("0x1.e63b8398aafb3p-4", "0x1.e63b8398aafadp-4"),
            ("0x1.0fdfcf3f21c19p-1", "0x1.0fdfcf3f21c19p-1"),
            False, True, "0x1.0000000000000p-54",
        )),
        (None, (
            ("0x1.0537573fecf47p-1", "0x1.fa22cf723969dp-2", "0x1.7ee47d4c4a4f7p-2",
             "0x1.74f451f0f938dp+0"),
            ("0x1.314bdf6b717ecp-1", "0x1.314bdf6b717f0p-1", "0x1.314bdf6b717f2p-1",
             "0x1.314bdf6b717efp-1"),
            ("0x1.cc2e66c6882cep-1", "0x1.50413ca403412p-1", "0x1.4a6fb00a55e02p-1",
             "0x1.1c29b9d4b2ae3p-2"),
            ("0x1.6dc98c4b00d65p-1", "0x1.6dc98c4b00d68p-1", "0x1.6dc98c4b00d65p-1",
             "0x1.6dc98c4b00d68p-1"),
            False, False, "0x1.98700c238839cp-4",
        )),
    ], ids=["bsc", "4-inputs"])
    def test_golden_bits(self, pair, golden):
        # every table entry, both family flags and the output gap to the last
        # bit; None is TestSearchGolden's 4-input pair (seed 40)
        if pair is None:
            rng = np.random.default_rng(40)
            pair = [Channel(Alphabet.of_size(4), Alphabet.of_size(4, "y"),
                            0.5 * np.eye(4) + 0.5 * rng.dirichlet(np.ones(4), 4))
                    for _ in range(2)]
        screen = vertex_screen(*map(analyze_channel, pair))
        tables = (screen.div_first_at_second_mix, screen.div_second_peak,
                  screen.div_second_at_first_mix, screen.div_first_peak)
        assert (
            *(tuple(float(v).hex() for v in t) for t in tables),
            screen.first_family_holds, screen.second_family_holds, screen.mixed_output_gap.hex(),
        ) == golden


@pytest.mark.parametrize("check", [sample_marton, sample_uv, divergence_form_check, vertex_screen])
def test_pair_functions_need_a_shared_input(check):
    # the reports' channels are read from the reports, and their inputs must agree
    bsc, partition = make_bsc(0.1), make_partition_pair(4, 2).first
    for reps in ((bsc, partition), (partition, bsc)):
        with pytest.raises(AlphabetMismatchError):
            check(*map(analyze_channel, reps))


class TestPerturbation:
    def test_feasibility_bound_point_mass_vs_uniform(self):
        ch = make_bsc(0.2)
        base = Distribution.point_mass(ch.input, "0")
        mix = Distribution.uniform(ch.input)
        assert perturbation_feasibility_bound(base, mix) == pytest.approx(0.5)

    def test_epsilon_outside_bound_rejected(self):
        ch = make_bsc(0.2)
        base = Distribution.point_mass(ch.input, "0")
        mix = Distribution.uniform(ch.input)
        probe = PerturbationProbe(base, mix, (0.6,))
        with pytest.raises(ValueError, match="0.5"):
            perturbation_identity_check(probe, ch)

    def test_perturbing_toward_itself_gives_zero_rate(self):
        ch = make_bsc(0.11)
        p = Distribution(ch.input, np.array([0.3, 0.7]))
        probe = PerturbationProbe(p, p, (1e-2, 1e-3))
        res = perturbation_identity_check(probe, ch)
        assert res.divergence == 0.0
        assert all(abs(r) <= 1e-12 for r in res.rates)

    def test_bsc_slope_near_divergence(self):
        ch = make_bsc(0.11)
        base = Distribution(ch.input, np.array([0.1, 0.9]))
        mix = Distribution.uniform(ch.input)
        probe = PerturbationProbe(base, mix, (1e-3,))
        res = perturbation_identity_check(probe, ch)
        d = kl_divergence(push_forward(base, ch), push_forward(mix, ch))
        assert res.divergence == pytest.approx(d, abs=1e-12)
        assert abs(res.slopes[0] - d) <= 1e-3 * 5.0

    def test_remainder_shrinks_quadratically(self):
        ch = make_bsc(0.2)
        base = Distribution.point_mass(ch.input, "0")
        mix = Distribution.uniform(ch.input)
        probe = PerturbationProbe(base, mix, (1e-2, 1e-3, 1e-4))
        res = perturbation_identity_check(probe, ch)
        assert res.remainder_exponent >= 1.8
        # slope error |I/eps - D| shrinks linearly with eps
        errors = [abs(s - res.divergence) for s in res.slopes]
        assert errors[0] > errors[1] > errors[2]

    def test_fitted_slope_matches_divergence_on_random_pairs(self):
        rng = np.random.default_rng(23)
        ins = Alphabet(("x0", "x1", "x2"))
        outs = Alphabet(("y0", "y1", "y2", "y3"))
        for _ in range(10):
            ch = Channel(ins, outs, rng.dirichlet(np.ones(4), size=3))
            base = Distribution(ch.input, rng.dirichlet(np.ones(3)))
            mix_raw = rng.dirichlet(np.ones(3))
            mix = Distribution(ch.input, 0.5 * mix_raw + 0.5 / 3)
            probe = PerturbationProbe(base, mix, (1e-2, 1e-3, 1e-4))
            res = perturbation_identity_check(probe, ch)
            assert res.fitted_slope == pytest.approx(res.divergence, abs=1e-5)

    def test_alphabet_mismatch_rejected(self):
        ch = make_bsc(0.2)
        other = make_partition_pair(4, 2).first
        base = Distribution.uniform(other.input)
        with pytest.raises(AlphabetMismatchError):
            perturbation_identity_check(PerturbationProbe(base, base, (1e-3,)), ch)
