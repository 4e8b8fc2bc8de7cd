"""Region machinery: TD membership, constraint pentagons, the time-sharing
construction identities, and seeded sampling."""

import hashlib
import itertools
import math
from unittest.mock import patch

import numpy as np
import pytest

from conftest import make_identity, oracle_mi_grouped, random_joint
from tdopt.bounds import (
    _BATCH,
    _SAMPLE_LIMIT,
    MARTON,
    TD,
    UV,
    U_STAR,
    V_STAR,
    RateConstraints,
    RegionSample,
    _corners,
    _marton,
    _sample,
    _single_user_probes,
    _td_slack,
    _timeshare_probes,
    _uv,
    marton_rates,
    sample_marton,
    sample_uv,
    td_boundary_sample,
    td_region_contains,
    timeshare_construction,
    timeshare_identities,
    uv_bound_rates,
)
from tdopt.capacity import analyze_channel
from tdopt.cli import region_csv
from tdopt.config import RunConfig
from tdopt.core import (
    Alphabet,
    AlphabetMismatchError,
    Channel,
    Distribution,
    JointDistribution,
    _clean_probs,
    mutual_information,
)
from tdopt.families import make_bsc, make_partition_pair

X3 = Alphabet.of_size(3)
Y4 = Alphabet.of_size(4, "y")
Z3 = Alphabet.of_size(3, "z")


def random_pair(rng, nx=3, ny=4, nz=3):
    x = Alphabet.of_size(nx)
    ch1 = Channel(x, Alphabet.of_size(ny, "y"), rng.dirichlet(np.ones(ny), size=nx))
    ch2 = Channel(x, Alphabet.of_size(nz, "z"), rng.dirichlet(np.ones(nz), size=nx))
    return ch1, ch2


def merge_pair():
    """Noiseless 4-symbol channel next to a 2-block merge of the same inputs;
    time division is beaten by sending independent bits to the receivers."""
    ident = make_identity(4)
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    return ident, Channel(ident.input, Alphabet(("m0", "m1")), rows)


class TestRatePoint:
    """Rate points are plain (R1, R2) pairs."""

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            td_region_contains((-0.1, 0.5), 2.0, 1.0)

    def test_td_membership_corners_and_line(self):
        for alpha in (0.0, 0.25, 0.5, 1.0):
            inside, slack = td_region_contains((alpha * 2.0, (1 - alpha) * 1.0), 2.0, 1.0)
            assert inside
            assert slack == pytest.approx(0.0, abs=1e-15)

    def test_full_corner_point_outside(self):
        inside, slack = td_region_contains(np.array([2.0, 1.0]), 2.0, 1.0)
        assert not inside
        assert slack == pytest.approx(-1.0, abs=1e-15)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            td_region_contains((0.1, 0.1), 0.0, 1.0)

    def test_membership_judged_at_violation_tol(self):
        # the slack is judged at the margin sampled evidence uses (1e-7 by default)
        inside, slack = td_region_contains((0.5, 0.5 + 5e-9), 1.0, 1.0)
        assert inside
        assert slack == pytest.approx(-5e-9, rel=1e-6)
        inside, slack = td_region_contains((0.5, 0.5 + 5e-7), 1.0, 1.0)
        assert not inside
        assert slack == pytest.approx(-5e-7, rel=1e-6)
        inside, _ = td_region_contains((0.5, 0.5 + 5e-9), 1.0, 1.0, RunConfig(violation_tol=1e-9))
        assert not inside


class TestCorners:
    def test_plain_pentagon(self):
        assert RateConstraints(1.0, 1.0, 1.5).corners().tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_sum_not_binding(self):
        assert RateConstraints(0.4, 0.7, 2.0).corners().tolist() == [[0.4, 0.7], [0.4, 0.7]]

    def test_clamped_at_zero(self):
        assert RateConstraints(2.0, 2.0, 1.0).corners().tolist() == [[2.0, 0.0], [0.0, 2.0]]


class TestMartonRates:
    def test_constant_auxiliaries_carry_nothing(self):
        rng = np.random.default_rng(0)
        ch1, ch2 = random_pair(rng)
        const = Alphabet(("c",))
        p = rng.dirichlet(np.ones(3))
        aux = JointDistribution((const, const, const, X3), p[None, None, None, :])
        tri = marton_rates(aux, ch1, ch2)
        assert tri.max_r1 == pytest.approx(0.0, abs=1e-12)
        assert tri.max_r2 == pytest.approx(0.0, abs=1e-12)
        assert tri.max_sum == pytest.approx(0.0, abs=1e-12)

    def test_single_user_reduction(self):
        rng = np.random.default_rng(1)
        ch1, ch2 = random_pair(rng)
        const = Alphabet(("c",))
        p = Distribution(X3, rng.dirichlet(np.ones(3)))
        arr = np.diag(p.probs)[:, None, None, :]  # U = X, V and W constant
        aux = JointDistribution((X3, const, const, X3), arr)
        tri = marton_rates(aux, ch1, ch2)
        want = mutual_information(p, ch1)
        assert tri.max_r1 == pytest.approx(want, abs=1e-12)
        assert tri.max_r2 == pytest.approx(0.0, abs=1e-12)
        assert tri.max_sum == pytest.approx(want, abs=1e-12)

    def test_entropy_sum_oracle_agreement(self):
        rng = np.random.default_rng(2)
        ch1, ch2 = random_pair(rng, nx=2, ny=3, nz=2)
        u, v, w = (Alphabet.of_size(2, c) for c in "uvw")
        for _ in range(5):
            aux = random_joint(rng, (u, v, w, ch1.input))
            tri = marton_rates(aux, ch1, ch2)
            from tdopt.core import extend_with_channel

            jy = extend_with_channel(aux, 3, ch1)
            jz = extend_with_channel(aux, 3, ch2)
            assert tri.max_r1 == pytest.approx(oracle_mi_grouped(jy, (0, 2), (4,)), abs=1e-9)
            assert tri.max_r2 == pytest.approx(oracle_mi_grouped(jz, (1, 2), (4,)), abs=1e-9)
            want_sum = (
                min(oracle_mi_grouped(jy, (2,), (4,)), oracle_mi_grouped(jz, (2,), (4,)))
                + oracle_mi_grouped(jy, (0,), (4,), (2,))
                + oracle_mi_grouped(jz, (1,), (4,), (2,))
                - oracle_mi_grouped(aux, (0,), (1,), (2,))
            )
            assert tri.max_sum == pytest.approx(want_sum, abs=1e-9)

    def test_arity_and_alphabet_validation(self):
        rng = np.random.default_rng(3)
        ch1, ch2 = random_pair(rng)
        three_axis = random_joint(rng, (X3, X3, X3))
        with pytest.raises(ValueError, match="4-axis"):
            marton_rates(three_axis, ch1, ch2)
        const = Alphabet(("c",))
        wrong_x = random_joint(rng, (const, const, const, Y4))
        with pytest.raises(AlphabetMismatchError):
            marton_rates(wrong_x, ch1, ch2)

    def test_independent_bits_beat_time_division(self):
        # one clean bit to each receiver: the corner (1, 1) sits outside
        # R1/2 + R2/1 <= 1
        ch1, ch2 = merge_pair()
        u, v, w = Alphabet(("u0", "u1")), Alphabet(("v0", "v1")), Alphabet(("w0",))
        arr = np.zeros((2, 2, 1, 4))
        for ui in range(2):
            for vi in range(2):
                arr[ui, vi, 0, 2 * vi + ui] = 0.25
        tri = marton_rates(JointDistribution((u, v, w, ch1.input), arr), ch1, ch2)
        corner = tri.corners()[0]
        assert tuple(corner) == (pytest.approx(1.0), pytest.approx(1.0))
        inside, slack = td_region_contains(corner, 2.0, 1.0)
        assert not inside
        assert slack == pytest.approx(-0.5, abs=1e-9)


class TestUVBoundRates:
    def test_constant_auxiliaries(self):
        rng = np.random.default_rng(4)
        ch1, ch2 = random_pair(rng)
        const = Alphabet(("c",))
        aux = JointDistribution((const, const, X3), rng.dirichlet(np.ones(3))[None, None, :])
        tri = uv_bound_rates(aux, ch1, ch2)
        assert (tri.max_r1, tri.max_r2, tri.max_sum) == (
            pytest.approx(0.0, abs=1e-12),
        ) * 3

    def test_single_user_reduction(self):
        rng = np.random.default_rng(5)
        ch1, ch2 = random_pair(rng)
        const = Alphabet(("c",))
        p = Distribution(X3, rng.dirichlet(np.ones(3)))
        aux = JointDistribution((X3, const, X3), np.diag(p.probs)[:, None, :])
        tri = uv_bound_rates(aux, ch1, ch2)
        want = mutual_information(p, ch1)
        assert tri.max_r1 == pytest.approx(want, abs=1e-12)
        assert tri.max_r2 == pytest.approx(0.0, abs=1e-12)
        assert tri.max_sum == pytest.approx(want, abs=1e-12)

    def test_entropy_sum_oracle_agreement(self):
        rng = np.random.default_rng(6)
        ch1, ch2 = random_pair(rng, nx=2, ny=2, nz=3)
        u, v = Alphabet.of_size(3, "u"), Alphabet.of_size(2, "v")
        from tdopt.core import extend_with_channel

        for _ in range(5):
            aux = random_joint(rng, (u, v, ch1.input))
            tri = uv_bound_rates(aux, ch1, ch2)
            jy = extend_with_channel(aux, 2, ch1)
            jz = extend_with_channel(aux, 2, ch2)
            iu_y = oracle_mi_grouped(jy, (0,), (3,))
            iv_z = oracle_mi_grouped(jz, (1,), (3,))
            want_sum = min(
                iu_y + oracle_mi_grouped(jz, (1,), (3,), (0,)),
                iv_z + oracle_mi_grouped(jy, (0,), (3,), (1,)),
            )
            assert tri.max_r1 == pytest.approx(iu_y, abs=1e-9)
            assert tri.max_r2 == pytest.approx(iv_z, abs=1e-9)
            assert tri.max_sum == pytest.approx(want_sum, abs=1e-9)

    def test_inner_never_beats_outer_on_matched_auxiliaries(self):
        # collapse W to a constant so the same (U, V, X) feeds both bounds
        rng = np.random.default_rng(7)
        ch1, ch2 = random_pair(rng)
        u, v = Alphabet.of_size(2, "u"), Alphabet.of_size(2, "v")
        const = Alphabet(("c",))
        for _ in range(20):
            aux3 = random_joint(rng, (u, v, ch1.input))
            aux4 = JointDistribution(
                (u, v, const, ch1.input), aux3.probs[:, :, None, :]
            )
            inner = marton_rates(aux4, ch1, ch2)
            outer = uv_bound_rates(aux3, ch1, ch2)
            assert inner.max_sum <= outer.max_sum + 1e-6


class TestTimeshareConstruction:
    @staticmethod
    def random_plans(rng, nx=3, n1=2, n2=2):
        x = Alphabet.of_size(nx)
        first = JointDistribution(
            (x, Alphabet.of_size(n1, "u")), rng.dirichlet(np.ones(nx * n1)).reshape(nx, n1)
        )
        second = JointDistribution(
            (x, Alphabet.of_size(n2, "v")), rng.dirichlet(np.ones(nx * n2)).reshape(nx, n2)
        )
        return first, second

    def test_selector_marginal(self):
        rng = np.random.default_rng(8)
        first, second = self.random_plans(rng)
        tc = timeshare_construction(first, second, 0.3)
        q = tc.joint.marginal_distribution(0)
        assert np.allclose(q.probs, [0.3, 0.7], atol=1e-15)

    def test_structure_of_active_branch(self):
        rng = np.random.default_rng(9)
        first, second = self.random_plans(rng)
        tc = timeshare_construction(first, second, 0.6)
        arr = tc.joint.probs
        v_star = tc.joint.alphabets[3].index(V_STAR)
        u_star = tc.joint.alphabets[2].index(U_STAR)
        # on the first branch U' copies X and V' is pinned, and vice versa
        _, u_idx, v_idx, x_idx = arr[0].nonzero()
        assert np.all(v_idx == v_star)
        assert np.all(u_idx == x_idx)
        _, u_idx, v_idx, x_idx = arr[1].nonzero()
        assert np.all(u_idx == u_star)
        assert np.all(v_idx == x_idx)

    def test_degenerate_fraction_recovers_first_plan(self):
        rng = np.random.default_rng(10)
        first, second = self.random_plans(rng)
        tc = timeshare_construction(first, second, 1.0)
        assert tc.joint.probs[1].sum() == 0.0
        wx = tc.joint.marginal((1, 4)).probs
        assert np.allclose(wx[: len(first.alphabets[1])], first.probs.T, atol=1e-15)

    def test_cross_information_is_exactly_zero(self):
        from tdopt.core import mutual_information_pair

        rng = np.random.default_rng(11)
        for _ in range(10):
            first, second = self.random_plans(rng)
            lam = float(rng.uniform())
            tc = timeshare_construction(first, second, lam)
            assert mutual_information_pair(tc.joint, (2,), (3,), (0, 1)) == 0.0

    def test_invalid_inputs(self):
        rng = np.random.default_rng(12)
        first, second = self.random_plans(rng)
        with pytest.raises(ValueError, match="first_fraction"):
            timeshare_construction(first, second, 1.5)
        with pytest.raises(ValueError, match="2-axis"):
            timeshare_construction(first.marginal((0,)), second, 0.5)
        mismatched = JointDistribution(
            (Alphabet.of_size(2), Alphabet.of_size(2, "u")), np.full((2, 2), 0.25)
        )
        with pytest.raises(AlphabetMismatchError):
            timeshare_construction(mismatched, second, 0.5)
        reserved = JointDistribution(
            (Alphabet(("a", U_STAR)), Alphabet.of_size(2, "u")), np.full((2, 2), 0.25)
        )
        with pytest.raises(ValueError, match="reserved"):
            timeshare_construction(reserved, reserved, 0.5)

    def test_identities_on_random_triples(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            nx = int(rng.integers(2, 5))
            ch1, ch2 = random_pair(rng, nx=nx, ny=int(rng.integers(2, 5)), nz=int(rng.integers(2, 5)))
            first, second = self.random_plans(rng, nx=nx, n1=int(rng.integers(1, 4)), n2=int(rng.integers(1, 4)))
            lam = float(rng.uniform())
            tc = timeshare_construction(first, second, lam)
            ids = timeshare_identities(tc, ch1, ch2)
            for key, (lhs, rhs) in ids.items():
                assert lhs == pytest.approx(rhs, abs=1e-9), key
            assert ids["aux_cross_information"][0] == 0.0

    def test_marton_triple_matches_identity_decomposition(self):
        from tdopt.core import extend_with_channel, mutual_information_pair

        rng = np.random.default_rng(14)
        ch1, ch2 = random_pair(rng)
        first, second = self.random_plans(rng)
        tc = timeshare_construction(first, second, 0.5)
        tri = marton_rates(tc.marton_joint(), ch1, ch2)
        ids = timeshare_identities(tc, ch1, ch2)
        ext1 = extend_with_channel(tc.joint, 4, ch1)
        ext2 = extend_with_channel(tc.joint, 4, ch2)
        want_sum = (
            min(
                mutual_information_pair(ext1, (0, 1), (5,)),
                mutual_information_pair(ext2, (0, 1), (5,)),
            )
            + ids["first_private_rate"][0]
            + ids["second_private_rate"][0]
        )
        assert tri.max_sum == pytest.approx(want_sum, abs=1e-9)


def sampled(sampler, ch1, ch2, **cfg):
    """`sampler` run from the two channels' capacity reports under
    `RunConfig(**cfg)`."""
    return sampler(analyze_channel(ch1), analyze_channel(ch2), RunConfig(**cfg))


class TestSampling:
    def test_identical_pair_never_violates(self):
        ch = make_bsc(0.11)
        rep = sampled(sample_marton, ch, ch, samples=500, seed=0)
        assert rep.min_slack >= -1e-9

    def test_partition_pair_never_violates(self):
        pair = make_partition_pair(4, 2)
        rep = sampled(sample_marton, pair.first, pair.second, samples=500, seed=0)
        assert rep.min_slack >= -1e-9

    def test_empty_sample(self):
        ch = make_bsc(0.11)
        rep = sampled(sample_marton, ch, ch, samples=0, seed=0)
        assert rep.sample.points.shape == (0, 2)
        assert rep.min_slack == 1.0
        assert rep.worst_point is None
        assert rep.worst_aux is None

    def test_points_are_a_read_only_array(self):
        ch1, ch2 = make_bsc(0.1), make_bsc(0.3)
        rep = sampled(sample_uv, ch1, ch2, samples=20, seed=0)
        points = rep.sample.points
        assert points.shape == (2 * (2 + 20), 2) and points.dtype == np.float64
        assert not points.flags.writeable
        c1, c2 = analyze_channel(ch1).capacity, analyze_channel(ch2).capacity
        slacks = 1.0 - points[:, 0] / c1 - points[:, 1] / c2
        assert rep.min_slack == slacks.min()
        assert np.array_equal(rep.worst_point, points[slacks.argmin()])

    def test_deterministic_and_seed_sensitive(self):
        ch1, ch2 = make_bsc(0.1), make_bsc(0.3)
        a = sampled(sample_marton, ch1, ch2, samples=300, seed=5)
        b = sampled(sample_marton, ch1, ch2, samples=300, seed=5)
        assert np.array_equal(a.sample.points, b.sample.points)
        c = sampled(sample_marton, ch1, ch2, samples=300, seed=6)
        assert not np.array_equal(a.sample.points, c.sample.points)

    def test_uv_probe_reaches_single_user_corner(self):
        ch1, ch2 = make_bsc(0.11), make_bsc(0.3)
        c1 = analyze_channel(ch1).capacity
        rep = sampled(sample_uv, ch1, ch2, samples=10, seed=0)
        best_r1 = rep.sample.points[:, 0].max()
        assert best_r1 == pytest.approx(c1, abs=1e-9)

    def test_worst_aux_replays_slack(self):
        ch1, ch2 = merge_pair()
        rep1 = analyze_channel(ch1)
        rep2 = analyze_channel(ch2)
        srep = sample_marton(rep1, rep2, RunConfig(samples=300, seed=1))
        assert srep.worst_aux is not None
        replay = marton_rates(srep.worst_aux, ch1, ch2)
        slacks = [
            td_region_contains(pt, rep1.capacity, rep2.capacity)[1]
            for pt in replay.corners()
        ]
        assert min(slacks) == pytest.approx(srep.min_slack, abs=1e-12)

    def test_cardinality_blowup_rejected_before_allocation(self):
        ch = make_bsc(0.11)
        with pytest.raises(ValueError, match="cells"):
            sampled(sample_marton, ch, ch, cardinalities=(100, 100, 101), samples=10)
        with pytest.raises(ValueError, match=">= 1"):
            sampled(sample_uv, ch, ch, cardinalities=(0, 2, 2), samples=10)

    def test_zero_capacity_rejected(self):
        bsc = make_bsc(0.1)
        dead = Channel(bsc.input, Alphabet(("y",)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="positive"):
            sampled(sample_marton, dead, bsc, samples=10)


def merged_labels(inputs: str) -> str:
    """The merged W labels of the time-sharing probes on these inputs: the
    first copy plan's under Q = 0, then the second's under Q = 1."""
    return " ".join(f"{q}:{role}:{x}" for q, role in ("0u", "1v") for x in inputs.split())


PARTITION_43 = make_partition_pair(4, 3)
PARTITION_43_INPUTS = "a0 a1 a2 a3 b0 b1 b2"
PARTITION_43_MERGED = merged_labels(PARTITION_43_INPUTS)
# |X| = 8, more inputs than any corpus pair: the longest X sums and channel
# products
PARTITION_53 = make_partition_pair(5, 3)
PARTITION_53_INPUTS = "a0 a1 a2 a3 a4 b0 b1 b2"
BSC_PAIR = (make_bsc(0.1), make_bsc(0.3))


class TestSamplingBytes:
    """The exact bytes of three region samples per bound at seed 0: every point,
    the worst joint's probabilities and its alphabets. A layout, order or
    rounding change in the probes, the draws or the rate formulas moves them."""

    @pytest.mark.parametrize("pair, sampler, cfg, points_sha, aux_sha, symbols", [
        ((PARTITION_43.first, PARTITION_43.second), sample_marton, dict(samples=500),
         "4a285d7d802456e595920708a39f03e5697995b67356b2a5d0e6c1998d79386a",
         "55190a1c4deee8e5dea8732b032ead459d51ff2cae7ea8c3e994d6cb9590e26d",
         (f"{PARTITION_43_INPUTS} __u_star", f"{PARTITION_43_INPUTS} __v_star",
          PARTITION_43_MERGED, PARTITION_43_INPUTS)),
        ((PARTITION_43.first, PARTITION_43.second), sample_uv, dict(samples=500),
         "c36ea544417cb4f70f10b7edfe1d4ef294716a3ac1672175ac2e9248f7a89116",
         "dc8ebf48b36207ad9da74bb28e11ba5a7314d0167889b344a782fabff44955d2",
         (PARTITION_43_INPUTS, "c0", PARTITION_43_INPUTS)),
        (BSC_PAIR, sample_marton, dict(cardinalities=(3, 3, 2)),
         "afc11693a8c44e81c9c0f24d92795d950b741fdab65cfe314c893f75ff4975cf",
         "66a54cf9779929b16ea07b27a02eb6b558a00c90c10f247b113294aac4d9a771",
         ("0 1 __u_star", "0 1 __v_star", "0:u:0 0:u:1 1:v:0 1:v:1", "0 1")),
        (BSC_PAIR, sample_uv, dict(cardinalities=(3, 3, 2)),
         "ca21d0c6a92046c780fe46904ca2707ac8053ad909dec522bf44cf73046bc03b",
         "7e5cfbb2f362088a333aeb03f34eb9f4915fb2c3a25ef7fd6bc7ffd2d85dba90",
         ("c0", "0 1", "0 1")),
        ((PARTITION_53.first, PARTITION_53.second), sample_marton, dict(samples=500),
         "154f33e93f5281b8e7825652acd011efb2fb05866a8996a96383d51e6791be08",
         "8c8d4169e84ddd21b4b4c722a6b893146bd2d64b2fe7143a7f3427777271f8b0",
         (f"{PARTITION_53_INPUTS} __u_star", f"{PARTITION_53_INPUTS} __v_star",
          merged_labels(PARTITION_53_INPUTS), PARTITION_53_INPUTS)),
        ((PARTITION_53.first, PARTITION_53.second), sample_uv, dict(samples=500),
         "1cd63e428b4a44293b0541f0f9a081c584634ae8bb5c9ff4e7e1c62e57a91e3c",
         "6c544b0176294019354d7c89f27330a505c5c0e593d9c3d038dc1d0e7510e7e7",
         (PARTITION_53_INPUTS, "c0", PARTITION_53_INPUTS)),
    ], ids=["partition43-marton", "partition43-uv", "bsc-marton", "bsc-uv",
            "partition53-marton", "partition53-uv"])
    def test_seed_zero_bytes(self, pair, sampler, cfg, points_sha, aux_sha, symbols):
        rep = sampled(sampler, *pair, seed=0, **cfg)
        assert hashlib.sha256(rep.sample.points.tobytes()).hexdigest() == points_sha
        assert hashlib.sha256(rep.worst_aux.probs.tobytes()).hexdigest() == aux_sha
        assert tuple(" ".join(a.symbols) for a in rep.worst_aux.alphabets) == symbols


def no_probes(rep1, rep2):
    return iter(())


def batchwise_sample(rep1, rep2, cfg, arity, rates, probes):
    """The reference for region sampling's draws: the probes, then every
    seeded batch of up to _BATCH Dirichlet draws, each validated as a lone
    joint is and evaluated alone.
    Returns the points, the first smallest slack, its point and the joint
    and alphabets behind it."""
    ch1, ch2 = rep1.channel, rep2.channel
    cards, nx = cfg.cardinalities[:arity], len(ch1.input)
    alphabets = tuple(Alphabet.of_size(c, prefix) for c, prefix in zip(cards, "uvw")) + (ch1.input,)
    batches = list(probes(rep1, rep2))
    for index, done in enumerate(range(0, cfg.samples, _BATCH)):
        draws = np.random.default_rng([cfg.seed, index]).dirichlet(
            np.ones(math.prod(cards) * nx), size=min(_BATCH, cfg.samples - done))
        batches.append((draws.reshape((-1,) + cards + (nx,)), alphabets))
    points, joints = [], []
    for probs, alphas in batches:
        probs = _clean_probs(probs, "joint distribution", batch=True)
        points.append(_corners(*rates(probs, ch1.rows, ch2.rows)).reshape(-1, 2))
        joints.extend((joint, alphas) for joint in probs)
    points = np.concatenate(points)
    slack = _td_slack(points[:, 0], points[:, 1], rep1.capacity, rep2.capacity)
    row = int(slack.argmin())
    return points, float(slack[row]), points[row], joints[row // 2]


class TestDrawChunks:
    """Each seeded batch of draws is evaluated as it is drawn, unvalidated. A
    sample's points, its batches' corners joined in order, are the ones its
    batches give validated and evaluated alone: at every count around a
    batch's end, and on the pair and cardinalities with the most cells per
    joint here."""

    @pytest.mark.parametrize("samples, sizes, cards", [
        *(pytest.param(n, (3, 2), (2, 2, 2), id=str(n))
          for n in (1, 511, 512, 513, 1023, 1024, 1025, 2000)),
        pytest.param(1025, (5, 3), (3, 3, 2), id="8-inputs-1025"),
    ])
    def test_joined_batches_equal_lone_batches(self, samples, sizes, cards):
        pair = make_partition_pair(*sizes)
        rep1, rep2 = analyze_channel(pair.first), analyze_channel(pair.second)
        cfg = RunConfig(samples=samples, seed=3, cardinalities=cards)
        for arity, rates, probes, source in ((3, _marton, _timeshare_probes, MARTON),
                                             (2, _uv, _single_user_probes, UV)):
            # without probes, the worst joint is a draw
            for probe in (probes, no_probes):
                report = _sample(rep1, rep2, cfg, arity, rates, probe, source)
                points, min_slack, worst_point, (joint, alphas) = batchwise_sample(
                    rep1, rep2, cfg, arity, rates, probe)
                assert report.sample.points.tobytes() == points.tobytes()
                assert report.min_slack == min_slack
                assert report.worst_point.tobytes() == worst_point.tobytes()
                assert report.worst_aux.probs.tobytes() == joint.tobytes()
                assert report.worst_aux.alphabets == alphas

    def test_sample_limit_refuses_before_any_draw(self):
        rep = analyze_channel(make_bsc(0.11))
        cfg = RunConfig(samples=_SAMPLE_LIMIT + 1)
        for sampler in (sample_marton, sample_uv):
            with patch("numpy.random.default_rng", side_effect=AssertionError("drew")), \
                    pytest.raises(ValueError, match="exceed the limit"):
                sampler(rep, rep, cfg)


class TestSerialization:
    def test_csv_shape_and_precision(self):
        sample = RegionSample(np.array([[1.0 / 3.0, 0.25], [0.0, 1.0]]), MARTON)
        text = region_csv((sample,))
        lines = text.splitlines()
        assert lines[0] == "source,R1,R2"
        assert lines[1] == "MARTON,0.333333333333,0.25"
        assert lines[2] == "MARTON,0,1"
        assert text.endswith("\n")

    def test_csv_joins_samples_under_one_header_and_scales(self):
        first = RegionSample(np.array([[1.0, 0.5]]), MARTON)
        second = RegionSample(np.array([[0.25, 2.0]]), TD)
        lines = region_csv((first, second), math.log(2.0)).splitlines()
        assert lines == [
            "source,R1,R2",
            f"MARTON,{math.log(2.0):.12g},{0.5 * math.log(2.0):.12g}",
            f"TD,{0.25 * math.log(2.0):.12g},{2.0 * math.log(2.0):.12g}",
        ]

    def test_csv_rows_read_as_the_f_string_form(self):
        # the last four are 12-digit rounding ties that a double holds exactly,
        # rounded down and up by the half-even rule
        values = [0.0, -0.0, 1e-17, 1e16, 1.0 / 3.0,
                  1234567890.125, 1234567890.375, 1000000000005.0, 1000000000015.0]
        points = np.array(list(itertools.product(values, repeat=2)))
        for scale in (1.0, math.log(2.0)):
            lines = region_csv((RegionSample(points, "MARTON%s"),), scale).splitlines()
            assert lines[1:] == [f"MARTON%s,{r1:.12g},{r2:.12g}"
                                 for r1, r2 in (points * scale).tolist()]

    def test_csv_writes_no_row_for_an_empty_sample(self):
        empty = RegionSample(np.empty((0, 2)), "UV%d%%")
        full = RegionSample(np.array([[0.5, 0.25], [1.0 / 3.0, 0.0]]), "100%")
        assert region_csv((empty,)) == "source,R1,R2\n"
        assert region_csv((empty, full, empty)) == (
            "source,R1,R2\n100%,0.5,0.25\n100%,0.333333333333,0\n")

    def test_td_boundary_endpoints_and_midpoint(self):
        sample = td_boundary_sample(2.0, 1.0, 101)
        assert sample.source == TD
        pts = [tuple(p) for p in sample.points.tolist()]
        assert pts[0] == (2.0, 0.0)
        assert pts[50] == (1.0, 0.5)
        assert pts[100] == (0.0, 1.0)

    def test_td_boundary_validation(self):
        with pytest.raises(ValueError, match="positive"):
            td_boundary_sample(0.0, 1.0)
        with pytest.raises(ValueError, match="corner"):
            td_boundary_sample(1.0, 1.0, 1)
