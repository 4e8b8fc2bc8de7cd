import math

import numpy as np
import pytest

from tdopt.core import (
    Alphabet,
    AlphabetMismatchError,
    BroadcastPair,
    Channel,
    Distribution,
    JointDistribution,
    LN2,
    entropy,
    extend_with_channel,
    kl,
    kl_divergence,
    mutual_information,
    mutual_information_pair,
    neg_entropy,
    push_forward,
    row_divergences,
    _clean_probs,
)
from tdopt.families import make_bsc, make_partition_pair

from conftest import (
    h2,
    make_identity,
    oracle_mi_grouped,
    oracle_mutual_information,
    random_channel,
    random_distribution,
    random_joint,
)

B = Alphabet(("0", "1"))
QUAD = Alphabet.of_size(4)


def bern(q: float) -> Distribution:
    """P(X='1') = q."""
    return Distribution(B, np.array([1.0 - q, q]))


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "b", "a"))

    def test_index_and_membership(self):
        a = Alphabet(("u", "v"))
        assert a.index("v") == 1 and "u" in a and "w" not in a
        with pytest.raises(KeyError):
            a.index("w")


class TestDistribution:
    def test_valid_input_kept_bit_for_bit(self):
        raw = np.array([0.25, 0.75])
        d = Distribution(B, raw)
        assert d.probs[0] == 0.25 and d.probs[1] == 0.75

    def test_renormalizes_when_slightly_off(self):
        d = Distribution(B, np.array([0.5, 0.5 + 3e-10]))
        assert abs(d.probs.sum() - 1.0) <= 1e-12

    def test_rejects_far_from_normalized(self):
        with pytest.raises(ValueError):
            Distribution(B, np.array([0.5, 0.6]))

    def test_rejects_large_negative_and_clamps_tiny(self):
        with pytest.raises(ValueError):
            Distribution(B, np.array([-0.1, 1.1]))
        d = Distribution(B, np.array([-1e-10, 1.0]))
        assert d.probs[0] == 0.0

    def test_support_and_point_mass(self):
        d = Distribution.point_mass(QUAD, "x2")
        assert d.support() == ("x2",) and d.prob("x2") == 1.0

    def test_probs_are_read_only(self):
        d = Distribution.uniform(B)
        with pytest.raises(ValueError):
            d.probs[0] = 0.3


def _message(fn) -> str:
    with pytest.raises(ValueError) as exc:
        fn()
    return str(exc.value)


class TestBatchValidation:
    GOOD = np.array([[0.1, 0.2], [0.3, 0.4]])

    @pytest.mark.parametrize("cell, value, expected", [
        ((0, 1), np.nan, "contains non-finite entries"),
        ((1, 0), -0.1, "has negative entry -0.1 at position (1, 0)"),
        ((1, 1), 0.9, "sums to 1.5, not 1"),
    ])
    def test_first_bad_row_raises_its_own_message(self, cell, value, expected):
        bad = self.GOOD.copy()
        bad[cell] = value
        worse = np.full((2, 2), -1.0)  # a later row fails differently
        batch = np.stack([self.GOOD, bad, worse])
        alone = _message(lambda: _clean_probs(bad, "joint distribution"))
        assert alone.startswith(f"joint distribution {expected}")
        assert _message(lambda: _clean_probs(batch, "joint distribution", batch=True)) == alone

    def test_rows_cleaned_as_alone(self):
        batch = np.stack([
            self.GOOD,                       # kept bit for bit
            self.GOOD * (1.0 + 4e-10),       # renormalized
            [[-1e-10, 0.2], [0.3, 0.5]],     # tiny negative clamped
        ])
        cleaned = _clean_probs(batch, "joint distribution", batch=True)
        assert not cleaned.flags.writeable
        for i, row in enumerate(batch):
            assert np.array_equal(cleaned[i], _clean_probs(row, "joint distribution"))
        assert np.array_equal(cleaned[0], self.GOOD)
        assert cleaned[2, 0, 0] == 0.0


class TestChannel:
    def test_row_validation_names_the_row(self):
        with pytest.raises(ValueError, match="row 1"):
            Channel(B, B, np.array([[0.5, 0.5], [0.9, 0.2]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Channel(B, B, np.ones((2, 3)) / 3)

    def test_reachable_outputs(self):
        ch = Channel(B, Alphabet(("p", "q", "r")), np.array([[1.0, 0, 0], [0.5, 0, 0.5]]))
        assert list(ch.reachable_outputs()) == [True, False, True]

    def test_broadcast_pair_requires_shared_input(self):
        with pytest.raises(AlphabetMismatchError):
            BroadcastPair(make_bsc(0.1), make_identity(3))


class TestEntropy:
    def test_point_mass_zero(self):
        assert entropy(Distribution.point_mass(B, "0")) == 0.0

    def test_uniform_four_symbols(self):
        assert entropy(Distribution.uniform(QUAD)) == pytest.approx(2.0, abs=1e-12)

    def test_binary_closed_form(self):
        assert entropy(bern(0.11)) == pytest.approx(h2(0.11), abs=1e-12)


class TestKL:
    def test_identical_is_zero(self):
        assert kl_divergence(bern(0.3), bern(0.3)) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence(Distribution.point_mass(B, "0"), Distribution.uniform(B)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_binary_closed_form(self):
        # D(Bern(0.11) || Bern(0.5)) = 1 - h2(0.11)
        assert kl_divergence(bern(0.11), bern(0.5)) == pytest.approx(1.0 - h2(0.11), abs=1e-12)

    def test_support_escape_is_infinite(self):
        assert kl_divergence(bern(0.5), bern(0.0)) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            kl_divergence(Distribution.uniform(B), Distribution.uniform(QUAD))

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_distribution(rng, QUAD)
            q = random_distribution(rng, QUAD)
            d = kl_divergence(p, q)
            assert d >= 0.0
            if d < 1e-13:
                assert np.allclose(p.probs, q.probs, atol=1e-6)


class TestPushForward:
    def test_identity_channel(self):
        p = Distribution(QUAD, np.array([0.1, 0.2, 0.3, 0.4]))
        assert np.array_equal(push_forward(p, make_identity(4)).probs, p.probs)

    def test_bsc_mixing_closed_form(self):
        out = push_forward(bern(0.2), make_bsc(0.1))
        assert out.prob("1") == pytest.approx(0.26, abs=1e-15)

    def test_mass_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ch = random_channel(rng, 4, 3)
            p = random_distribution(rng, ch.input)
            assert push_forward(p, ch).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            push_forward(Distribution.uniform(QUAD), make_bsc(0.1))


class TestMutualInformation:
    def test_constant_channel_zero(self):
        ch = Channel(B, B, np.array([[0.4, 0.6], [0.4, 0.6]]))
        assert mutual_information(Distribution.uniform(B), ch) == 0.0

    def test_bsc_at_uniform_input(self):
        assert mutual_information(bern(0.5), make_bsc(0.11)) == \
            pytest.approx(1.0 - h2(0.11), abs=1e-12)

    def test_partition_pair_block_input(self):
        # Uniform over the resolved block: the first receiver sees it verbatim.
        pair = make_partition_pair(4, 2)
        p = Distribution(pair.first.input, np.array([0.25, 0.25, 0.25, 0.25, 0.0, 0.0]))
        assert mutual_information(p, pair.first) == pytest.approx(2.0, abs=1e-12)
        assert mutual_information(p, pair.second) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ch = random_channel(rng, 3, 5)
            p = random_distribution(rng, ch.input)
            assert mutual_information(p, ch) == \
                pytest.approx(oracle_mutual_information(p, ch), abs=1e-12)

    def test_bounded_by_log_alphabet_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ch = random_channel(rng, 4, 3)
            p = random_distribution(rng, ch.input)
            cap = min(math.log2(len(ch.input)), math.log2(len(ch.output)))
            assert -1e-12 <= mutual_information(p, ch) <= cap + 1e-12

    def test_concave_in_input(self):
        rng = np.random.default_rng(13)
        ch = random_channel(rng, 4, 4)
        for _ in range(20):
            p = random_distribution(rng, ch.input)
            q = random_distribution(rng, ch.input)
            lam = rng.uniform()
            mix = Distribution(ch.input, lam * p.probs + (1 - lam) * q.probs)
            assert mutual_information(mix, ch) >= \
                lam * mutual_information(p, ch) + (1 - lam) * mutual_information(q, ch) - 1e-9


def expected_divergence(p, ref, ch):
    """sum_x p(x) D(ch(.|x) || ref) in bits, through the kernel's row divergences."""
    return float(p.probs @ row_divergences(ch.rows, neg_entropy(ch.rows), ref.probs)) / LN2


class TestExpectedDivergence:
    def test_decomposition_identity(self):
        # sum_x p(x) D(row_x || r) = I(X;Y) + D(p_Y || r)
        rng = np.random.default_rng(17)
        for _ in range(40):
            ch = random_channel(rng, 4, 3)
            p = random_distribution(rng, ch.input)
            r = random_distribution(rng, ch.output)
            lhs = expected_divergence(p, r, ch)
            rhs = mutual_information(p, ch) + kl_divergence(push_forward(p, ch), r)
            assert lhs == pytest.approx(rhs, abs=1e-9)
            assert float(p.probs @ kl(ch.rows, r.probs)) == pytest.approx(lhs, abs=1e-12)

    def test_reference_equal_to_output_gives_mi(self):
        rng = np.random.default_rng(19)
        ch = random_channel(rng, 3, 4)
        p = random_distribution(rng, ch.input)
        assert expected_divergence(p, push_forward(p, ch), ch) == \
            pytest.approx(mutual_information(p, ch), abs=1e-12)

    def test_infinite_when_reference_misses_support(self):
        ch = make_identity(2)
        ref = np.array([1.0, 0.0])
        uniform = Distribution.uniform(ch.input).probs
        assert float(uniform @ kl(ch.rows, ref)) == math.inf
        # the row divergences put a huge finite stand-in where kl is +inf
        div = row_divergences(ch.rows, neg_entropy(ch.rows), ref)
        assert div[0] == 0.0
        assert 1e8 < div[1] < math.inf


class TestMutualInformationPair:
    def test_independent_product_is_zero(self):
        pa = np.array([0.3, 0.7])
        pb = np.array([0.2, 0.5, 0.3])
        joint = JointDistribution((B, Alphabet.of_size(3, "b")), np.outer(pa, pb))
        assert abs(mutual_information_pair(joint, (0,), (1,))) <= 1e-12

    def test_perfect_correlation_is_log_n(self):
        joint = JointDistribution((QUAD, QUAD), np.eye(4) / 4.0)
        assert mutual_information_pair(joint, (0,), (1,)) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_slice_contributes_exact_zero(self):
        # B constant within every slice of C: I(A;B|C) is structurally zero.
        rng = np.random.default_rng(23)
        a, b, c = Alphabet.of_size(3, "a"), Alphabet.of_size(2, "b"), Alphabet.of_size(2, "c")
        probs = np.zeros((3, 2, 2))
        probs[:, 0, 0] = rng.dirichlet(np.ones(3)) * 0.6
        probs[:, 1, 1] = rng.dirichlet(np.ones(3)) * 0.4
        joint = JointDistribution((a, b, c), probs)
        assert mutual_information_pair(joint, (0,), (1,), (2,)) == 0.0

    def test_matches_entropy_sum_oracle(self):
        rng = np.random.default_rng(29)
        alphs = (Alphabet.of_size(2, "a"), Alphabet.of_size(3, "b"),
                 Alphabet.of_size(2, "c"), Alphabet.of_size(2, "d"))
        for _ in range(15):
            joint = random_joint(rng, alphs)
            got = mutual_information_pair(joint, (0, 1), (3,), (2,))
            want = oracle_mi_grouped(joint, (0, 1), (3,), (2,))
            assert got == pytest.approx(want, abs=1e-10)
            got2 = mutual_information_pair(joint, (0,), (1, 3))
            want2 = oracle_mi_grouped(joint, (0,), (1, 3))
            assert got2 == pytest.approx(want2, abs=1e-10)

    def test_group_order_does_not_matter(self):
        rng = np.random.default_rng(31)
        alphs = (B, B, Alphabet.of_size(3, "w"))
        joint = random_joint(rng, alphs)
        assert mutual_information_pair(joint, (0,), (1,), (2,)) == \
            pytest.approx(mutual_information_pair(joint, (1,), (0,), (2,)), abs=1e-12)

    def test_overlapping_axes_rejected(self):
        joint = JointDistribution((B, B), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            mutual_information_pair(joint, (0,), (0,))


class TestExtendWithChannel:
    def test_output_axis_appended(self):
        rng = np.random.default_rng(37)
        joint = random_joint(rng, (Alphabet.of_size(3, "u"), B))
        ch = make_bsc(0.2)
        ext = extend_with_channel(joint, 1, ch)
        assert tuple(len(a) for a in ext.alphabets) == (3, 2, 2)
        # conditional of the new axis given axis 1 must be the channel law
        for x in range(2):
            slice_mass = ext.probs[:, x, :].sum(axis=0)
            denom = joint.probs[:, x].sum()
            assert np.allclose(slice_mass / denom, ch.rows[x], atol=1e-12)

    def test_markov_structure(self):
        # U - X - Y chain: I(U;Y|X) = 0 exactly by construction.
        rng = np.random.default_rng(41)
        joint = random_joint(rng, (Alphabet.of_size(3, "u"), B))
        ext = extend_with_channel(joint, 1, make_bsc(0.3))
        assert mutual_information_pair(ext, (0,), (2,), (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_input_alphabet_checked(self):
        joint = JointDistribution((QUAD,), np.full(4, 0.25))
        with pytest.raises(AlphabetMismatchError):
            extend_with_channel(joint, 0, make_bsc(0.1))
