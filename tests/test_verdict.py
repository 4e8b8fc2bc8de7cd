"""Decision procedure: branch selection, certificates, evidence fallback,
and serialization."""

import json
import math

import numpy as np
import pytest

from conftest import make_identity
from tdopt.capacity import compute_capacity
from tdopt.comparison import HOLDS_UP_TO_SEARCH, VIOLATED
from tdopt.config import RunConfig
from tdopt.core import Alphabet, BroadcastPair, Channel, Distribution, mutual_information
from tdopt.families import make_bec, make_bsc, make_partition_pair
from tdopt.verdict import (
    ASSUMPTION_VIOLATED,
    CAPACITY_GAP_RATIO,
    EQUAL_CAPACITY_MORE_CAPABLE,
    INCONCLUSIVE,
    NO_BRANCH,
    TD_NOT_OPTIMAL,
    TD_OPTIMAL,
    decide_td_optimality,
    evidence_mode,
    theorem_statement_normalization,
    verdict_to_dict,
)

FAST = RunConfig(samples=200, starts=16)


def evidence(pair):
    return evidence_mode(pair, compute_capacity(pair.first), compute_capacity(pair.second), FAST)


def merge_pair():
    ident = make_identity(4)
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    return BroadcastPair(ident, Channel(ident.input, Alphabet(("m0", "m1")), rows))


class TestBranchSelection:
    def test_clear_gap(self):
        assert theorem_statement_normalization(2.0, 1.0, 1e-6) == CAPACITY_GAP_RATIO

    def test_exact_tie(self):
        assert theorem_statement_normalization(0.5, 0.5, 1e-6) == EQUAL_CAPACITY_MORE_CAPABLE

    def test_boundary_is_strict(self):
        # a difference at or below the tolerance counts as equal capacities;
        # dyadic values keep the comparison exact in floating point
        tol = 2.0**-20
        assert (
            theorem_statement_normalization(0.5 + tol, 0.5, tol)
            == EQUAL_CAPACITY_MORE_CAPABLE
        )
        assert (
            theorem_statement_normalization(0.5000001, 0.5, 1e-6)
            == EQUAL_CAPACITY_MORE_CAPABLE
        )
        assert theorem_statement_normalization(0.5 + 2 * tol, 0.5, tol) == CAPACITY_GAP_RATIO


class TestDecide:
    def test_identical_channels(self):
        v = decide_td_optimality(BroadcastPair(make_bsc(0.11), make_bsc(0.11)), FAST)
        assert v.status == TD_OPTIMAL
        assert v.branch == EQUAL_CAPACITY_MORE_CAPABLE
        assert not v.swapped
        assert v.search_limited
        assert v.witnesses == ()
        assert v.evidence is None

    def test_relabeled_bsc_equal_capacity(self):
        v = decide_td_optimality(BroadcastPair(make_bsc(0.11), make_bsc(0.89)), FAST)
        assert v.status == TD_OPTIMAL
        assert v.branch == EQUAL_CAPACITY_MORE_CAPABLE

    def test_erasure_pair_ratio_branch(self):
        v = decide_td_optimality(BroadcastPair(make_bec(0.1), make_bec(0.4)), FAST)
        assert v.status == TD_OPTIMAL
        assert v.branch == CAPACITY_GAP_RATIO
        assert v.checks["ratio_condition"].status == HOLDS_UP_TO_SEARCH

    def test_partition_pair_assumption_violated(self):
        pair = make_partition_pair(4, 2)
        v = decide_td_optimality(BroadcastPair(pair.first, pair.second), FAST)
        assert v.status == ASSUMPTION_VIOLATED
        assert v.branch == NO_BRANCH
        assert v.first_report.support_union == ("a0", "a1", "a2", "a3")
        assert v.second_report.support_union == ("b0", "b1")
        assert v.checks == {}
        assert v.evidence is not None
        assert v.evidence.min_marton_slack >= -1e-9
        assert v.evidence.violating_aux is None

    def test_degraded_bsc_status_matches_grid_oracle(self):
        ch1, ch2 = make_bsc(0.1), make_bsc(0.3)
        v = decide_td_optimality(BroadcastPair(ch1, ch2), FAST)
        assert v.branch == CAPACITY_GAP_RATIO
        c1 = v.first_report.capacity
        c2 = v.second_report.capacity
        deltas = np.arange(0.0, 1.0 + 5e-5, 1e-4)
        grid = np.column_stack([1.0 - deltas, deltas])

        def mi(ch, pts):
            rows = ch.rows
            hr = -np.where(rows > 0, rows * np.log2(np.where(rows > 0, rows, 1.0)), 0.0).sum(axis=1)
            q = pts @ rows
            hq = -np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0).sum(axis=1)
            return hq - pts @ hr

        worst = (mi(ch2, grid) / c2 - mi(ch1, grid) / c1).min()
        expect = TD_NOT_OPTIMAL if worst < -1e-7 else TD_OPTIMAL
        assert v.status == expect

    def test_violation_carries_replayable_witness(self):
        pair = merge_pair()
        v = decide_td_optimality(pair, FAST)
        assert v.status == TD_NOT_OPTIMAL
        assert v.branch == CAPACITY_GAP_RATIO
        (witness,) = v.witnesses
        c1 = v.first_report.capacity
        c2 = v.second_report.capacity
        replay = (
            mutual_information(witness, pair.second) / c2
            - mutual_information(witness, pair.first) / c1
        )
        assert replay == pytest.approx(v.checks["ratio_condition"].gap, abs=1e-9)
        assert replay < -FAST.violation_tol

    def test_equal_capacity_violation_keeps_both_witnesses(self):
        # two partitions of a 4-letter alphabet resolve different bits, so
        # neither channel is more capable, while both capacities equal 1
        x = Alphabet.of_size(4)
        low = Channel(x, Alphabet(("l0", "l1")), np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        ))
        high = Channel(x, Alphabet(("h0", "h1")), np.array(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        ))
        v = decide_td_optimality(BroadcastPair(low, high), FAST)
        assert v.branch == EQUAL_CAPACITY_MORE_CAPABLE
        assert v.status == TD_NOT_OPTIMAL
        assert len(v.witnesses) == 2
        assert v.checks["more_capable_forward"].status == VIOLATED
        assert v.checks["more_capable_backward"].status == VIOLATED

    def test_swap_consistency(self):
        a = decide_td_optimality(BroadcastPair(make_bsc(0.1), make_bsc(0.3)), FAST)
        b = decide_td_optimality(BroadcastPair(make_bsc(0.3), make_bsc(0.1)), FAST)
        assert a.status == b.status
        assert not a.swapped
        assert b.swapped
        assert a.first_report.capacity == pytest.approx(b.second_report.capacity, abs=1e-12)

    def test_zero_capacity_rejected(self):
        bsc = make_bsc(0.2)
        dead = Channel(bsc.input, Alphabet(("y",)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="degenerate"):
            decide_td_optimality(BroadcastPair(bsc, dead), FAST)

    @pytest.mark.parametrize("cards", [(0, 2), (0, 2, 2), (2, 2, 2.5), (2, 2, 2, 2)])
    def test_malformed_cardinalities_rejected(self, cards):
        with pytest.raises(ValueError, match="cardinalities must be three counts >= 1"):
            decide_td_optimality(
                BroadcastPair(make_bsc(0.1), make_bsc(0.3)), RunConfig(cardinalities=cards)
            )

    def test_cardinalities_kept_as_plain_ints(self):
        cfg = RunConfig(cardinalities=[np.int64(3), 3, 2])
        assert cfg.cardinalities == (3, 3, 2)
        assert all(type(c) is int for c in cfg.cardinalities)

    def test_reserved_inconclusive_status_exists(self):
        assert INCONCLUSIVE == "INCONCLUSIVE"


class TestEvidenceMode:
    def test_optimal_pairs_show_no_violation(self):
        for pair in (
            BroadcastPair(make_bsc(0.11), make_bsc(0.11)),
            BroadcastPair(make_bec(0.1), make_bec(0.4)),
        ):
            ev = evidence(pair)
            assert ev.min_marton_slack >= -1e-6
            assert ev.violating_aux is None

    def test_identity_pair_corner_case(self):
        bsc = make_bsc(0.05)
        ident = Channel(bsc.input, bsc.input, np.eye(2))
        ev = evidence(BroadcastPair(bsc, ident))
        assert len(ev.marton.sample.points) > 0
        assert len(ev.uv.sample.points) > 0

    def test_sampling_is_reproducible(self):
        pair = BroadcastPair(make_bsc(0.1), make_bsc(0.3))
        a = evidence(pair)
        b = evidence(pair)
        assert a.min_marton_slack == b.min_marton_slack
        assert np.array_equal(a.uv.sample.points, b.uv.sample.points)


class TestSerialization:
    def test_dict_is_json_stable(self):
        pair = make_partition_pair(4, 2)
        a = decide_td_optimality(BroadcastPair(pair.first, pair.second), FAST)
        b = decide_td_optimality(BroadcastPair(pair.first, pair.second), FAST)
        assert json.dumps(verdict_to_dict(a), sort_keys=True) == json.dumps(
            verdict_to_dict(b), sort_keys=True
        )

    def test_document_fields(self):
        v = decide_td_optimality(BroadcastPair(make_bsc(0.11), make_bsc(0.11)), FAST)
        doc = verdict_to_dict(v)
        assert doc["status"] == TD_OPTIMAL
        assert doc["units"] == "bits"
        assert doc["channels"]["first"]["support_union"] == ["0", "1"]
        assert doc["channels"]["first"]["capacity"] == pytest.approx(
            1 - (-(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))), abs=1e-9
        )
        assert doc["config"]["seed"] == FAST.seed
        assert doc["checks"]["more_capable_forward"]["witness"] is None

    def test_nats_scale_capacities(self):
        cfg_bits = FAST
        cfg_nats = RunConfig(samples=200, starts=16, units="nats")
        pair = BroadcastPair(make_bsc(0.11), make_bsc(0.11))
        in_bits = verdict_to_dict(decide_td_optimality(pair, cfg_bits))
        in_nats = verdict_to_dict(decide_td_optimality(pair, cfg_nats))
        want = in_bits["channels"]["first"]["capacity"] * math.log(2.0)
        assert in_nats["channels"]["first"]["capacity"] == pytest.approx(want, abs=1e-9)

    def test_witness_vector_serialized(self):
        v = decide_td_optimality(merge_pair(), FAST)
        doc = verdict_to_dict(v)
        assert doc["witnesses"]
        vec = doc["witnesses"][0]
        assert sum(vec) == pytest.approx(1.0, abs=1e-9)
        assert doc["checks"]["ratio_condition"]["status"] == VIOLATED
