"""Decision procedure: branch selection, certificates, evidence fallback,
and serialization."""

import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_identity, stochastic
from tdopt.bounds import SampleReport
from tdopt.capacity import analyze_channel
from tdopt.cli import load_channel, save_channel, verdict_to_dict
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
)

FAST = RunConfig(samples=200, starts=16)


def evidence(pair):
    return evidence_mode(analyze_channel(pair.first), analyze_channel(pair.second), FAST)


def merge_pair():
    ident = make_identity(4)
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    return BroadcastPair(ident, Channel(ident.input, Alphabet(("m0", "m1")), rows))


def low_high_pair():
    """Two partitions of a 4-letter alphabet that resolve different bits."""
    x = Alphabet.of_size(4)
    low = Channel(x, Alphabet(("l0", "l1")), np.array(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    ))
    high = Channel(x, Alphabet(("h0", "h1")), np.array(
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    ))
    return BroadcastPair(low, high)


def docs_in_bits_and_nats(pair):
    return tuple(
        verdict_to_dict(decide_td_optimality(pair, dataclasses.replace(FAST, units=units)))
        for units in ("bits", "nats")
    )


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
        assert v.evidence.marton.min_slack >= -1e-9
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

    @pytest.mark.parametrize(
        "ch1, ch2, golden",
        [
            (make_bsc(0.1), make_bsc(0.3), ("-0x1.04022285deaf8p-5", 68, 4006)),
            (make_bec(0.2), make_bec(0.5), ("-0x1.0000000000000p-51", 68, 1272)),
        ],
        ids=["bsc-0.1-0.3", "bec-0.2-0.5"],
    )
    def test_ratio_search_golden(self, ch1, ch2, golden):
        # the search's gap to the last bit, its start count and its
        # evaluation count at the default configuration: any change in how
        # the starts descend shows here
        check = decide_td_optimality(BroadcastPair(ch1, ch2)).checks["ratio_condition"]
        assert (check.gap.hex(), check.starts, check.evaluations) == golden

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
        v = decide_td_optimality(low_high_pair(), FAST)
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

    @pytest.mark.parametrize("cards", [(0, 2), (0, 2, 2), (2, 2, 2.5), (2, 2, 2, 2), (True, 2, 2)])
    def test_malformed_cardinalities_rejected(self, cards):
        with pytest.raises(ValueError, match="cardinalities must be three counts >= 1"):
            decide_td_optimality(
                BroadcastPair(make_bsc(0.1), make_bsc(0.3)), RunConfig(cardinalities=cards)
            )

    @pytest.mark.parametrize("name, value", [
        ("tol", math.nan), ("peak_tol", math.inf), ("violation_tol", math.nan),
        ("cap_eq_tol", math.inf), ("seed", 0.5), ("starts", 1.5), ("samples", 2.5),
    ])
    def test_non_finite_tolerances_and_fractional_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            RunConfig(**{name: value})

    def test_cardinalities_kept_as_plain_ints(self):
        cfg = RunConfig(cardinalities=[np.int64(3), 3, 2])
        assert cfg.cardinalities == (3, 3, 2)
        assert all(type(c) is int for c in cfg.cardinalities)

    @pytest.mark.parametrize("name", ["seed", "starts", "samples"])
    def test_counts_kept_as_plain_ints(self, name):
        cfg = dataclasses.replace(FAST, **{name: np.int64(3)})
        assert getattr(cfg, name) == 3 and type(getattr(cfg, name)) is int
        verdict = decide_td_optimality(BroadcastPair(make_bsc(0.1), make_bsc(0.3)), cfg)
        assert json.loads(json.dumps(verdict_to_dict(verdict)))["config"][name] == 3

    @pytest.mark.parametrize("name", ["seed", "starts", "samples"])
    def test_bool_counts_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            RunConfig(**{name: True})

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be nonnegative"):
            RunConfig(seed=seed)

    def test_reserved_inconclusive_status_exists(self):
        assert INCONCLUSIVE == "INCONCLUSIVE"


class TestEvidenceMode:
    def test_optimal_pairs_show_no_violation(self):
        for pair in (
            BroadcastPair(make_bsc(0.11), make_bsc(0.11)),
            BroadcastPair(make_bec(0.1), make_bec(0.4)),
        ):
            ev = evidence(pair)
            assert ev.marton.min_slack >= -1e-6
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
        assert a.marton.min_slack == b.marton.min_slack
        assert np.array_equal(a.uv.sample.points, b.uv.sample.points)

    @pytest.mark.parametrize("slack, violating", [(-5e-9, False), (-5e-7, True)])
    def test_violation_judged_at_violation_tol(self, monkeypatch, slack, violating):
        # the same tolerance as a search margin: RunConfig.violation_tol (1e-7)
        aux = object()
        fake = SampleReport(sample=None, min_slack=slack, worst_point=None, worst_aux=aux)
        monkeypatch.setattr("tdopt.verdict.sample_marton", lambda *args: fake)
        ev = evidence(BroadcastPair(make_bsc(0.1), make_bsc(0.3)))
        assert (ev.violating_aux is aux) is violating


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

    def test_config_block_and_evidence_read_the_run_config(self):
        cfg = RunConfig(samples=40, starts=4, seed=5, cardinalities=(2, 3, 2))
        doc = verdict_to_dict(decide_td_optimality(make_partition_pair(4, 2), cfg))
        # every setting but the units, which the document carries at top level
        assert doc["config"] == {
            "tol": 1e-10, "peak_tol": 1e-6, "violation_tol": 1e-7, "cap_eq_tol": 1e-6,
            "seed": 5, "starts": 4, "samples": 40, "cardinalities": [2, 3, 2],
        }
        for side in ("marton", "uv"):
            assert doc["evidence"][side]["samples"] == 40
            assert doc["evidence"][side]["seed"] == 5
            assert doc["evidence"][side]["cardinalities"] == [2, 3, 2]

    def test_nats_scale_capacities(self):
        cfg_bits = FAST
        cfg_nats = RunConfig(samples=200, starts=16, units="nats")
        pair = BroadcastPair(make_bsc(0.11), make_bsc(0.11))
        in_bits = verdict_to_dict(decide_td_optimality(pair, cfg_bits))
        in_nats = verdict_to_dict(decide_td_optimality(pair, cfg_nats))
        want = in_bits["channels"]["first"]["capacity"] * math.log(2.0)
        assert in_nats["channels"]["first"]["capacity"] == pytest.approx(want, abs=1e-9)

    def test_nats_leave_the_ratio_gap_unitless(self):
        in_bits, in_nats = docs_in_bits_and_nats(BroadcastPair(make_bsc(0.1), make_bsc(0.3)))
        assert in_nats["branch"] == CAPACITY_GAP_RATIO
        assert in_nats["checks"] == in_bits["checks"]
        assert in_nats["checks"]["ratio_condition"]["gap"] == pytest.approx(-0.0317392992283, abs=1e-11)

    def test_nats_scale_the_more_capable_gaps(self):
        in_bits, in_nats = docs_in_bits_and_nats(low_high_pair())
        assert in_nats["branch"] == EQUAL_CAPACITY_MORE_CAPABLE
        for name, bits in in_bits["checks"].items():
            nats = in_nats["checks"][name]
            assert bits["gap"] < 0.0
            assert nats["gap"] == pytest.approx(bits["gap"] * math.log(2.0), rel=1e-11)
            assert {**nats, "gap": None} == {**bits, "gap": None}

    def test_witness_vector_serialized(self):
        v = decide_td_optimality(merge_pair(), FAST)
        doc = verdict_to_dict(v)
        assert doc["witnesses"]
        vec = doc["witnesses"][0]
        assert sum(vec) == pytest.approx(1.0, abs=1e-9)
        assert doc["checks"]["ratio_condition"]["status"] == VIOLATED


INVARIANCE = RunConfig(starts=8, samples=100)


@st.composite
def small_pairs(draw) -> BroadcastPair:
    """Pairs on 2 or 3 inputs from small integer weights, neither channel
    constant. The second channel is drawn afresh, a copy of the first (an
    exact capacity tie) or the first with its outputs reversed (equal
    capacities up to rounding), so both theorem branches come up."""
    nx = draw(st.integers(2, 3))

    def rows():
        return stochastic(nx, draw(st.integers(2, 3))).filter(lambda r: np.any(r != r[0]))

    first = draw(rows())
    second = draw(st.one_of(rows(), st.just(first), st.just(first[:, ::-1].copy())))
    x = Alphabet.of_size(nx)
    return BroadcastPair(
        Channel(x, Alphabet.of_size(first.shape[1], "y"), first),
        Channel(x, Alphabet.of_size(second.shape[1], "z"), second),
    )


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def check_bits(checks) -> dict:
    return {
        name: (c.status, bits(c.gap), None if c.witness is None else bits(c.witness.probs),
               c.starts, c.evaluations)
        for name, c in checks.items()
    }


def verdict_bits(v) -> tuple:
    """Everything a verdict decides or reports, except its config, with every
    real as its bytes: equal tuples are bit-identical verdicts."""
    reports = tuple(
        (bits(r.capacity), bits(r.achieving_input.probs), r.peak_set, r.support_union)
        for r in (v.first_report, v.second_report)
    )
    evidence = None if v.evidence is None else tuple(
        (bits(side.min_slack), bits(side.sample.points))
        for side in (v.evidence.marton, v.evidence.uv)
    )
    witnesses = [bits(w.probs) for w in v.witnesses]
    return v.status, v.branch, v.swapped, reports, check_bits(v.checks), witnesses, evidence


def reloaded(ch: Channel, directory: str, name: str) -> Channel:
    path = os.path.join(directory, f"{name}.json")
    save_channel(ch, path)
    return load_channel(path)


def reloaded_pair(pair: BroadcastPair) -> BroadcastPair:
    with tempfile.TemporaryDirectory() as directory:
        return BroadcastPair(
            reloaded(pair.first, directory, "first"), reloaded(pair.second, directory, "second")
        )


def relabelled(ch: Channel, in_perm, out_perm) -> Channel:
    return Channel(
        Alphabet(tuple(ch.input.symbols[i] for i in in_perm)),
        Alphabet(tuple(ch.output.symbols[j] for j in out_perm)),
        ch.rows[np.ix_(in_perm, out_perm)],
    )


def clear_of_boundaries(v) -> bool:
    """No check gap between -1e-4 and -1e-9, where a budgeted search may or
    may not reach a violation beyond violation_tol, and a capacity
    difference more than 1e-9 away from cap_eq_tol, where rounding could pick
    the other branch."""
    gaps_clear = all(not -1e-4 < c.gap < -1e-9 for c in v.checks.values())
    difference = abs(v.first_report.capacity - v.second_report.capacity)
    return gaps_clear and abs(difference - v.config.cap_eq_tol) > 1e-9


class TestInvariance:
    """Properties of the whole verdict over small pairs (ROADMAP: swapping the
    pair, bits vs nats, save/load, and relabelling symbols)."""

    @settings(max_examples=15, deadline=None)
    @given(small_pairs())
    def test_swapping_the_pair(self, pair):
        v = decide_td_optimality(pair, INVARIANCE)
        w = decide_td_optimality(BroadcastPair(pair.second, pair.first), INVARIANCE)
        assert (w.status, w.branch) == (v.status, v.branch)
        checks, witnesses = dict(w.checks), w.witnesses
        tie = v.first_report.capacity == v.second_report.capacity
        if v.status == ASSUMPTION_VIOLATED or tie:
            # a failed assumption never orders the pair and an exact tie keeps
            # the caller's order, so `swapped` stays false; on a tie the two
            # more-capable directions trade places instead
            assert not v.swapped and not w.swapped
            if tie and v.status != ASSUMPTION_VIOLATED:
                checks = {"more_capable_forward": w.checks["more_capable_backward"],
                          "more_capable_backward": w.checks["more_capable_forward"]}
                witnesses = witnesses[::-1]
        else:
            assert w.swapped is not v.swapped
        assert check_bits(checks) == check_bits(v.checks)
        assert [bits(p.probs) for p in witnesses] == [bits(p.probs) for p in v.witnesses]

    @settings(max_examples=10, deadline=None)
    @given(small_pairs())
    def test_nats_change_only_the_units(self, pair):
        v = decide_td_optimality(pair, INVARIANCE)
        n = decide_td_optimality(pair, dataclasses.replace(INVARIANCE, units="nats"))
        assert n.config == dataclasses.replace(v.config, units="nats")
        assert verdict_bits(n) == verdict_bits(v)

    @settings(max_examples=10, deadline=None)
    @given(small_pairs())
    def test_channel_read_back_from_its_file_gives_the_same_verdict(self, pair):
        saved = reloaded_pair(pair)
        again = reloaded_pair(saved)
        assert verdict_bits(decide_td_optimality(again, INVARIANCE)) == verdict_bits(
            decide_td_optimality(saved, INVARIANCE)
        )

    @settings(max_examples=12, deadline=None)
    @given(small_pairs(), st.data())
    def test_relabelling_and_reloading_keep_status_and_branch(self, pair, data):
        in_perm = data.draw(st.permutations(range(len(pair.first.input))))
        relabelled_pair = BroadcastPair(*(
            relabelled(ch, in_perm, data.draw(st.permutations(range(len(ch.output)))))
            for ch in (pair.first, pair.second)
        ))
        verdicts = [decide_td_optimality(p, INVARIANCE)
                    for p in (pair, relabelled_pair, reloaded_pair(pair))]
        # examples on a search or branch boundary are dropped, see clear_of_boundaries
        assume(all(clear_of_boundaries(v) for v in verdicts))
        for v in verdicts[1:]:
            assert (v.status, v.branch) == (verdicts[0].status, verdicts[0].branch)
