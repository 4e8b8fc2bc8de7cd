"""Acceptance gate: ten end-to-end criteria at fixed tolerances.

Each criterion is one test; run `pytest tests/test_acceptance.py -v` for a
single pass/fail line per criterion. Every random corpus is seeded, so
failures reproduce exactly.
"""

import json
import time

import numpy as np
from conftest import h2, random_channel, random_joint

from tdopt import (
    Alphabet,
    Channel,
    Distribution,
    PerturbationProbe,
    RunConfig,
    analyze_channel,
    decide_td_optimality,
    divergence_form_check,
    kl_divergence,
    make_bec,
    make_bsc,
    make_partition_pair,
    more_capable_check,
    mutual_information,
    perturbation_identity_check,
    push_forward,
    ratio_condition_check,
    sample_marton,
    timeshare_construction,
    timeshare_identities,
)
from tdopt.cli import main as cli_main
from tdopt.comparison import VIOLATED
from tdopt.verdict import ASSUMPTION_VIOLATED, TD_OPTIMAL


def circulant_channel(rng, n: int, out_prefix: str = "y") -> Channel:
    """Each row is a cyclic shift of one strictly positive base row, so the
    uniform input is optimal, every row divergence equals the capacity, and
    the optimizer support covers the whole input alphabet."""
    base = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    rows = np.array([np.roll(base, i) for i in range(n)])
    return Channel(Alphabet.of_size(n), Alphabet.of_size(n, prefix=out_prefix), rows)


def entropy_rows(rows: np.ndarray) -> np.ndarray:
    safe = np.where(rows > 0.0, rows, 1.0)
    return -(rows * np.log2(safe)).sum(axis=1)


def binary_grid_information(rows: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """I(X;Y) for inputs Bern(delta), vectorized over the whole grid."""
    weights = np.column_stack([1.0 - deltas, deltas])
    outputs = weights @ rows
    safe = np.where(outputs > 0.0, outputs, 1.0)
    out_entropy = -(outputs * np.log2(safe)).sum(axis=1)
    return out_entropy - weights @ entropy_rows(rows)


def test_criterion_01_closed_form_capacities():
    cases = []
    for eps in (0.05, 0.11, 0.25, 0.45):
        cases.append((make_bsc(eps), 1.0 - h2(eps)))
    for e in (0.1, 0.4, 0.9):
        cases.append((make_bec(e), 1.0 - e))
    worst = 0.0
    for ch, expected in cases:
        start = time.perf_counter()
        rep = analyze_channel(ch)
        elapsed = time.perf_counter() - start
        worst = max(worst, abs(rep.capacity - expected))
        assert abs(rep.capacity - expected) <= 1e-6
        assert elapsed < 1.0
    print(f"criterion 1 PASS: 7 closed-form capacities, worst error {worst:.2e} bits")


def test_criterion_02_minimax_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 6))
        ch = random_channel(rng, nx, ny)
        rep = analyze_channel(ch)
        err = abs(float(rep.divergence_profile.max()) - rep.capacity)
        worst = max(worst, err)
        assert err <= 1e-5
    print(f"criterion 2 PASS: 20 channels, worst |max divergence - C| = {worst:.2e} bits")


def test_criterion_03_rate_plus_divergence_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (2, 3, 4, 5, 3):
        ch = circulant_channel(rng, n)
        rep = analyze_channel(ch)
        assert rep.support_union == ch.input.symbols  # corpus precondition
        for _ in range(100):
            p = Distribution(ch.input, rng.dirichlet(np.ones(n)))
            total = mutual_information(p, ch) + kl_divergence(
                push_forward(p, ch), rep.optimal_output
            )
            err = abs(total - rep.capacity)
            worst = max(worst, err)
            assert err <= 1e-6
    print(f"criterion 3 PASS: 5 channels x 100 inputs, worst identity error {worst:.2e} bits")


def test_criterion_04_partition_pair_goldens():
    pair = make_partition_pair(4, 2)
    rep1 = analyze_channel(pair.first)
    rep2 = analyze_channel(pair.second)
    assert abs(rep1.capacity - 2.0) <= 1e-9
    assert abs(rep2.capacity - 1.0) <= 1e-9
    assert rep1.support_union == ("a0", "a1", "a2", "a3")
    assert rep2.support_union == ("b0", "b1")

    ratio = ratio_condition_check(pair.first, pair.second, rep1.capacity, rep2.capacity)
    assert ratio.status == VIOLATED
    assert ratio.gap <= -0.9
    # gap convention: normalized second-channel rate minus normalized first
    replay = (
        mutual_information(ratio.witness, pair.second) / rep2.capacity
        - mutual_information(ratio.witness, pair.first) / rep1.capacity
    )
    assert abs(replay - ratio.gap) <= 1e-9

    forward = more_capable_check(pair.first, pair.second)
    backward = more_capable_check(pair.second, pair.first)
    assert forward.status == VIOLATED
    assert backward.status == VIOLATED

    verdict = decide_td_optimality(pair, RunConfig(samples=200))
    assert verdict.status == ASSUMPTION_VIOLATED
    print(
        f"criterion 4 PASS: C1={rep1.capacity:.12f}, C2={rep2.capacity:.12f}, "
        f"ratio gap {ratio.gap:.4f}, both orderings refuted, status {verdict.status}"
    )


def test_criterion_05_timeshare_construction_identities():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        nx = int(rng.integers(2, 5))
        x = Alphabet.of_size(nx)
        ch1 = random_channel(rng, nx, int(rng.integers(2, 5)))
        ch2 = random_channel(rng, nx, int(rng.integers(2, 5)), out_prefix="z")
        first_plan = random_joint(rng, (x, Alphabet.of_size(int(rng.integers(1, 4)), "u")))
        second_plan = random_joint(rng, (x, Alphabet.of_size(int(rng.integers(1, 4)), "v")))
        lam = float(rng.uniform())
        tc = timeshare_construction(first_plan, second_plan, lam)
        identities = timeshare_identities(tc, ch1, ch2)
        cross_lhs, cross_rhs = identities.pop("aux_cross_information")
        assert cross_lhs == 0.0 and cross_rhs == 0.0
        for lhs, rhs in identities.values():
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-9
    print(f"criterion 5 PASS: 50 triples, worst identity error {worst:.2e} bits, cross term 0 exactly")


def test_criterion_06_perturbation_identity():
    rng = np.random.default_rng(2026)
    epsilons = (1e-2, 1e-3, 1e-4)
    worst_final, worst_expo = 0.0, np.inf
    for _ in range(10):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        rows = 0.5 * rng.dirichlet(np.ones(ny), size=nx) + 0.5 / ny
        ch = Channel(Alphabet.of_size(nx), Alphabet.of_size(ny, prefix="y"), rows)
        base = Distribution(ch.input, rng.dirichlet(np.ones(nx)))
        mixing = Distribution(ch.input, 0.5 * rng.dirichlet(np.ones(nx)) + 0.5 * base.probs)
        res = perturbation_identity_check(PerturbationProbe(base, mixing, epsilons), ch)
        slope_errors = np.abs(np.asarray(res.slopes) - res.divergence)
        assert np.all(np.diff(slope_errors) < 0.0)  # shrinks with epsilon
        assert res.remainder_exponent >= 1.8
        assert slope_errors[-1] <= 1e-5
        worst_final = max(worst_final, float(slope_errors[-1]))
        worst_expo = min(worst_expo, res.remainder_exponent)
    print(
        f"criterion 6 PASS: 10 triples, worst final error {worst_final:.2e} bits, "
        f"smallest remainder exponent {worst_expo:.3f}"
    )


def test_criterion_07_binary_grid_oracle():
    rng = np.random.default_rng(77)
    deltas = np.arange(0.0, 1.0 + 5e-5, 1e-4)
    checked = 0
    while checked < 10:
        ny = int(rng.integers(2, 5))
        nz = int(rng.integers(2, 5))
        ch1 = random_channel(rng, 2, ny)
        ch2 = random_channel(rng, 2, nz, out_prefix="z")
        c1 = analyze_channel(ch1).capacity
        c2 = analyze_channel(ch2).capacity
        if min(c1, c2) < 1e-3:  # ratio check needs clearly positive capacities
            continue
        checked += 1
        info1 = binary_grid_information(ch1.rows, deltas)
        info2 = binary_grid_information(ch2.rows, deltas)
        for check, grid in (
            (more_capable_check(ch1, ch2), info1 - info2),
            (ratio_condition_check(ch1, ch2, c1, c2), info2 / c2 - info1 / c1),
        ):
            grid_min = float(grid.min())
            assert (check.status == VIOLATED) == (grid_min < -1e-7)
            assert check.gap <= grid_min + 1e-6
    print(f"criterion 7 PASS: 10 binary pairs, statuses match the 10001-point grid oracle")


def test_criterion_08_ratio_divergence_equivalence():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        ch1 = circulant_channel(rng, n)
        ch2 = circulant_channel(rng, n, out_prefix="z")
        rep1 = analyze_channel(ch1)
        rep2 = analyze_channel(ch2)
        assert rep1.support_union == ch1.input.symbols
        assert rep2.support_union == ch2.input.symbols
        ratio = ratio_condition_check(ch1, ch2, rep1.capacity, rep2.capacity)
        div = divergence_form_check(rep1, rep2)
        assert ratio.status == div.status
        worst = max(worst, abs(ratio.gap - div.gap))
        assert abs(ratio.gap - div.gap) <= 1e-6
    print(f"criterion 8 PASS: 10 full-support pairs, worst gap disagreement {worst:.2e} bits")


def test_criterion_09_no_false_violations():
    optimal_pairs = [
        ("identical BSC(0.11)", make_bsc(0.11), make_bsc(0.11)),
        ("equal-capacity BSC(0.11)/BSC(0.89)", make_bsc(0.11), make_bsc(0.89)),
        ("BEC(0.1)/BEC(0.4)", make_bec(0.1), make_bec(0.4)),
    ]
    from tdopt import BroadcastPair

    sampling = RunConfig(samples=10_000, seed=909)
    overall = np.inf
    for label, ch1, ch2 in optimal_pairs:
        verdict = decide_td_optimality(BroadcastPair(ch1, ch2), RunConfig(samples=0))
        assert verdict.status == TD_OPTIMAL, label
        report = sample_marton(analyze_channel(ch1), analyze_channel(ch2), sampling)
        overall = min(overall, report.min_slack)
        assert report.min_slack >= -1e-6, label

    partition = make_partition_pair(4, 2)
    report = sample_marton(
        analyze_channel(partition.first),
        analyze_channel(partition.second),
        sampling,
    )
    overall = min(overall, report.min_slack)
    assert report.min_slack >= -1e-6
    print(f"criterion 9 PASS: 4 pairs x 10000 samples + probes, min TD slack {overall:.2e}")


def test_criterion_10_byte_identical_reruns(tmp_path):
    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    assert cli_main(["example-gen", "bsc", "0.1", "--out", str(b1)]) == 0
    assert cli_main(["example-gen", "bsc", "0.3", "--out", str(b2)]) == 0

    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for dest in (v1, v2):
        assert cli_main(["verdict", str(b1), str(b2), "--seed", "5", "--json", str(dest)]) == 0
    assert v1.read_bytes() == v2.read_bytes()
    assert json.loads(v1.read_text())["status"] == "TD_NOT_OPTIMAL"

    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for dest in (r1, r2):
        assert cli_main(
            ["region", str(b1), str(b2), "--seed", "5", "--samples", "500", "--out", str(dest)]
        ) == 0
    assert r1.read_bytes() == r2.read_bytes()
    print(
        f"criterion 10 PASS: verdict JSON ({v1.stat().st_size} bytes) and region CSV "
        f"({r1.stat().st_size} bytes) byte-identical across reruns"
    )
