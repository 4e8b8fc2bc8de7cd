"""Pins the benchmark's oracles to closed forms, so that the checks built on
them are themselves checked. Run from the repository root:

    python3 -m pytest tdbench
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import checks
import corpus
import oracles


def bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def bec(e):
    return np.array([[1.0 - e, e, 0.0], [0.0, e, 1.0 - e]])


def circulant(row):
    return np.array([np.roll(row, i) for i in range(len(row))])


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5])
def test_bsc_information_at_uniform_input_is_capacity(p):
    assert oracles.mutual_information([0.5, 0.5], bsc(p)) == pytest.approx(1.0 - oracles.h2(p), abs=1e-14)
    assert oracles.bsc_capacity(p) == pytest.approx(1.0 - oracles.h2(p), abs=0.0)


@pytest.mark.parametrize("e,t", [(0.2, 0.5), (0.5, 0.3), (0.9, 0.8)])
def test_bec_information_is_unerased_share_of_input_entropy(e, t):
    assert oracles.mutual_information([t, 1.0 - t], bec(e)) == pytest.approx((1.0 - e) * oracles.h2(t), abs=1e-14)
    assert oracles.mutual_information([0.5, 0.5], bec(e)) == pytest.approx(oracles.bec_capacity(e), abs=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_circulant_capacity_is_attained_at_uniform_input_and_not_exceeded(n):
    rng = np.random.default_rng(n)
    row = rng.dirichlet(np.ones(n))
    rows = circulant(row)
    cap = oracles.circulant_capacity(row)
    assert cap == pytest.approx(math.log2(n) - oracles.entropy(row), abs=0.0)
    assert oracles.mutual_information(np.full(n, 1.0 / n), rows) == pytest.approx(cap, abs=1e-13)
    inputs = rng.dirichlet(np.ones(n), size=500)
    assert oracles.mutual_information_batch(inputs, rows).max() <= cap + 1e-13


def test_batch_information_matches_the_double_sum():
    rng = np.random.default_rng(7)
    rows = rng.dirichlet(np.full(5, 0.4), size=4)
    rows[1, 2] = 0.0
    rows[1] /= rows[1].sum()
    inputs = rng.dirichlet(np.ones(4), size=20)
    inputs[0] = [0.0, 1.0, 0.0, 0.0]
    batch = oracles.mutual_information_batch(inputs, rows)
    for p, value in zip(inputs, batch):
        assert value == pytest.approx(oracles.mutual_information(p, rows), abs=1e-13)


def test_divergence_profile_of_bsc_and_bec_at_their_optimal_outputs():
    profile = oracles.divergence_profile(bsc(0.1), [0.5, 0.5])
    assert profile == pytest.approx([oracles.bsc_capacity(0.1)] * 2, abs=1e-14)
    e = 0.3
    profile = oracles.divergence_profile(bec(e), [(1 - e) / 2, e, (1 - e) / 2])
    assert profile == pytest.approx([1.0 - e] * 2, abs=1e-14)


def test_divergence_is_infinite_when_the_reference_misses_an_output():
    profile = oracles.divergence_profile(bec(0.3), [0.5, 0.0, 0.5])
    assert np.isinf(profile).all()


def test_binary_grid_sweeps_both_vertices():
    grid = oracles.binary_grid()
    assert grid.shape == (10_001, 2)
    assert grid[0].tolist() == [0.0, 1.0] and grid[-1].tolist() == [1.0, 0.0]
    assert np.allclose(grid.sum(axis=1), 1.0)


def test_ratio_objective_of_a_bec_pair_vanishes_on_the_grid():
    # I(X;Y)/C is h2(t) for every erasure channel, so the ratio form is 0
    grid = oracles.binary_grid()
    c1, c2 = oracles.bec_capacity(0.2), oracles.bec_capacity(0.5)
    values = (oracles.mutual_information_batch(grid, bec(0.5)) / c2
              - oracles.mutual_information_batch(grid, bec(0.2)) / c1)
    assert np.abs(values).max() < 1e-14


def test_ratio_objective_of_a_bsc_gap_pair_dips_below_zero_inside():
    grid = oracles.binary_grid()
    c1, c2 = oracles.bsc_capacity(0.1), oracles.bsc_capacity(0.3)
    values = (oracles.mutual_information_batch(grid, bsc(0.3)) / c2
              - oracles.mutual_information_batch(grid, bsc(0.1)) / c1)
    assert values[0] == values[-1] == 0.0
    assert values[5000] == pytest.approx(0.0, abs=1e-14)
    assert values.min() < -0.01


def test_peak_set_rule_and_its_undecidable_band():
    profile = [1.0, 1.0 - 5e-7, 1.0 - 1e-6, 0.9]
    must, may = oracles.peak_set(profile, capacity=1.0, bracket=1e-12)
    assert must == {0, 1} and may == {0, 1, 2}
    must, may = oracles.peak_set(profile, capacity=1.0, bracket=1e-6)  # 10x bracket wins
    assert must == may == {0, 1, 2}


@pytest.mark.parametrize("a,b", [(3, 2), (4, 2), (4, 3)])
def test_linprog_support_union_of_partition_pairs_is_the_resolved_block(a, b):
    first, second = corpus._partition(a, b)
    for spec, size in ((first, a), (second, b)):
        ref = np.zeros(size) + 1.0 / size
        profile = oracles.divergence_profile(spec.rows, ref)
        must, may = oracles.peak_set(profile, math.log2(size), 0.0)
        assert must == may
        union = oracles.support_union(spec.rows, sorted(must), ref)
        assert {spec.inputs[x] for x in union} == spec.block


def test_linprog_support_union_of_circulant_is_everything():
    rows = circulant(np.array([0.6, 0.3, 0.1]))
    assert oracles.support_union(rows, [0, 1, 2], np.full(3, 1.0 / 3)) == [0, 1, 2]


def _bsc_capacity_doc(p):
    cap = oracles.bsc_capacity(p)
    return {"capacity": cap, "bracket": 1e-11, "achieving_input": [0.5, 0.5],
            "optimal_output": [0.5, 0.5], "divergence_profile": [cap, cap],
            "peak_set": ["0", "1"], "support_union": ["0", "1"]}


def test_capacity_check_accepts_a_true_certificate_and_rejects_false_ones():
    spec = corpus._bsc(0.1)
    cmd = corpus.Command("capacity bsc", "capacity", [], "", channel=spec)
    doc = _bsc_capacity_doc(0.1)
    assert checks.check_capacity(cmd, "", json.dumps(doc).encode(), 0) == []
    for field, value in (("capacity", doc["capacity"] + 1e-4),
                         ("achieving_input", [0.6, 0.4]),
                         ("peak_set", ["0"]),
                         ("support_union", ["1"])):
        bad = dict(doc, **{field: value})
        assert checks.check_capacity(cmd, "", json.dumps(bad).encode(), 0), field
