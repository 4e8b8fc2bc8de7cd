"""Output checks for each command kind.

Each check takes the command and what it produced and returns a list of
problems; an empty list means the output is correct. Expected values come
from `oracles` and from the closed forms the corpus records, never from a
stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import oracles

CAPACITY_TOL = 1e-8      # closed-form capacities against 12-digit reports
REPLAY_TOL = 1e-8        # witness replay against the reported gap
GRID_TOL = 1e-6          # search minimum against the binary grid minimum
START_TOL = 1e-9         # search minimum against the objective at a start point
CERTIFICATE_TOL = 1e-6   # I(p*;W) and max_x D(W_x||r*) against the capacity
RATE_TOL = 1e-9          # CSV rates are printed to 12 significant digits
SLACK_TOL = 1e-6         # time-division slack of an achievable point
TIMESHARE_PROBES = 11    # marton points come in corner pairs: probes + draws
UV_PROBES = 2
TD_POINTS = 101
SEEDED_INPUTS = 200

VIOLATED = "VIOLATED"
HOLDS = "HOLDS_UP_TO_SEARCH"


def _objective(kind: str, first, second, c1: float, c2: float):
    """Batch objective of one check over input distributions (rows)."""

    def info(points, spec):
        return oracles.mutual_information_batch(points, spec.rows)

    if kind == "forward":
        return lambda pts: info(pts, first) - info(pts, second)
    if kind == "backward":
        return lambda pts: info(pts, second) - info(pts, first)
    return lambda pts: info(pts, second) / c2 - info(pts, first) / c1


def _search_problems(name, status, gap, objective, pair, seed, violation_tol) -> list[str]:
    """Status and gap of one search check against the oracle objective."""
    problems = []
    n = len(pair.first.inputs)
    if pair.family in ("bsc", "bec"):
        values = objective(oracles.binary_grid())
        grid_min = float(values.min())
        grid_status = VIOLATED if grid_min < -violation_tol else HOLDS
        if status != grid_status:
            problems.append(f"{name}: status {status} but the grid minimum is {grid_min!r}")
        if gap > grid_min + GRID_TOL:
            problems.append(f"{name}: gap {gap!r} above the grid minimum {grid_min!r}")
    else:
        rng = np.random.default_rng([seed, 4, n])
        starts = np.vstack([np.full((1, n), 1.0 / n), np.eye(n),
                            rng.dirichlet(np.ones(n), size=SEEDED_INPUTS)])
        best = float(objective(starts).min())
        if gap > best + START_TOL:
            problems.append(f"{name}: gap {gap!r} above the objective {best!r} at a start point")
    if (status == VIOLATED) != (gap < -violation_tol):
        problems.append(f"{name}: status {status} does not match gap {gap!r}")
    return problems


def _replay_problems(name, witness, gap, objective, violation_tol) -> list[str]:
    if witness is None:
        return [f"{name}: VIOLATED without a witness"]
    replay = float(objective(np.asarray([witness]))[0])
    problems = []
    if not replay < -violation_tol:
        problems.append(f"{name}: witness replays to {replay!r}, not a violation")
    if abs(replay - gap) > REPLAY_TOL:
        problems.append(f"{name}: witness replays to {replay!r}, reported gap {gap!r}")
    return problems


def _capacity_problems(side: str, reported: float, spec) -> list[str]:
    if abs(reported - spec.capacity) > CAPACITY_TOL:
        return [f"{side} capacity {reported!r}, closed form {spec.capacity!r}"]
    return []


def check_verdict_search(cmd, text: str, data: bytes, seed: int) -> list[str]:
    doc = json.loads(data)
    pair = cmd.pair
    problems = []
    for side, spec in (("first", pair.first), ("second", pair.second)):
        rep = doc["channels"][side]
        problems += _capacity_problems(side, rep["capacity"], spec)
        if set(rep["support_union"]) != set(spec.inputs):
            problems.append(f"{side} support union {rep['support_union']} misses inputs")
    c1, c2 = pair.first.capacity, pair.second.capacity
    swapped = doc["swapped"]
    # equal capacities may be ordered either way by the last bit
    if abs(c1 - c2) > CAPACITY_TOL and swapped != (c2 > c1):
        problems.append(f"swapped is {swapped}, capacities {c1!r} / {c2!r}")
    strong, weak = (pair.second, pair.first) if swapped else (pair.first, pair.second)
    c_strong, c_weak = (c2, c1) if swapped else (c1, c2)
    cfg = doc["config"]
    vt = cfg["violation_tol"]
    gap_branch = c_strong - c_weak > cfg["cap_eq_tol"]
    expected_checks = ({"ratio_condition"} if gap_branch
                       else {"more_capable_forward", "more_capable_backward"})
    if set(doc["checks"]) != expected_checks:
        return problems + [f"checks {sorted(doc['checks'])}, expected {sorted(expected_checks)}"]

    kinds = {"ratio_condition": "ratio", "more_capable_forward": "forward",
             "more_capable_backward": "backward"}
    witnesses = []
    for name, check in doc["checks"].items():
        objective = _objective(kinds[name], strong, weak, c_strong, c_weak)
        problems += _search_problems(name, check["status"], check["gap"], objective,
                                     pair, seed, vt)
        if check["status"] == VIOLATED:
            problems += _replay_problems(name, check["witness"], check["gap"], objective, vt)
            witnesses.append(check["witness"])
    statuses = [c["status"] for c in doc["checks"].values()]
    optimal = HOLDS in statuses
    if doc["status"] != ("TD_OPTIMAL" if optimal else "TD_NOT_OPTIMAL"):
        problems.append(f"status {doc['status']} with check statuses {statuses}")
    if doc["witnesses"] != ([] if optimal else witnesses):
        problems.append("witnesses do not match the violated checks")
    return problems


_CHECK_LINE = re.compile(r"^  (more_capable first>=second|more_capable second>=first|"
                         r"ratio_condition|divergence_form): (\S+) gap=(\S+)$", re.M)


def check_analyze(cmd, text: str, data: bytes, seed: int) -> list[str]:
    doc = json.loads(data)
    pair = cmd.pair
    problems = []
    for side, spec in (("first", pair.first), ("second", pair.second)):
        problems += _capacity_problems(side, doc[side]["capacity"], spec)
    lines = {name: (status, float(gap)) for name, status, gap in _CHECK_LINE.findall(text)}
    if len(lines) != 4:
        return problems + [f"report has check lines for {sorted(lines)}"]
    c1, c2 = pair.first.capacity, pair.second.capacity
    vt = 1e-7  # the report header echoes it; the default is in force
    if f"violation_tol={vt:g}" not in text:
        problems.append("report ran with a non-default violation tolerance")
    roles = (("more_capable first>=second", "more_capable_forward", "forward"),
             ("more_capable second>=first", "more_capable_backward", "backward"),
             ("ratio_condition", "ratio_condition", "ratio"),
             # with full support unions its objective equals the ratio form pointwise
             ("divergence_form", None, "ratio"))
    for line, key, kind in roles:
        status, gap = lines[line]
        objective = _objective(kind, pair.first, pair.second, c1, c2)
        problems += _search_problems(line, status, gap, objective, pair, seed, vt)
        if key is not None and doc["checks"].get(key) != status:
            problems.append(f"JSON {key} is {doc['checks'].get(key)}, report says {status}")
    if lines["divergence_form"][0] != lines["ratio_condition"][0]:
        problems.append("divergence form and ratio condition disagree on a full-support pair")
    return problems


def check_verdict_partition(cmd, text: str, data: bytes, seed: int) -> list[str]:
    doc = json.loads(data)
    pair = cmd.pair
    c1, c2 = pair.first.capacity, pair.second.capacity
    problems = []
    if doc["status"] != "ASSUMPTION_VIOLATED" or doc["checks"]:
        problems.append(f"status {doc['status']} with checks {sorted(doc['checks'])}")
    for side, spec in (("first", pair.first), ("second", pair.second)):
        rep = doc["channels"][side]
        problems += _capacity_problems(side, rep["capacity"], spec)
        if set(rep["support_union"]) != spec.block:
            problems.append(f"{side} support union {rep['support_union']}, block {sorted(spec.block)}")
    ev = doc["evidence"]
    samples = doc["config"]["samples"]
    if ev["marton"]["points"] != 2 * (TIMESHARE_PROBES + samples):
        problems.append(f"{ev['marton']['points']} marton points for {samples} samples")
    if ev["uv"]["points"] != 2 * (UV_PROBES + samples):
        problems.append(f"{ev['uv']['points']} uv points for {samples} samples")
    if ev["marton"]["min_td_slack"] < -SLACK_TOL:
        problems.append(f"marton slack {ev['marton']['min_td_slack']!r} below the TD line")
    worst = ev["marton"]["worst_point"]
    if worst is None or not (-RATE_TOL <= worst[0] <= c1 + RATE_TOL
                             and -RATE_TOL <= worst[1] <= c2 + RATE_TOL):
        problems.append(f"marton worst point {worst} outside the capacity box")
    return problems


def check_region(cmd, text: str, data: bytes, seed: int) -> list[str]:
    pair = cmd.pair
    c1, c2 = pair.first.capacity, pair.second.capacity
    lines = data.decode("utf-8").splitlines()
    problems = []
    if lines[0] != "source,R1,R2":
        return [f"CSV header {lines[0]!r}"]
    points = {"MARTON": [], "UV": [], "TD": []}
    for line in lines[1:]:
        source, r1, r2 = line.split(",")
        points[source].append((float(r1), float(r2)))
    expected = {"MARTON": 2 * (TIMESHARE_PROBES + cmd.samples),
                "UV": 2 * (UV_PROBES + cmd.samples), "TD": TD_POINTS}
    for source, count in expected.items():
        if len(points[source]) != count:
            problems.append(f"{len(points[source])} {source} rows, expected {count}")
    for source in ("MARTON", "UV"):
        pts = np.asarray(points[source])
        outside = ((pts < -RATE_TOL) | (pts > np.array([c1, c2]) + RATE_TOL)).any(axis=1)
        if outside.any():
            problems.append(f"{int(outside.sum())} {source} points outside [0, C1] x [0, C2]")
    marton = np.asarray(points["MARTON"])
    for corner in ((c1, 0.0), (0.0, c2)):
        if not (np.abs(marton - corner).max(axis=1) <= RATE_TOL).any():
            problems.append(f"no MARTON point at the single-user corner {corner}")
    if pair.family == "partition":
        slack = 1.0 - marton[:, 0] / c1 - marton[:, 1] / c2
        if slack.min() < -SLACK_TOL:
            problems.append(f"MARTON point with time-division slack {float(slack.min())!r}")
    td = np.asarray(points["TD"])
    if (np.abs(td[0] - (c1, 0.0)).max() > RATE_TOL or np.abs(td[-1] - (0.0, c2)).max() > RATE_TOL
            or np.abs(td[:, 0] / c1 + td[:, 1] / c2 - 1.0).max() > RATE_TOL):
        problems.append("TD boundary does not run from (C1, 0) to (0, C2) along the line")
    return problems


def check_capacity(cmd, text: str, data: bytes, seed: int) -> list[str]:
    doc = json.loads(data)
    spec = cmd.channel
    rows = spec.rows
    cap, bracket = doc["capacity"], doc["bracket"]
    p_star = np.asarray(doc["achieving_input"])
    r_star = np.asarray(doc["optimal_output"])
    problems = []
    rate = oracles.mutual_information(p_star, rows)
    profile = oracles.divergence_profile(rows, r_star)
    if abs(rate - cap) > CERTIFICATE_TOL:
        problems.append(f"I(p*;W) = {rate!r}, capacity {cap!r}")
    if abs(float(profile.max()) - cap) > CERTIFICATE_TOL:
        problems.append(f"max_x D(W_x||r*) = {float(profile.max())!r}, capacity {cap!r}")
    if cap > math.log2(min(rows.shape)) + 1e-12:
        problems.append(f"capacity {cap!r} above log2 min(|X|, |Y|)")
    if np.abs(np.asarray(doc["divergence_profile"]) - profile).max() > RATE_TOL:
        problems.append("reported divergence profile differs from the oracle's")
    index = {s: i for i, s in enumerate(spec.inputs)}
    peak = {index[s] for s in doc["peak_set"]}
    must, may = oracles.peak_set(profile, cap, bracket)
    if not must <= peak <= may:
        problems.append(f"peak set {sorted(peak)}, oracle {sorted(must)} .. {sorted(may)}")
    try:
        union = oracles.support_union(rows, sorted(peak), r_star)
    except ValueError as exc:
        return problems + [str(exc)]
    if {index[s] for s in doc["support_union"]} != set(union):
        problems.append(f"support union {doc['support_union']}, linprog {union}")
    return problems


def checker(cmd):
    """The check that applies to a command's output."""
    if cmd.kind == "capacity":
        return check_capacity
    if cmd.kind == "region":
        return check_region
    if cmd.kind == "analyze":
        return check_analyze
    if cmd.pair.family == "partition":
        return check_verdict_partition
    return check_verdict_search
