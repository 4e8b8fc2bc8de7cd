"""The command corpus of each workload, built from the run seed.

Channel matrices come from closed-form families or from draws fixed by
CIRCULANT_SEED and CAPACITY_SEED, so that every run seed does the same work:
the solvers' cost varies several-fold from one random draw to the next, which
would swamp the run-to-run spread the benchmark measures. The run seed is
passed to every command as --seed (search starts, auxiliary draws) and, in
the pair workloads, orders the input and output symbols of each channel, a
relabelling that leaves every information quantity unchanged. The capacity
corpus keeps one symbol order: the support-union LP pivots by smallest index,
and reordering the symbols of its channels moves its pivot count by up to 15%.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from oracles import bec_capacity, bsc_capacity, circulant_capacity

# fix the circulant rows and the random capacity channels
CIRCULANT_SEED = 2
CAPACITY_SEED = 1605

# verdict runs at the program's default sample count; region at this one
REGION_SAMPLES = 500


@dataclass
class ChannelSpec:
    name: str
    inputs: list[str]
    outputs: list[str]
    rows: np.ndarray
    capacity: float | None = None        # closed form, when the family has one
    block: frozenset[str] | None = None  # partition pairs: the inputs this channel resolves
    path: str = ""


@dataclass
class Pair:
    name: str
    family: str  # bsc, bec, circulant or partition
    first: ChannelSpec
    second: ChannelSpec


@dataclass
class Command:
    label: str
    kind: str       # verdict, analyze, region or capacity
    argv: list[str]
    out_path: str   # the JSON or CSV file the command writes
    pair: Pair | None = None
    channel: ChannelSpec | None = None
    samples: int | None = None


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _bsc(p: float) -> ChannelSpec:
    rows = np.array([[1.0 - p, p], [p, 1.0 - p]])
    return ChannelSpec(f"bsc{p:g}", ["0", "1"], ["0", "1"], rows, bsc_capacity(p))


def _bec(e: float) -> ChannelSpec:
    rows = np.array([[1.0 - e, e, 0.0], [0.0, e, 1.0 - e]])
    return ChannelSpec(f"bec{e:g}", ["0", "1"], ["0", "e", "1"], rows, bec_capacity(e))


def _circulant(name: str, row: np.ndarray) -> ChannelSpec:
    n = len(row)
    rows = np.array([np.roll(row, i) for i in range(n)])
    return ChannelSpec(name, _labels("x", n), _labels("y", n), rows, circulant_capacity(row))


def _partition(a: int, b: int) -> tuple[ChannelSpec, ChannelSpec]:
    """Inputs a0.. and b0..; the first channel passes block A verbatim and
    turns block B into uniform noise, the second the other way round."""
    inputs = _labels("a", a) + _labels("b", b)
    rows_y = np.vstack([np.eye(a), np.full((b, a), 1.0 / a)])
    rows_z = np.vstack([np.full((a, b), 1.0 / b), np.eye(b)])
    first = ChannelSpec(f"part{a}{b}.y", inputs, _labels("a", a), rows_y,
                        float(np.log2(a)), frozenset(_labels("a", a)))
    second = ChannelSpec(f"part{a}{b}.z", inputs, _labels("b", b), rows_z,
                         float(np.log2(b)), frozenset(_labels("b", b)))
    return first, second


def _reorder(spec: ChannelSpec, in_perm, out_perm) -> ChannelSpec:
    return ChannelSpec(
        spec.name,
        [spec.inputs[i] for i in in_perm],
        [spec.outputs[j] for j in out_perm],
        spec.rows[np.ix_(in_perm, out_perm)],
        spec.capacity,
        spec.block,
    )


def _write_channel(spec: ChannelSpec, workdir: str):
    spec.path = os.path.join(workdir, f"{spec.name}.json")
    doc = {"input": spec.inputs, "output": spec.outputs, "matrix": spec.rows.tolist()}
    with open(spec.path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _pair(rng, workdir: str, name: str, family: str, first: ChannelSpec, second: ChannelSpec) -> Pair:
    """The pair with its symbols reordered by `rng`, written to `workdir`."""
    in_perm = rng.permutation(len(first.inputs))
    pair = Pair(
        name,
        family,
        _reorder(first, in_perm, rng.permutation(len(first.outputs))),
        _reorder(second, in_perm, rng.permutation(len(second.outputs))),
    )
    _write_channel(pair.first, workdir)
    _write_channel(pair.second, workdir)
    return pair


def _pair_command(kind: str, pair: Pair, seed: int, workdir: str, *extra: str) -> Command:
    argv = [kind, pair.first.path, pair.second.path, "--seed", str(seed), *extra]
    if kind == "region":
        out = os.path.join(workdir, f"{kind}-{pair.name}.csv")
        argv += ["--samples", str(REGION_SAMPLES), "--out", out]
        return Command(f"{kind} {pair.name}", kind, argv, out, pair=pair, samples=REGION_SAMPLES)
    out = os.path.join(workdir, f"{kind}-{pair.name}.json")
    return Command(f"{kind} {pair.name}", kind, argv + ["--json", out], out, pair=pair)


def search_corpus(seed: int, workdir: str) -> list[Command]:
    fixed = np.random.default_rng(CIRCULANT_SEED)
    rng = np.random.default_rng([seed, 1])
    pairs = [
        _pair(rng, workdir, "bsc-gap-0.1-0.3", "bsc", _bsc(0.1), _bsc(0.3)),
        _pair(rng, workdir, "bsc-gap-0.05-0.2", "bsc", _bsc(0.05), _bsc(0.2)),
        _pair(rng, workdir, "bsc-equal-0.11", "bsc", _bsc(0.11), _bsc(0.89)),
        _pair(rng, workdir, "bec-0.2-0.5", "bec", _bec(0.2), _bec(0.5)),
    ]
    for n in (3, 4, 5, 6):
        first = _circulant(f"circ{n}.y", fixed.dirichlet(np.ones(n)))
        second = _circulant(f"circ{n}.z", fixed.dirichlet(np.ones(n)))
        pairs.append(_pair(rng, workdir, f"circulant-{n}", "circulant", first, second))
    return [_pair_command(kind, pair, seed, workdir)
            for pair in pairs for kind in ("verdict", "analyze")]


def region_corpus(seed: int, workdir: str) -> list[Command]:
    rng = np.random.default_rng([seed, 2])
    commands = []
    for a, b in ((3, 2), (4, 2), (4, 3)):
        pair = _pair(rng, workdir, f"partition-{a}-{b}", "partition", *_partition(a, b))
        commands.append(_pair_command("verdict", pair, seed, workdir))
        commands.append(_pair_command("region", pair, seed, workdir))
    pair = _pair(rng, workdir, "bsc-gap-0.1-0.3", "bsc", _bsc(0.1), _bsc(0.3))
    commands.append(_pair_command("region", pair, seed, workdir, "--card", "3,3,2"))
    return commands


CAPACITY_SHAPES = ((16, 16), (24, 24), (32, 32), (48, 48), (64, 64),
                   (16, 48), (48, 16), (32, 64), (64, 32))


def capacity_corpus(seed: int, workdir: str) -> list[Command]:
    fixed = np.random.default_rng(CAPACITY_SEED)
    commands = []
    for copy in range(2):
        for n_x, n_y in CAPACITY_SHAPES:
            rows = fixed.dirichlet(np.full(n_y, 0.5), size=n_x)
            spec = ChannelSpec(f"rand{n_x}x{n_y}-{copy}", _labels("x", n_x), _labels("y", n_y), rows)
            _write_channel(spec, workdir)
            out = os.path.join(workdir, f"capacity-{spec.name}.json")
            argv = ["capacity", spec.path, "--seed", str(seed), "--json", out]
            commands.append(Command(f"capacity {spec.name}", "capacity", argv, out, channel=spec))
    return commands


# workload name -> function that writes its channel files into a directory
# and returns its commands in the order one pass runs them
CORPORA = {"search": search_corpus, "region": region_corpus, "capacity": capacity_corpus}
