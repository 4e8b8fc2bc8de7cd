"""Command-line front end: channel file IO, stock example generation, and
report/CSV emission for the capacity and region machinery.

Commands print deterministic text (no timestamps, stable 12-significant-digit
numbers) so that identically seeded runs are byte-identical. Exit codes:
0 success, 2 input error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile

import numpy as np

from .bounds import region_csv, sample_marton, sample_uv, td_boundary_sample
from .capacity import CapacityReport, ConvergenceError, analyze_channel, full_support
from .comparison import (
    divergence_form_check,
    more_capable_check,
    ratio_condition_check,
    vertex_screen,
)
from .config import RunConfig
from .core import Alphabet, AlphabetMismatchError, BroadcastPair, Channel
from .families import make_bec, make_bsc, make_partition_pair
from .verdict import (
    capacity_to_dict,
    decide_td_optimality,
    sig12,
    unit_scale,
    verdict_to_dict,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class ChannelFileError(ValueError):
    """A channel file failed to parse or validate; message carries the path
    and the offending field."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def channel_to_dict(ch: Channel) -> dict:
    return {
        "input": list(ch.input.symbols),
        "output": list(ch.output.symbols),
        "matrix": [[sig12(v) for v in row] for row in ch.rows],
    }


def channel_from_dict(doc: dict, where: str) -> Channel:
    for key in ("input", "output", "matrix"):
        if key not in doc:
            raise ChannelFileError(f"{where}: missing field {key!r}")
        if not isinstance(doc[key], list):
            raise ChannelFileError(f"{where}: field {key!r} must be a list")
    try:
        inp = Alphabet(tuple(str(s) for s in doc["input"]))
        out = Alphabet(tuple(str(s) for s in doc["output"]))
    except ValueError as exc:
        raise ChannelFileError(f"{where}: {exc}") from exc
    matrix = doc["matrix"]
    if len(matrix) != len(inp):
        raise ChannelFileError(
            f"{where}: matrix has {len(matrix)} rows for {len(inp)} input symbols"
        )
    try:
        rows = np.array(matrix, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChannelFileError(f"{where}: matrix is not numeric: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1] != len(out):
        raise ChannelFileError(
            f"{where}: matrix shape {rows.shape} does not match {len(out)} output symbols"
        )
    try:
        return Channel(inp, out, rows)
    except ValueError as exc:
        raise ChannelFileError(f"{where}: {exc}") from exc


def load_channel(path: str) -> Channel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChannelFileError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChannelFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ChannelFileError(f"{path}: expected a JSON object")
    return channel_from_dict(doc, path)


def atomic_write_text(path: str, text: str):
    """Write via a sibling temp file and rename, so readers never see a
    half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tdopt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_channel(ch: Channel, path: str):
    atomic_write_text(path, json.dumps(channel_to_dict(ch), indent=2) + "\n")


def _config_header(cfg: RunConfig) -> str:
    card = ",".join(str(c) for c in cfg.cardinalities)
    return (
        f"config: tol={cfg.tol:g} tol_k={cfg.peak_tol:g} "
        f"violation_tol={cfg.violation_tol:g} cap_eq_tol={cfg.cap_eq_tol:g} "
        f"seed={cfg.seed} starts={cfg.starts} samples={cfg.samples} "
        f"card={card} units={cfg.units}"
    )


def _print_capacity_report(name: str, rep: CapacityReport, cfg: RunConfig, out):
    scale = unit_scale(cfg.units)
    print(f"channel: {name}", file=out)
    print(
        f"  alphabet: {len(rep.channel.input)} inputs, {len(rep.channel.output)} outputs",
        file=out,
    )
    print(f"  capacity: {_fmt(rep.capacity * scale)} {cfg.units}", file=out)
    print(
        f"  bracket: {_fmt(rep.gap * scale)} after {rep.iterations} iterations",
        file=out,
    )
    probs = " ".join(
        f"{sym}={_fmt(p)}" for sym, p in zip(rep.channel.output.symbols, rep.optimal_output.probs)
    )
    print(f"  optimal output: {probs}", file=out)
    print("  divergence profile:", file=out)
    for sym, d in zip(rep.channel.input.symbols, rep.divergence_profile):
        print(f"    {sym}: {_fmt(d * scale)}", file=out)
    print(f"  peak set: {' '.join(rep.peak_set)}", file=out)
    print(f"  support union: {' '.join(rep.support_union)}", file=out)


def _write_json(path: str, doc: dict):
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_capacity(args, cfg: RunConfig, out) -> int:
    ch = load_channel(args.file)
    rep = analyze_channel(ch, cfg)
    print(_config_header(cfg), file=out)
    _print_capacity_report(args.file, rep, cfg, out)
    if args.json:
        _write_json(args.json, capacity_to_dict(rep, cfg.units))
    return EXIT_OK


def _load_pair(args) -> BroadcastPair:
    ch1 = load_channel(args.file1)
    ch2 = load_channel(args.file2)
    try:
        return BroadcastPair(ch1, ch2)
    except AlphabetMismatchError as exc:
        raise ChannelFileError(f"{args.file1} / {args.file2}: {exc}") from exc


def cmd_verdict(args, cfg: RunConfig, out) -> int:
    pair = _load_pair(args)
    v = decide_td_optimality(pair, cfg)
    scale = unit_scale(cfg.units)
    print(_config_header(cfg), file=out)
    print(f"status: {v.status}", file=out)
    print(f"branch: {v.branch}", file=out)
    print(f"swapped: {str(v.swapped).lower()}", file=out)
    print(
        f"capacities: C1={_fmt(v.first_report.capacity * scale)} "
        f"C2={_fmt(v.second_report.capacity * scale)} {cfg.units}",
        file=out,
    )
    for name, rep in (("first", v.first_report), ("second", v.second_report)):
        print(
            f"{name}: peak set [{' '.join(rep.peak_set)}] "
            f"support union [{' '.join(rep.support_union)}]",
            file=out,
        )
    for name, check in v.checks.items():
        print(
            f"check {name}: {check.status} gap={_fmt(check.gap * scale)} "
            f"starts={check.starts} evaluations={check.evaluations}",
            file=out,
        )
    for i, w in enumerate(v.witnesses):
        vec = " ".join(_fmt(p) for p in w.probs)
        print(f"witness {i}: {vec}", file=out)
    if v.search_limited:
        print("note: optimality is certified only up to the search budget", file=out)
    if v.evidence is not None:
        ev = v.evidence
        print(
            f"evidence: marton min slack {_fmt(ev.min_marton_slack)} over "
            f"{len(ev.marton.sample.points)} points; "
            f"uv min slack {_fmt(ev.uv.min_slack)} over {len(ev.uv.sample.points)} points",
            file=out,
        )
    if args.json:
        _write_json(args.json, verdict_to_dict(v))
    return EXIT_OK


def cmd_region(args, cfg: RunConfig, out) -> int:
    pair = _load_pair(args)
    rep1 = analyze_channel(pair.first, cfg)
    rep2 = analyze_channel(pair.second, cfg)
    marton = sample_marton(pair.first, pair.second, rep1, rep2, cfg)
    uv = sample_uv(pair.first, pair.second, rep1, rep2, cfg)
    td = td_boundary_sample(rep1.capacity, rep2.capacity, 101)

    text = region_csv((marton.sample, uv.sample, td), unit_scale(cfg.units))
    if args.out:
        atomic_write_text(args.out, text)
        print(_config_header(cfg), file=out)
        print(
            f"wrote {len(marton.sample.points) + len(uv.sample.points) + len(td.points)} "
            f"points to {args.out}",
            file=out,
        )
        print(f"marton min TD slack: {_fmt(marton.min_slack)}", file=out)
    else:
        # bare CSV on stdout stays machine-readable; no header line
        out.write(text)
    return EXIT_OK


# single-channel families of example-gen: maker and the name of its one parameter
_ONE_PARAMETER_FAMILIES = {
    "bsc": (make_bsc, "the crossover probability"),
    "bec": (make_bec, "the erasure probability"),
}


def cmd_example_gen(args, cfg: RunConfig, out) -> int:
    family = args.family
    params = args.params
    if family in _ONE_PARAMETER_FAMILIES:
        make, parameter = _ONE_PARAMETER_FAMILIES[family]
        if len(params) != 1:
            raise ChannelFileError(f"{family} takes one parameter: {parameter}")
        try:
            ch = make(params[0])
        except ValueError as exc:
            raise ChannelFileError(str(exc)) from exc
        save_channel(ch, args.out)
        print(f"wrote {args.out}", file=out)
    else:
        raw = list(params) if params else [4.0, 2.0]
        if len(raw) != 2 or not all(float(p).is_integer() for p in raw):
            raise ChannelFileError("sec4 takes two integer block sizes")
        try:
            pair = make_partition_pair(int(raw[0]), int(raw[1]))  # block sizes, not totals
        except ValueError as exc:
            raise ChannelFileError(str(exc)) from exc
        stem, ext = os.path.splitext(args.out)
        ext = ext or ".json"
        paths = (f"{stem}.first{ext}", f"{stem}.second{ext}")
        save_channel(pair.first, paths[0])
        save_channel(pair.second, paths[1])
        print(f"wrote {paths[0]}", file=out)
        print(f"wrote {paths[1]}", file=out)
    return EXIT_OK


# analyze's check keys (as in its JSON) and their labels in the text report
_ANALYZE_LABELS = {
    "more_capable_forward": "more_capable first>=second",
    "more_capable_backward": "more_capable second>=first",
    "ratio_condition": "ratio_condition",
    "divergence_form": "divergence_form",
}


def cmd_analyze(args, cfg: RunConfig, out) -> int:
    pair = _load_pair(args)
    rep1 = analyze_channel(pair.first, cfg)
    rep2 = analyze_channel(pair.second, cfg)
    scale = unit_scale(cfg.units)
    print(_config_header(cfg), file=out)
    _print_capacity_report(args.file1, rep1, cfg, out)
    _print_capacity_report(args.file2, rep2, cfg, out)

    checks = {
        "more_capable_forward": more_capable_check(pair.first, pair.second, cfg),
        "more_capable_backward": more_capable_check(pair.second, pair.first, cfg),
        "ratio_condition": ratio_condition_check(
            pair.first, pair.second, rep1.capacity, rep2.capacity, cfg
        ),
    }
    if full_support(rep1) and full_support(rep2):
        checks["divergence_form"] = divergence_form_check(pair.first, pair.second, rep1, rep2, cfg)
    print("comparison:", file=out)
    for key, check in checks.items():
        print(f"  {_ANALYZE_LABELS[key]}: {check.status} gap={_fmt(check.gap * scale)}", file=out)
    if "divergence_form" not in checks:
        print("  divergence_form: skipped (support union misses input symbols)", file=out)

    screen = vertex_screen(pair.first, pair.second, rep1, rep2)
    print("vertex screen (per input symbol, divergences in " + cfg.units + "):", file=out)
    header = f"  {'symbol':<10} {'D1@mix2':>14} {'D2@peak':>14} {'D2@mix1':>14} {'D1@peak':>14}"
    print(header, file=out)
    for i, sym in enumerate(screen.symbols):
        print(
            f"  {sym:<10} {_fmt(screen.div_first_at_second_mix[i] * scale):>14}"
            f" {_fmt(screen.div_second_peak[i] * scale):>14}"
            f" {_fmt(screen.div_second_at_first_mix[i] * scale):>14}"
            f" {_fmt(screen.div_first_peak[i] * scale):>14}",
            file=out,
        )
    print(
        f"  first family holds: {str(screen.first_family_holds).lower()}; "
        f"second family holds: {str(screen.second_family_holds).lower()}; "
        f"mixed output gap: {_fmt(screen.mixed_output_gap)}",
        file=out,
    )
    if args.json:
        statuses = {key: check.status for key, check in checks.items()}
        gaps = {key: sig12(check.gap * scale) for key, check in checks.items()}
        statuses.setdefault("divergence_form", "SKIPPED")
        gaps.setdefault("divergence_form", None)
        doc = {
            "first": capacity_to_dict(rep1, cfg.units),
            "second": capacity_to_dict(rep2, cfg.units),
            "checks": statuses,
            "gaps": gaps,
            "vertex_screen": {
                "first_family_holds": screen.first_family_holds,
                "second_family_holds": screen.second_family_holds,
                "mixed_output_gap": sig12(screen.mixed_output_gap),
            },
        }
        _write_json(args.json, doc)
    return EXIT_OK


def _parse_card(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("cardinalities must be three comma-separated counts")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _env_seed() -> int:
    raw = os.environ.get("TDOPT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ChannelFileError(f"TDOPT_SEED must be an integer, got {raw!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `tdopt` argument parser, built once per process: parsing leaves it
    unchanged, and each call of `main` gets a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="capacity bracket tolerance (bits)")
    common.add_argument("--tol-k", type=float, default=None, dest="peak_tol", metavar="TOL_K", help="peak-set divergence tolerance (bits)")
    common.add_argument("--violation-tol", type=float, default=None, help="search violation threshold (bits)")
    common.add_argument("--cap-eq-tol", type=float, default=None, help="capacity equality tolerance (bits)")
    common.add_argument("--seed", type=int, default=None, help="master seed (overrides TDOPT_SEED)")
    common.add_argument("--starts", type=int, default=None, help="random starts per simplex search")
    common.add_argument("--samples", type=int, default=None, help="auxiliary joints per region sample")
    common.add_argument("--card", type=_parse_card, default=None, dest="cardinalities", metavar="U,V,W", help="sampled auxiliary cardinalities")
    common.add_argument("--units", choices=("bits", "nats"), default=None, help="information units in reports")
    common.add_argument("--json", default=None, metavar="PATH", help="also write a JSON report")

    parser = argparse.ArgumentParser(prog="tdopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", parents=[common], help="capacity certificate for one channel")
    p.add_argument("file")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verdict", parents=[common], help="time-division optimality verdict for a pair")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("region", parents=[common], help="sampled rate-region CSV for a pair")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--out", default=None, metavar="PATH", help="CSV destination (stdout when omitted)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("example-gen", parents=[common], help="generate stock channel files")
    p.add_argument("family", choices=("bsc", "bec", "sec4"))
    p.add_argument("params", nargs="*", type=float)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_example_gen)

    p = sub.add_parser("analyze", parents=[common], help="capacity and comparison tables for a pair")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_analyze)

    return parser


def _config_from_args(args) -> RunConfig:
    """The defaults, replaced by every common flag that is set (each flag's
    destination is its RunConfig field); the seed comes from TDOPT_SEED when
    --seed is absent."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.seed is None:
        values["seed"] = _env_seed()
    return dataclasses.replace(RunConfig(), **values)


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic; fold the exit code in
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return args.func(args, cfg, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"error: did not converge: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
