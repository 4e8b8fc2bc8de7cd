"""Command-line front end and the one serializer: channel file IO, stock
example generation, and every serializer of the documents tdopt writes
(channel, capacity, verdict and analyze JSON, region CSV, and the text
reports printed from them). Reals are written at 12 significant digits.
Capacities, rates, divergences and more-capable gaps are in the run's units;
probabilities, capacity-normalized gaps and time-division slacks carry none.
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

from .bounds import SampleReport, sample_marton, sample_uv, td_boundary_sample
from .capacity import CapacityReport, ConvergenceError, analyze_channel, full_support
from .comparison import (  # noqa: F401 (the lone checks stay names here for tdbench's layer sites)
    divergence_form_check,
    more_capable_check,
    pair_checks,
    ratio_condition_check,
    vertex_screen,
)
from .config import BITS_UNITS, RunConfig
from .core import LN2, Alphabet, AlphabetMismatchError, BroadcastPair, Channel
from .families import make_bec, make_bsc, make_partition_pair
from .verdict import EvidenceReport, TDVerdict, decide_td_optimality

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# the description `tdopt --help` prints
DESCRIPTION = """Is plain time division optimal for a two-receiver broadcast channel? Certify
the capacity of one channel, decide or analyze a pair, sample its rate
regions as CSV, or write a stock example channel.

Commands print deterministic text (no timestamps, stable 12-significant-digit
numbers) so that identically seeded runs are byte-identical. Exit codes:
0 success, 2 input error, 3 numerical non-convergence.
"""


class ChannelFileError(ValueError):
    """A channel file failed to parse or validate; message carries the path
    and the offending field."""


def sig12(x: float) -> float:
    """`x` rounded to 12 significant digits, so equal runs serialize byte-identically."""
    return float(f"{x:.12g}")


def _fmt(x: float) -> str:
    """The text form of `sig12(x)`: `_fmt(sig12(x)) == _fmt(x)`, so a text
    line printed from a document reads as if printed from the report."""
    return f"{x:.12g}"


def unit_scale(units: str) -> float:
    """Factor taking a quantity in bits to `units`."""
    return 1.0 if units == BITS_UNITS else LN2


def gap_scale(check: str, units: str) -> float:
    """Factor taking the gap of check `check` to `units`: a more-capable gap
    is a rate difference in bits, while the capacity-normalized gaps are
    ratios of rates and carry no unit."""
    return 1.0 if check in ("ratio_condition", "divergence_form") else unit_scale(units)


def capacity_to_dict(rep: CapacityReport, units: str = BITS_UNITS) -> dict:
    """Plain-dict form of a capacity certificate for JSON emission, with
    magnitudes in `units` and reals rounded to 12 significant digits."""
    scale = unit_scale(units)
    return {
        "units": units,
        "capacity": sig12(rep.capacity * scale),
        "bracket": sig12(rep.gap * scale),
        "iterations": rep.iterations,
        "achieving_input": [sig12(p) for p in rep.achieving_input.probs],
        "optimal_output": [sig12(p) for p in rep.optimal_output.probs],
        "divergence_profile": [sig12(d * scale) for d in rep.divergence_profile],
        "peak_set": list(rep.peak_set),
        "support_union": list(rep.support_union),
    }


def verdict_to_dict(v: TDVerdict) -> dict:
    """Plain-dict form of a verdict for JSON emission: scalar magnitudes in the
    configured units, probability vectors and normalized gaps unitless, reals
    at 12 digits."""
    units = v.config.units
    first, second = (capacity_to_dict(rep, units) for rep in (v.first_report, v.second_report))
    return {
        "status": v.status,
        "branch": v.branch,
        "swapped": v.swapped,
        "search_limited": v.search_limited,
        "units": units,
        "channels": {
            name: {k: d[k] for k in ("capacity", "peak_set", "support_union", "optimal_output")}
            for name, d in (("first", first), ("second", second))
        },
        "checks": {
            name: {
                "status": c.status,
                "gap": sig12(c.gap * gap_scale(name, units)),
                "witness": None if c.witness is None else [sig12(p) for p in c.witness.probs],
                "starts": c.starts,
                "evaluations": c.evaluations,
            }
            for name, c in v.checks.items()
        },
        "witnesses": [[sig12(p) for p in w.probs] for w in v.witnesses],
        # every setting but the units, which the document carries at top level
        "config": {k: x for k, x in dataclasses.asdict(v.config).items() if k != "units"}
        | {"cardinalities": list(v.config.cardinalities)},
        "evidence": None if v.evidence is None else evidence_to_dict(v.evidence, v.config),
    }


def evidence_to_dict(ev: EvidenceReport, cfg: RunConfig) -> dict:
    """Plain-dict form of evidence sampled under `cfg`, which supplies each
    side's sample count, seed and cardinalities and the worst point's units."""
    scale = unit_scale(cfg.units)

    def side(rep: SampleReport) -> dict:
        return {
            "points": len(rep.sample.points),
            "samples": cfg.samples,
            "seed": cfg.seed,
            "cardinalities": list(cfg.cardinalities),
            "min_td_slack": sig12(rep.min_slack),
            "worst_point": None
            if rep.worst_point is None
            else [sig12(r) for r in (rep.worst_point * scale).tolist()],
        }

    return {
        "marton": side(ev.marton),
        "uv": side(ev.uv),
        "violating_aux_present": ev.violating_aux is not None,
    }


def region_csv(samples, scale: float = 1.0) -> str:
    """CSV of the rate points of `samples`, one header line, rates multiplied
    by `scale` (1.0 for bits) and written to 12 significant digits in the
    `_fmt` form ('%.12g' and '{:.12g}' format a float alike). It runs twice
    per point, so each sample is one %-operation over its row format
    repeated once per point."""
    parts = ["source,R1,R2\n"]
    for sample in samples:
        row = sample.source.replace("%", "%%") + ",%.12g,%.12g\n"
        parts.append(row * len(sample.points) % tuple((sample.points * scale).ravel().tolist()))
    return "".join(parts)


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
        f"config: tol={_fmt(cfg.tol)} tol_k={_fmt(cfg.peak_tol)} "
        f"violation_tol={_fmt(cfg.violation_tol)} cap_eq_tol={_fmt(cfg.cap_eq_tol)} "
        f"seed={cfg.seed} starts={cfg.starts} samples={cfg.samples} "
        f"card={card} units={cfg.units}"
    )


def _print_capacity_report(name: str, ch: Channel, doc: dict, out):
    """Print the capacity document `doc` of channel `ch`, which supplies only
    the symbol names."""
    probs = " ".join(
        f"{sym}={_fmt(p)}" for sym, p in zip(ch.output.symbols, doc["optimal_output"])
    )
    lines = [
        f"channel: {name}",
        f"  alphabet: {len(ch.input)} inputs, {len(ch.output)} outputs",
        f"  capacity: {_fmt(doc['capacity'])} {doc['units']}",
        f"  bracket: {_fmt(doc['bracket'])} after {doc['iterations']} iterations",
        f"  optimal output: {probs}",
        "  divergence profile:",
        *(f"    {sym}: {_fmt(d)}" for sym, d in zip(ch.input.symbols, doc["divergence_profile"])),
        f"  peak set: {' '.join(doc['peak_set'])}",
        f"  support union: {' '.join(doc['support_union'])}",
    ]
    print(*lines, sep="\n", file=out)


def _write_json(path: str, doc: dict):
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_capacity(args, cfg: RunConfig, out) -> int:
    ch = load_channel(args.file)
    doc = capacity_to_dict(analyze_channel(ch, cfg), cfg.units)
    print(_config_header(cfg), file=out)
    _print_capacity_report(args.file, ch, doc, out)
    if args.json:
        _write_json(args.json, doc)
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
    doc = verdict_to_dict(decide_td_optimality(pair, cfg))
    channels, ev = doc["channels"], doc["evidence"]
    lines = [
        _config_header(cfg),
        f"status: {doc['status']}",
        f"branch: {doc['branch']}",
        f"swapped: {str(doc['swapped']).lower()}",
        f"capacities: C1={_fmt(channels['first']['capacity'])} "
        f"C2={_fmt(channels['second']['capacity'])} {doc['units']}",
        *(
            f"{name}: peak set [{' '.join(c['peak_set'])}] "
            f"support union [{' '.join(c['support_union'])}]"
            for name, c in channels.items()
        ),
        *(
            f"check {name}: {c['status']} gap={_fmt(c['gap'])} "
            f"starts={c['starts']} evaluations={c['evaluations']}"
            for name, c in doc["checks"].items()
        ),
        *(f"witness {i}: {' '.join(_fmt(p) for p in w)}" for i, w in enumerate(doc["witnesses"])),
    ]
    if doc["search_limited"]:
        lines.append("note: optimality is certified only up to the search budget")
    if ev is not None:
        lines.append(
            f"evidence: marton min slack {_fmt(ev['marton']['min_td_slack'])} over "
            f"{ev['marton']['points']} points; uv min slack {_fmt(ev['uv']['min_td_slack'])} "
            f"over {ev['uv']['points']} points"
        )
    print(*lines, sep="\n", file=out)
    if args.json:
        _write_json(args.json, doc)
    return EXIT_OK


def cmd_region(args, cfg: RunConfig, out) -> int:
    pair = _load_pair(args)
    rep1 = analyze_channel(pair.first, cfg)
    rep2 = analyze_channel(pair.second, cfg)
    marton = sample_marton(rep1, rep2, cfg)
    uv = sample_uv(rep1, rep2, cfg)
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


def cmd_example_gen(args, out) -> int:
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
    full = full_support(rep1) and full_support(rep2)
    names = [k for k in _ANALYZE_LABELS if full or k != "divergence_form"]
    checks = pair_checks(rep1, rep2, names, cfg)
    screen = vertex_screen(rep1, rep2)
    doc = {
        "first": capacity_to_dict(rep1, cfg.units),
        "second": capacity_to_dict(rep2, cfg.units),
        "checks": {k: checks[k].status if k in checks else "SKIPPED" for k in _ANALYZE_LABELS},
        "gaps": {
            k: sig12(checks[k].gap * gap_scale(k, cfg.units)) if k in checks else None
            for k in _ANALYZE_LABELS
        },
        "vertex_screen": {
            "first_family_holds": screen.first_family_holds,
            "second_family_holds": screen.second_family_holds,
            "mixed_output_gap": sig12(screen.mixed_output_gap),
        },
    }

    print(_config_header(cfg), file=out)
    _print_capacity_report(args.file1, pair.first, doc["first"], out)
    _print_capacity_report(args.file2, pair.second, doc["second"], out)
    lines = ["comparison:"]
    for key, label in _ANALYZE_LABELS.items():
        if doc["gaps"][key] is None:
            lines.append(f"  {label}: skipped (support union misses input symbols)")
        else:
            lines.append(f"  {label}: {doc['checks'][key]} gap={_fmt(doc['gaps'][key])}")
    # the per-symbol divergences are not in the document: the table reads the screen
    lines.append(f"vertex screen (per input symbol, divergences in {cfg.units}):")
    columns = {"D1@mix2": screen.div_first_at_second_mix, "D2@peak": screen.div_second_peak,
               "D2@mix1": screen.div_second_at_first_mix, "D1@peak": screen.div_first_peak}
    lines.append(f"  {'symbol':<10}" + "".join(f" {name:>14}" for name in columns))
    for i, sym in enumerate(screen.symbols):
        lines.append(f"  {sym:<10}" + "".join(f" {_fmt(c[i] * scale):>14}" for c in columns.values()))
    families = doc["vertex_screen"]
    lines.append(
        f"  first family holds: {str(families['first_family_holds']).lower()}; "
        f"second family holds: {str(families['second_family_holds']).lower()}; "
        f"mixed output gap: {_fmt(families['mixed_output_gap'])}"
    )
    print(*lines, sep="\n", file=out)
    if args.json:
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
    raw = os.environ.get("TDOPT_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ChannelFileError(f"TDOPT_SEED must be an integer, got {raw!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `tdopt` argument parser, built once per process: parsing leaves it
    unchanged, and each call of `main` gets a fresh namespace. The run settings
    go on the commands that run the procedure, --json on those writing JSON."""
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--tol", type=float, default=None, help="capacity bracket tolerance (bits)")
    settings.add_argument("--tol-k", type=float, default=None, dest="peak_tol", metavar="TOL_K", help="peak-set divergence tolerance (bits)")
    settings.add_argument("--violation-tol", type=float, default=None, help="how far below zero a gap or slack must fall to count as a violation: bits for more-capable gaps, unitless for ratio and divergence-form gaps and time-division slacks")
    settings.add_argument("--cap-eq-tol", type=float, default=None, help="capacity equality tolerance (bits)")
    settings.add_argument("--seed", type=int, default=None, help="master seed (overrides TDOPT_SEED)")
    settings.add_argument("--starts", type=int, default=None, help="random starts per simplex search")
    settings.add_argument("--samples", type=int, default=None, help="auxiliary joints per region sample")
    settings.add_argument("--card", type=_parse_card, default=None, dest="cardinalities", metavar="U,V,W", help="sampled auxiliary cardinalities")
    settings.add_argument("--units", choices=("bits", "nats"), default=None, help="information units in reports")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", default=None, metavar="PATH", help="also write a JSON report")

    parser = argparse.ArgumentParser(prog="tdopt", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", parents=[settings, report], help="capacity certificate for one channel")
    p.add_argument("file")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verdict", parents=[settings, report], help="time-division optimality verdict for a pair")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("region", parents=[settings], help="sampled rate-region CSV for a pair")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--out", default=None, metavar="PATH", help="CSV destination (stdout when omitted)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("example-gen", help="generate stock channel files")
    p.add_argument("family", choices=("bsc", "bec", "sec4"))
    p.add_argument("params", nargs="*", type=float)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_example_gen)

    p = sub.add_parser("analyze", parents=[settings, report], help="capacity and comparison tables for a pair")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_analyze)

    return parser


def _config_from_args(args) -> RunConfig:
    """The defaults, replaced by every settings flag that is set (each flag's
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
        if args.func is cmd_example_gen:
            return cmd_example_gen(args, out)
        return args.func(args, _config_from_args(args), out)
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
