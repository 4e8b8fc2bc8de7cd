"""Benchmark for tdopt: one workload's fixed corpus of CLI commands, run
in-process through tdopt.cli.main as a closed loop with one client.

    python3 tdbench/run.py --workload search|region|capacity --seed N \
        --seconds S --trace 0|1

Run it from the root of a tdopt checkout; tdopt is imported from ./src. After
set-up and one untimed warm-up pass, whole passes over the corpus run until
S seconds have gone by. Every output is checked (see checks.py), and the last
line of stdout is one JSON object with the counts of commands attempted and
failed and the metrics: with --trace 0 the end-to-end figures, with --trace 1
the per-layer figures of layers.py, timed by wrappers around tdopt's
functions that are installed only in that mode.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here or in any child: timings then
# do not depend on how many cores happen to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from corpus import CORPORA  # noqa: E402
from layers import LayerTrace  # noqa: E402
from setup_once import prepare, source_dir  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def time_setups(workload: str, seed: int, workdir: str) -> float:
    """Median wall time of SETUP_PROBES fresh-process set-ups, each from
    spawn to the moment its corpus is written."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"setup-{i}")
        os.mkdir(probe_dir)
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_once.py"), workload, str(seed), probe_dir],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return statistics.median(times)


def run_command(cli, cmd):
    """Run one command; returns (seconds, (exit code or None if it raised,
    report text, bytes of the file it wrote or None))."""
    if os.path.exists(cmd.out_path):
        os.remove(cmd.out_path)
    out = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(cmd.argv, out=out)
    except Exception:
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    try:
        with open(cmd.out_path, "rb") as fh:
            data = fh.read()
    except OSError:
        data = None
    return seconds, (code, out.getvalue(), data)


def median_estimate(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted average of all
    order statistics. Where a corpus's latencies leave a gap at the middle,
    the sample median jumps across it from run to run; this moves smoothly."""
    from scipy.special import betainc

    x = np.sort(values)
    a = (len(x) + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(len(x) + 1) / len(x)))
    return float(weights @ x)


def check_outputs(commands, reference, seed) -> list[bool]:
    """Check each command's warm-up output; True where it is correct."""
    ok = []
    for cmd, (code, text, data) in zip(commands, reference):
        if code != 0 or data is None:
            problems = [f"exit code {code}, output file {'missing' if data is None else 'written'}"]
        else:
            try:
                problems = checks.checker(cmd)(cmd, text, data, seed)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        for problem in problems:
            print(f"FAILED {cmd.label}: {problem}", file=sys.stderr)
        ok.append(not problems)
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    src = source_dir()
    if src is None:
        print("error: no tdopt sources under ./src; run from the root of a tdopt checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return bench(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, src: str, workdir: str) -> int:
    cli, commands = prepare(src, args.workload, args.seed, workdir)
    setup_s = time_setups(args.workload, args.seed, workdir)

    trace = None
    if args.trace:
        trace = LayerTrace()
        trace.install()

    reference = [run_command(cli, cmd)[1] for cmd in commands]
    if trace is not None:
        trace.reset()

    latencies = [[] for _ in commands]
    differs = [0] * len(commands)
    pass_times = []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < args.seconds:
        pass_start = time.perf_counter()
        for i, cmd in enumerate(commands):
            seconds, output = run_command(cli, cmd)
            latencies[i].append(seconds)
            differs[i] += output != reference[i]
        pass_times.append(time.perf_counter() - pass_start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        trace.restore()

    passes = len(pass_times)
    ok = check_outputs(commands, reference, args.seed)
    failed = sum(1 + passes if not good else diff for good, diff in zip(ok, differs))
    for cmd, diff in zip(commands, differs):
        if diff:
            print(f"FAILED {cmd.label}: {diff} timed runs differ from the warm-up output",
                  file=sys.stderr)

    commands_per_s = len(commands) * passes / sum(pass_times)
    for cmd, times in zip(commands, latencies):
        print(f"{statistics.median(times):10.4f} s  {cmd.label}")
    print(f"{len(commands)} commands x {passes} timed passes, "
          f"pass times {', '.join(f'{t:.3f}' for t in pass_times)} s")

    if trace is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "commands_per_s": (commands_per_s, "1/s"),
            "command_p50_s": (median_estimate([t for times in latencies for t in times]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = trace.metrics(passes)
        metrics["trace.commands_per_s"] = (commands_per_s, "1/s")
    result = {
        "correct": all(ok) and not any(differs),
        "attempted": len(commands) * (1 + passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
