"""Search checks of seeded random channel pairs, for comparing the search code
of two checkouts.

    python3 tools/searchsweep.py [ROOT] --seed S --pairs N --search-seed T > sweep.txt
    python3 tools/searchsweep.py --compare before.txt after.txt

Pair i of seed S comes from numpy's default_rng([S, i]): 2-5 inputs shared
by both channels, 2-5 outputs each, every row a Dirichlet(1) draw. Runs
`pair_checks` on each pair with the checks `analyze` runs (the divergence
form only when both support unions are full, the ratio and divergence forms
only when both capacities are positive), at `RunConfig(seed=T)`, with tdopt
imported from ROOT/src (default: this checkout), and prints one line per
pair:

    i shape check=status,gap,evaluations ... time

`shape` is |X|x|Y|x|Z|, `gap` is printed at full precision (repr) and
`time` is the best of two searches in seconds; capacities are computed once,
outside the timing. A pair whose capacity certificate fails prints the
exception's class name in place of its checks. Every field but the last is
deterministic, so dropping `time` (sed 's/ [^ ]*$//') leaves lines that diff
across checkouts; `time` compares their speed pair by pair.

`--compare` reads two such outputs of the same seeds and prints the number
of checks, how many changed status, how many gaps got deeper or shallower
and by at most how much, the evaluations and the total time of each side.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

CHECKS = ("more_capable_forward", "more_capable_backward", "ratio_condition", "divergence_form")


def sweep_pair(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The two channels' rows of pair `index` of seed `seed`."""
    rng = np.random.default_rng([seed, index])
    n_x, n_y, n_z = (int(n) for n in rng.integers(2, 6, size=3))
    return rng.dirichlet(np.ones(n_y), size=n_x), rng.dirichlet(np.ones(n_z), size=n_x)


def read_sweep(path: str) -> tuple[dict[tuple[str, str], tuple[str, float, int]], float]:
    """(pair index, check) -> (status, gap, evaluations) of a sweep output,
    and the summed time of its pairs."""
    checks, total = {}, 0.0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            index, _, *fields, seconds = line.split()
            total += float(seconds)
            for field in fields:
                name, _, value = field.partition("=")
                status, gap, evals = value.split(",") if value else (name, "nan", "0")
                checks[index, name] = (status, float(gap), int(evals))
    return checks, total


def compare(before_path: str, after_path: str):
    (before, before_time), (after, after_time) = read_sweep(before_path), read_sweep(after_path)
    if before.keys() != after.keys():
        sys.exit("the two sweeps ran different pairs or checks")
    moves = [key for key in before if before[key][0] != after[key][0]]
    deltas = np.array([after[key][1] - before[key][1] for key in before])
    deeper, shallower = deltas[deltas < 0.0], deltas[deltas > 0.0]
    print(f"checks {len(before)}")
    print(f"status moves {len(moves)}" + "".join(f" {i}:{name}" for i, name in moves))
    print(f"gaps deeper {len(deeper)} (by at most {-deeper.min() if len(deeper) else 0.0:.3g}),"
          f" shallower {len(shallower)} (by at most {shallower.max() if len(shallower) else 0.0:.3g})")
    print(f"evaluations {sum(v[2] for v in before.values())} -> {sum(v[2] for v in after.values())}")
    print(f"time {before_time:.2f} -> {after_time:.2f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."))
    parser.add_argument("--seed", type=int, default=7, help="seed of the random pairs")
    parser.add_argument("--pairs", type=int, default=300)
    parser.add_argument("--search-seed", type=int, default=0, help="the search's RunConfig seed")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from tdopt.capacity import ConvergenceError, analyze_channel, full_support
    from tdopt.comparison import pair_checks
    from tdopt.config import RunConfig
    from tdopt.core import Alphabet, Channel

    cfg = RunConfig(seed=args.search_seed)
    for i in range(args.pairs):
        rows1, rows2 = sweep_pair(args.seed, i)
        shape = f"{rows1.shape[0]}x{rows1.shape[1]}x{rows2.shape[1]}"
        try:
            rep1, rep2 = (analyze_channel(Channel(Alphabet.of_size(len(rows)), Alphabet.of_size(rows.shape[1], "y"),
                                                  rows), cfg) for rows in (rows1, rows2))
        except (ConvergenceError, ValueError) as exc:  # a failed certificate is a result too
            print(f"{i} {shape} {type(exc).__name__} 0.000000", flush=True)
            continue
        positive = min(rep1.capacity, rep2.capacity) > 0.0
        full = full_support(rep1) and full_support(rep2)
        names = [name for name in CHECKS
                 if name.startswith("more_capable") or positive and (full or name != "divergence_form")]
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            checks = pair_checks(rep1, rep2, names, cfg)
            best = min(best, time.perf_counter() - start)
        body = " ".join(f"{name}={c.status},{c.gap!r},{c.evaluations}" for name, c in checks.items())
        print(f"{i} {shape} {body} {best:.6f}", flush=True)


if __name__ == "__main__":
    main()
