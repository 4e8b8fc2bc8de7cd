"""Capacity certificates of seeded random channels, for comparing the capacity
code of two checkouts.

    python3 tools/capsweep.py [ROOT] --seed S --channels N > sweep.txt

Channel i of seed S comes from numpy's default_rng([S, i]): 2-64 inputs,
2-64 outputs, rows drawn from a symmetric Dirichlet whose concentration is
log-uniform on [0.1, 3], and in one channel of five a few rows copied over
others, so some inputs are duplicates. Runs `analyze_channel` on each with
tdopt imported from ROOT/src (default: this checkout) and prints one line per
channel:

    i shape dup iterations capacity peak union input time

`capacity` (bits) and the achieving `input` are printed at full precision
(repr), `peak` is the peak set, `union` the support union, and `time` the
best of two solves in seconds. A channel whose certificate fails prints the
exception's class name in place of iterations, capacity, peak, union and
input. Every field but the last is deterministic, so dropping `time`
(sed 's/ [^ ]*$//') leaves lines that diff across checkouts; `time`
compares their speed channel by channel.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402


def sweep_rows(seed: int, index: int) -> tuple[np.ndarray, bool]:
    """The rows of channel `index` of seed `seed`, and whether rows were
    duplicated."""
    rng = np.random.default_rng([seed, index])
    n_x, n_y = (int(n) for n in rng.integers(2, 65, size=2))
    alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(3.0))))
    rows = rng.dirichlet(np.full(n_y, alpha), size=n_x)
    dup = bool(rng.random() < 0.2)
    if dup:
        for _ in range(int(rng.integers(1, max(1, n_x // 4) + 1))):
            src, dst = rng.integers(0, n_x, size=2)
            rows[dst] = rows[src]
    return rows, dup


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--channels", type=int, default=100)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from tdopt.capacity import ConvergenceError, analyze_channel
    from tdopt.core import Alphabet, Channel

    for i in range(args.channels):
        rows, dup = sweep_rows(args.seed, i)
        ch = Channel(Alphabet.of_size(rows.shape[0]), Alphabet.of_size(rows.shape[1], "y"), rows)
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            try:
                rep = analyze_channel(ch)
            except (ConvergenceError, ValueError) as exc:  # a failed certificate is a result too
                rep = exc
            best = min(best, time.perf_counter() - start)
        if isinstance(rep, Exception):
            body = type(rep).__name__
        else:
            body = " ".join((str(rep.iterations), repr(rep.capacity), ",".join(rep.peak_set),
                             ",".join(rep.support_union),
                             ",".join(map(repr, rep.achieving_input.probs.tolist()))))
        print(f"{i} {rows.shape[0]}x{rows.shape[1]} {'dup' if dup else '-'} {body} {best:.6f}", flush=True)


if __name__ == "__main__":
    main()
