"""A tour of the decision procedure on hand-picked broadcast pairs.

Each pair is classified as TD_OPTIMAL, TD_NOT_OPTIMAL, or ASSUMPTION_VIOLATED,
and every claim ships with a certificate: a search verdict whose witness can
be replayed, or sampled rate-region evidence. The gallery covers the capacity
gap branch, the equal-capacity branch, a refuted pair, and a pair where the
optimizers ignore part of the input alphabet.
"""

import numpy as np

from tdopt import (
    BroadcastPair,
    RunConfig,
    decide_td_optimality,
    make_bec,
    make_bsc,
    make_partition_pair,
    mutual_information,
)
from tdopt.core import Alphabet, Channel


def merge_pair() -> BroadcastPair:
    """Four inputs: receiver one sees them verbatim, receiver two only which
    half the input fell in. Dedicating private bits to receiver one while
    receiver two decodes the half index beats any time split."""
    x = Alphabet.of_size(4)
    first = Channel(x, Alphabet.of_size(4, "y"), np.eye(4))
    halves = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    second = Channel(x, Alphabet.of_size(2, "z"), halves)
    return BroadcastPair(first, second)


def zeroed(x: float) -> float:
    """`x` rounded to the 6 printed decimals, so that a rounding-level
    negative value prints as 0 rather than as a negative zero."""
    return round(x, 6) + 0.0


def show(label, pair, cfg):
    v = decide_td_optimality(pair, cfg)
    print(f"{label}")
    print(f"  status {v.status}  branch {v.branch}  swapped {v.swapped}")
    print(
        f"  C1 {v.first_report.capacity:.9f}  C2 {v.second_report.capacity:.9f}  "
        f"search_limited {v.search_limited}"
    )
    for name, check in v.checks.items():
        print(f"  {name}: {check.status} (gap {zeroed(check.gap):+.6f})")
    for w in v.witnesses:
        replay1 = mutual_information(w, pair.first)
        replay2 = mutual_information(w, pair.second)
        print(
            f"  witness {np.array2string(w.probs, precision=4)} "
            f"replays to I1={zeroed(replay1):.6f}, I2={zeroed(replay2):.6f}"
        )
    if v.evidence is not None:
        slack = zeroed(v.evidence.marton.min_slack)
        print(f"  sampled evidence: min inner-bound TD slack {slack:+.6f}")
    print()


def main():
    cfg = RunConfig(samples=500)
    show("identical BSC(0.11) pair", BroadcastPair(make_bsc(0.11), make_bsc(0.11)), cfg)
    show("BEC(0.1) vs BEC(0.4), capacity gap", BroadcastPair(make_bec(0.1), make_bec(0.4)), cfg)
    show(
        "BSC(0.11) vs BSC(0.89), equal capacities",
        BroadcastPair(make_bsc(0.11), make_bsc(0.89)),
        cfg,
    )
    show("BSC(0.1) vs BSC(0.3), refuted by a witness", BroadcastPair(make_bsc(0.1), make_bsc(0.3)), cfg)
    show("identity vs half-merge, refuted", merge_pair(), cfg)
    show("partitioned blocks 4+2, optimizers miss symbols", make_partition_pair(4, 2), cfg)


if __name__ == "__main__":
    main()
