"""Rate-region sampling: inner bound, outer bound, and the time-division line.

Random auxiliary joints (plus structured timeshare probes) are pushed through
the inner-bound rate formulas; each sampled pentagon contributes its corner
points. The signed slack of a point against R1/C1 + R2/C2 <= 1 tells whether
anything sampled ever escapes the time-division region. For the half-merge
pair below a handcrafted auxiliary provably does, and sampling the outer
bound shows how much room the converse still leaves.
"""

import numpy as np

from tdopt import (
    JointDistribution,
    RunConfig,
    analyze_channel,
    marton_rates,
    sample_marton,
    sample_uv,
    td_boundary_sample,
    td_region_contains,
)
from tdopt.core import Alphabet, Channel


def merge_pair():
    x = Alphabet.of_size(4)
    first = Channel(x, Alphabet.of_size(4, "y"), np.eye(4))
    halves = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    second = Channel(x, Alphabet.of_size(2, "z"), halves)
    return first, second


def zeroed(x: float) -> float:
    """`x` rounded to the 6 printed decimals, so that a rounding-level
    negative value prints as 0 rather than as a negative zero."""
    return round(x, 6) + 0.0


def main():
    first, second = merge_pair()
    rep1 = analyze_channel(first)
    rep2 = analyze_channel(second)
    c1, c2 = rep1.capacity, rep2.capacity
    print(f"capacities: C1={c1:.6f}, C2={c2:.6f}")
    boundary = td_boundary_sample(c1, c2, count=5)
    pts = ", ".join(f"({r1:.3f}, {r2:.3f})" for r1, r2 in boundary.points)
    print(f"time-division boundary: {pts}")
    print()

    cfg = RunConfig(cardinalities=(2, 2, 2), samples=3000, seed=17)
    for name, sampler in (("inner bound", sample_marton), ("outer bound", sample_uv)):
        report = sampler(rep1, rep2, cfg)
        r1, r2 = report.worst_point
        print(f"{name}: {len(report.sample.points)} corner points sampled")
        print(f"  min TD slack {zeroed(report.min_slack):+.6f} at ({r1:.4f}, {r2:.4f})")

    # the violation random search hunts for, written down directly: let the
    # input be two independent fair bits, U the low bit, V the high bit
    probs = np.zeros((2, 2, 1, 4))
    for u in range(2):
        for v in range(2):
            probs[u, v, 0, 2 * v + u] = 0.25
    aux = JointDistribution(
        (
            Alphabet.of_size(2, "u"),
            Alphabet.of_size(2, "v"),
            Alphabet.of_size(1, "w"),
            first.input,
        ),
        probs,
    )
    constraints = marton_rates(aux, first, second)
    print()
    print("handcrafted independent-bits auxiliary:")
    print(
        f"  max R1 {constraints.max_r1:.4f}, max R2 {constraints.max_r2:.4f}, "
        f"max sum {constraints.max_sum:.4f}"
    )
    for r1, r2 in constraints.corners():
        inside, slack = td_region_contains((r1, r2), c1, c2)
        print(f"  corner ({r1:.4f}, {r2:.4f}): TD slack {slack:+.4f}")


if __name__ == "__main__":
    main()
