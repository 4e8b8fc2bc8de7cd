"""Stock channels used throughout the tests, demos, and the CLI generator."""

from __future__ import annotations

import numpy as np

from .core import Alphabet, BroadcastPair, Channel

BITS = Alphabet(("0", "1"))


def make_bsc(eps: float) -> Channel:
    """Binary symmetric channel with crossover probability `eps`."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"crossover probability must be in [0, 1], got {eps}")
    return Channel(BITS, BITS, np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]))


def make_bec(eps: float) -> Channel:
    """Binary erasure channel with erasure probability `eps`; the middle
    output symbol 'e' is the erasure flag."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {eps}")
    out = Alphabet(("0", "e", "1"))
    return Channel(BITS, out, np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]]))


def make_partition_pair(a_size: int, b_size: int) -> BroadcastPair:
    """Broadcast pair on a partitioned input alphabet A u B with |A| >= |B| >= 2.

    The first channel outputs the input verbatim on block A and uniform noise
    over its |A| outputs on block B; the second mirrors this with the blocks
    swapped (uniform over its |B| outputs on block A, verbatim on block B).
    Each receiver therefore resolves exactly one block of the input.
    """
    if b_size < 2:
        raise ValueError(f"second block needs at least 2 symbols, got {b_size}")
    if a_size < b_size:
        raise ValueError(f"first block must be at least as large ({a_size} < {b_size})")
    a_syms = tuple(f"a{i}" for i in range(a_size))
    b_syms = tuple(f"b{i}" for i in range(b_size))
    x = Alphabet(a_syms + b_syms)
    y = Alphabet(a_syms)
    z = Alphabet(b_syms)

    rows_y = np.zeros((len(x), a_size))
    rows_y[:a_size] = np.eye(a_size)
    rows_y[a_size:] = 1.0 / a_size

    rows_z = np.zeros((len(x), b_size))
    rows_z[:a_size] = 1.0 / b_size
    rows_z[a_size:] = np.eye(b_size)

    return BroadcastPair(Channel(x, y, rows_y), Channel(x, z, rows_z))
