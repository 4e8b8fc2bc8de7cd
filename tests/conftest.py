"""Shared helpers: seeded random objects and brute-force oracles.

Oracles here are written independently of the library internals (plain loops
over dicts and explicit log2 sums) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from tdopt.core import Alphabet, Channel, Distribution, JointDistribution


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: -0.0 differs from 0.0. A plain bool, so a
    failing assert does not diff long byte strings."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_distribution(rng, alphabet: Alphabet, alpha: float = 1.0) -> Distribution:
    return Distribution(alphabet, rng.dirichlet(np.full(len(alphabet), alpha)))


def random_channel(rng, n_in: int, n_out: int, alpha: float = 1.0,
                   in_prefix: str = "x", out_prefix: str = "y") -> Channel:
    rows = rng.dirichlet(np.full(n_out, alpha), size=n_in)
    return Channel(Alphabet.of_size(n_in, in_prefix), Alphabet.of_size(n_out, out_prefix), rows)


def make_identity(n: int, prefix: str = "x") -> Channel:
    """Noiseless channel on `n` symbols."""
    alph = Alphabet.of_size(n, prefix)
    return Channel(alph, alph, np.eye(n))


def noisy_identity(rng, n_in: int, n_out: int | None = None, mix: float = 0.35) -> Channel:
    """Identity channel blended with random noise rows; keeps every input
    extremal, so the capacity optimizer tends to use the whole alphabet."""
    m = n_out or n_in
    if m < n_in:
        raise ValueError("needs at least as many outputs as inputs")
    noise = rng.dirichlet(np.ones(m), size=n_in)
    eye = np.zeros((n_in, m))
    eye[:, :n_in] = np.eye(n_in)
    return Channel(Alphabet.of_size(n_in), Alphabet.of_size(m, "y"), (1 - mix) * eye + mix * noise)


def random_joint(rng, alphabets, alpha: float = 1.0) -> JointDistribution:
    sizes = tuple(len(a) for a in alphabets)
    flat = rng.dirichlet(np.full(int(np.prod(sizes)), alpha))
    return JointDistribution(tuple(alphabets), flat.reshape(sizes))


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def oracle_entropy(probs) -> float:
    return -sum(p * math.log2(p) for p in np.asarray(probs).ravel() if p > 0.0)


def oracle_mi_grouped(joint: JointDistribution, axes_a, axes_b, axes_cond=()):
    """I(A;B|C) via explicit four-entropy sum over dict-accumulated marginals."""

    def marg(axes):
        acc = {}
        for idx in itertools.product(*(range(len(a)) for a in joint.alphabets)):
            p = float(joint.probs[idx])
            if p == 0.0:
                continue
            key = tuple(idx[a] for a in axes)
            acc[key] = acc.get(key, 0.0) + p
        return acc

    a, b, c = tuple(axes_a), tuple(axes_b), tuple(axes_cond)
    h_ac = oracle_entropy(list(marg(a + c).values()))
    h_bc = oracle_entropy(list(marg(b + c).values()))
    h_abc = oracle_entropy(list(marg(a + b + c).values()))
    h_c = oracle_entropy(list(marg(c).values())) if c else 0.0
    return h_ac + h_bc - h_abc - h_c


def oracle_mutual_information(p: Distribution, ch: Channel) -> float:
    """I(X;Y) via the explicit double sum over the input/output product."""
    total = 0.0
    py = [sum(p.probs[i] * ch.rows[i, j] for i in range(len(ch.input)))
          for j in range(len(ch.output))]
    for i in range(len(ch.input)):
        for j in range(len(ch.output)):
            pij = p.probs[i] * ch.rows[i, j]
            if pij > 0.0:
                total += pij * math.log2(ch.rows[i, j] / py[j])
    return total
