"""Run-wide defaults shared by the decision procedure and the CLI."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

BITS_UNITS = "bits"
NATS_UNITS = "nats"


@dataclass(frozen=True)
class RunConfig:
    """Every knob a full run exposes, with the library-wide defaults; samples
    and verdict documents read a run's settings from here and keep no copies.

    tol            capacity bracket width (bits) before a report is accepted
    peak_tol       divergence slack that still counts a symbol as peak
    violation_tol  negative search margin treated as a real violation, in the
                   unit of the gap it judges: bits for the more-capable
                   checks, none for the capacity-normalized checks and the
                   time-division slack
    cap_eq_tol     capacity difference treated as equality (bits)
    seed           master seed for searches and sampling, nonnegative
    starts         random restarts per simplex search
    samples        auxiliary joints drawn per region sample
    cardinalities  (|U|, |V|, |W|) for sampled auxiliaries
    units          bits or nats in reports and serialized output
    """

    tol: float = 1e-10
    peak_tol: float = 1e-6
    violation_tol: float = 1e-7
    cap_eq_tol: float = 1e-6
    seed: int = 0
    starts: int = 64
    samples: int = 2000
    cardinalities: tuple[int, int, int] = (2, 2, 2)
    units: str = BITS_UNITS

    def __post_init__(self):
        for name in ("tol", "peak_tol", "violation_tol", "cap_eq_tol"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.units not in (BITS_UNITS, NATS_UNITS):
            raise ValueError(f"units must be {BITS_UNITS!r} or {NATS_UNITS!r}, got {self.units!r}")
        for name in ("seed", "starts", "samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.samples < 0 or self.starts < 0:
            raise ValueError("starts and samples must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        cards = self.cardinalities
        if not (isinstance(cards, (tuple, list)) and len(cards) == 3
                and all(isinstance(c, numbers.Integral) and not isinstance(c, bool) and c >= 1
                        for c in cards)):
            raise ValueError(f"cardinalities must be three counts >= 1, got {cards!r}")
        object.__setattr__(self, "cardinalities", tuple(int(c) for c in cards))
