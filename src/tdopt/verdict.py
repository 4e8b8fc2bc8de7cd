"""Decision procedure for whether time division exhausts the capacity region
of a two-receiver broadcast pair.

The procedure analyzes both channels, checks that every input symbol
participates in some capacity achiever, orders the pair by capacity, and then
dispatches on the capacity comparison: a genuine gap sends it to the
normalized-rate condition, a tie to the more-capable comparison run in both
directions. Violations carry replayable witnesses; optimality claims are
explicitly marked as limited by the search budget. When the participation
assumption fails the pair drops to sampling evidence instead of a theorem
branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import SampleReport, sample_marton, sample_uv
from .capacity import CapacityReport, analyze_channel, full_support
from .comparison import (
    HOLDS_UP_TO_SEARCH,
    VIOLATED,
    SearchVerdict,
    more_capable_check,
    ratio_condition_check,
)
from .config import BITS_UNITS, RunConfig
from .core import LN2, BroadcastPair, Distribution, JointDistribution

TD_OPTIMAL = "TD_OPTIMAL"
TD_NOT_OPTIMAL = "TD_NOT_OPTIMAL"
ASSUMPTION_VIOLATED = "ASSUMPTION_VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"  # reserved; emitted by no current code path

CAPACITY_GAP_RATIO = "CAPACITY_GAP_RATIO"
EQUAL_CAPACITY_MORE_CAPABLE = "EQUAL_CAPACITY_MORE_CAPABLE"
NO_BRANCH = "NONE"


def theorem_statement_normalization(c1: float, c2: float, cap_eq_tol: float) -> str:
    """Map ordered capacities (largest first) to a proof branch.

    The gap branch requires the difference to be strictly greater than the
    tolerance; anything at or below it is treated as equal capacities.
    """
    return CAPACITY_GAP_RATIO if c1 - c2 > cap_eq_tol else EQUAL_CAPACITY_MORE_CAPABLE


@dataclass(frozen=True, eq=False)
class EvidenceReport:
    """Sampled inner- and outer-bound evidence for one pair.

    Sampling can refute time division (a negative inner-bound slack with its
    auxiliary joint attached) but can never certify it, so this report
    deliberately has no optimality claim.
    """

    marton: SampleReport
    uv: SampleReport
    violating_aux: JointDistribution | None  # worst Marton aux, if its slack < -violation_tol

    @property
    def min_marton_slack(self) -> float:
        return self.marton.min_slack


@dataclass(frozen=True, eq=False)
class TDVerdict:
    """Certificate-bearing outcome of the decision procedure.

    Reports stay in caller order; `swapped` records whether the internal
    comparison treated the second channel as the stronger one. `checks` holds
    every simplex search consulted, keyed by role, and `witnesses` collects
    the violating inputs (if any) in the order the checks ran.
    """

    status: str
    branch: str
    swapped: bool
    first_report: CapacityReport
    second_report: CapacityReport
    checks: dict[str, SearchVerdict]
    witnesses: tuple[Distribution, ...]
    evidence: EvidenceReport | None
    config: RunConfig

    @property
    def search_limited(self) -> bool:
        """Whether the status rests on a check that held only up to the search budget."""
        return self.status == TD_OPTIMAL and any(
            v.status == HOLDS_UP_TO_SEARCH for v in self.checks.values()
        )


def evidence_mode(
    pair: BroadcastPair,
    rep1: CapacityReport,
    rep2: CapacityReport,
    cfg: RunConfig = RunConfig(),
) -> EvidenceReport:
    """Region sampling for pairs outside the theorem's reach (or as a
    cross-check), from the two channels' capacity reports; never claims
    optimality."""
    marton = sample_marton(pair.first, pair.second, rep1, rep2, cfg)
    return EvidenceReport(
        marton=marton,
        uv=sample_uv(pair.first, pair.second, rep1, rep2, cfg),
        violating_aux=marton.worst_aux if marton.min_slack < -cfg.violation_tol else None,
    )


def decide_td_optimality(pair: BroadcastPair, cfg: RunConfig = RunConfig()) -> TDVerdict:
    """Run the full decision procedure on a broadcast pair.

    Returns TD_OPTIMAL only when the branch-selecting condition survived the
    search budget (recorded via `search_limited`); TD_NOT_OPTIMAL always
    carries at least one witness input that replays its violation.
    """
    rep_first = analyze_channel(pair.first, cfg)
    rep_second = analyze_channel(pair.second, cfg)
    for name, rep in (("first", rep_first), ("second", rep_second)):
        if rep.capacity <= 0.0:
            raise ValueError(
                f"the {name} channel has zero capacity; the time-division region is degenerate"
            )

    if not (full_support(rep_first) and full_support(rep_second)):
        return TDVerdict(
            status=ASSUMPTION_VIOLATED,
            branch=NO_BRANCH,
            swapped=False,
            first_report=rep_first,
            second_report=rep_second,
            checks={},
            witnesses=(),
            evidence=evidence_mode(pair, rep_first, rep_second, cfg),
            config=cfg,
        )

    swapped = rep_second.capacity > rep_first.capacity
    if swapped:
        strong_ch, weak_ch = pair.second, pair.first
        strong_rep, weak_rep = rep_second, rep_first
    else:
        strong_ch, weak_ch = pair.first, pair.second
        strong_rep, weak_rep = rep_first, rep_second

    branch = theorem_statement_normalization(
        strong_rep.capacity, weak_rep.capacity, cfg.cap_eq_tol
    )
    checks: dict[str, SearchVerdict] = {}

    if branch == CAPACITY_GAP_RATIO:
        ratio = ratio_condition_check(
            strong_ch, weak_ch, strong_rep.capacity, weak_rep.capacity, cfg
        )
        checks["ratio_condition"] = ratio
        if ratio.status == VIOLATED:
            status, witnesses = TD_NOT_OPTIMAL, (ratio.witness,)
        else:
            status, witnesses = TD_OPTIMAL, ()
    else:
        forward = more_capable_check(strong_ch, weak_ch, cfg)
        backward = more_capable_check(weak_ch, strong_ch, cfg)
        checks["more_capable_forward"] = forward
        checks["more_capable_backward"] = backward
        if HOLDS_UP_TO_SEARCH in (forward.status, backward.status):
            status, witnesses = TD_OPTIMAL, ()
        else:
            status, witnesses = TD_NOT_OPTIMAL, (forward.witness, backward.witness)

    return TDVerdict(
        status=status,
        branch=branch,
        swapped=swapped,
        first_report=rep_first,
        second_report=rep_second,
        checks=checks,
        witnesses=witnesses,
        evidence=None,
        config=cfg,
    )


def sig12(x: float) -> float:
    """`x` rounded to 12 significant digits, so equal runs serialize byte-identically."""
    return float(f"{x:.12g}")


def unit_scale(units: str) -> float:
    """Factor taking a quantity in bits to `units`."""
    return 1.0 if units == BITS_UNITS else LN2


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


def _check_dict(v: SearchVerdict, scale: float) -> dict:
    return {
        "status": v.status,
        "gap": sig12(v.gap * scale),
        "witness": None if v.witness is None else [sig12(p) for p in v.witness.probs],
        "starts": v.starts,
        "evaluations": v.evaluations,
    }


def verdict_to_dict(v: TDVerdict) -> dict:
    """Plain-dict form of a verdict for JSON emission.

    Scalar magnitudes honor the configured units; probability vectors are
    unitless. All reals are rounded to 12 significant digits so equal runs
    serialize byte-identically.
    """
    scale = unit_scale(v.config.units)
    doc = {
        "status": v.status,
        "branch": v.branch,
        "swapped": v.swapped,
        "search_limited": v.search_limited,
        "units": v.config.units,
        "channels": {
            name: {
                key: full[key]
                for key in ("capacity", "peak_set", "support_union", "optimal_output")
            }
            for name, full in (
                ("first", capacity_to_dict(v.first_report, v.config.units)),
                ("second", capacity_to_dict(v.second_report, v.config.units)),
            )
        },
        "checks": {name: _check_dict(c, scale) for name, c in v.checks.items()},
        "witnesses": [[sig12(p) for p in w.probs] for w in v.witnesses],
        "config": {
            "seed": v.config.seed,
            "starts": v.config.starts,
            "samples": v.config.samples,
            "cardinalities": list(v.config.cardinalities),
            "tol": v.config.tol,
            "peak_tol": v.config.peak_tol,
            "violation_tol": v.config.violation_tol,
            "cap_eq_tol": v.config.cap_eq_tol,
        },
        "evidence": None,
    }
    if v.evidence is not None:
        doc["evidence"] = evidence_to_dict(v.evidence, v.config.units)
    return doc


def evidence_to_dict(ev: EvidenceReport, units: str = "bits") -> dict:
    scale = unit_scale(units)

    def side(rep: SampleReport) -> dict:
        return {
            "points": len(rep.sample.points),
            "samples": rep.sample.samples,
            "seed": rep.sample.seed,
            "cardinalities": list(rep.sample.cardinalities),
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
