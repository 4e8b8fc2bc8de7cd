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
    more_capable_check,  # noqa: F401 (a name here for tdbench's layer sites)
    pair_checks,
    ratio_condition_check,  # noqa: F401 (a name here for tdbench's layer sites)
)
from .config import RunConfig
from .core import BroadcastPair, Distribution, JointDistribution

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


@dataclass(frozen=True, eq=False)
class TDVerdict:
    """Certificate-bearing outcome of the decision procedure.

    Reports stay in caller order; `swapped` records whether the internal
    comparison treated the second channel as the stronger one. `checks` holds
    every simplex search consulted, keyed by role.
    """

    status: str
    branch: str
    swapped: bool
    first_report: CapacityReport
    second_report: CapacityReport
    checks: dict[str, SearchVerdict]
    evidence: EvidenceReport | None
    config: RunConfig

    @property
    def witnesses(self) -> tuple[Distribution, ...]:
        """The violating inputs of a TD_NOT_OPTIMAL verdict, in the order the
        checks ran; empty for any other status."""
        if self.status != TD_NOT_OPTIMAL:
            return ()
        return tuple(c.witness for c in self.checks.values())

    @property
    def search_limited(self) -> bool:
        """Whether the status rests on a check that held only up to the search budget."""
        return self.status == TD_OPTIMAL and any(
            v.status == HOLDS_UP_TO_SEARCH for v in self.checks.values()
        )


def evidence_mode(
    rep1: CapacityReport, rep2: CapacityReport, cfg: RunConfig = RunConfig()
) -> EvidenceReport:
    """Region sampling for pairs outside the theorem's reach (or as a
    cross-check), from the two channels' capacity reports; never claims
    optimality."""
    marton = sample_marton(rep1, rep2, cfg)
    return EvidenceReport(
        marton=marton,
        uv=sample_uv(rep1, rep2, cfg),
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
            evidence=evidence_mode(rep_first, rep_second, cfg),
            config=cfg,
        )

    swapped = rep_second.capacity > rep_first.capacity
    strong, weak = (rep_second, rep_first) if swapped else (rep_first, rep_second)

    branch = theorem_statement_normalization(strong.capacity, weak.capacity, cfg.cap_eq_tol)
    names = (("ratio_condition",) if branch == CAPACITY_GAP_RATIO
             else ("more_capable_forward", "more_capable_backward"))
    checks = pair_checks(strong, weak, names, cfg)
    # on either branch, time division is refuted only when every check is violated
    status = TD_NOT_OPTIMAL if all(c.status == VIOLATED for c in checks.values()) else TD_OPTIMAL

    return TDVerdict(
        status=status,
        branch=branch,
        swapped=swapped,
        first_report=rep_first,
        second_report=rep_second,
        checks=checks,
        evidence=None,
        config=cfg,
    )

