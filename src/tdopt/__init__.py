"""tdopt: decide when time division alone is optimal for a two-receiver
discrete memoryless broadcast channel.

The package computes single-user capacities with certified brackets, the
divergence geometry behind them (optimal output distribution, peak input set,
support union of optimizers), channel-ordering and per-capacity-ratio checks,
inner/outer rate-region sampling, and a verdict engine tying it together.

The names below are the ones the demos and the README use; everything else
is imported from its submodule. One `RunConfig` carries every tolerance,
budget and seed of a run.
"""

from .bounds import (
    marton_rates,
    sample_marton,
    sample_uv,
    td_boundary_sample,
    td_region_contains,
    timeshare_construction,
    timeshare_identities,
)
from .capacity import analyze_channel, is_capacity_achieving
from .comparison import (
    PerturbationProbe,
    divergence_form_check,
    more_capable_check,
    perturbation_feasibility_bound,
    perturbation_identity_check,
    ratio_condition_check,
)
from .config import RunConfig
from .core import (
    Alphabet,
    BroadcastPair,
    Channel,
    Distribution,
    JointDistribution,
    kl_divergence,
    mutual_information,
    push_forward,
)
from .families import make_bec, make_bsc, make_partition_pair
from .verdict import decide_td_optimality

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BroadcastPair",
    "Channel",
    "Distribution",
    "JointDistribution",
    "PerturbationProbe",
    "RunConfig",
    "analyze_channel",
    "decide_td_optimality",
    "divergence_form_check",
    "is_capacity_achieving",
    "kl_divergence",
    "make_bec",
    "make_bsc",
    "make_partition_pair",
    "marton_rates",
    "more_capable_check",
    "mutual_information",
    "perturbation_feasibility_bound",
    "perturbation_identity_check",
    "push_forward",
    "ratio_condition_check",
    "sample_marton",
    "sample_uv",
    "td_boundary_sample",
    "td_region_contains",
    "timeshare_construction",
    "timeshare_identities",
]
