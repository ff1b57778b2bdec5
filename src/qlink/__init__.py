"""qlink: policy analysis for elementary-link generation in quantum networks."""

from .quantum import (
    DensityOperator,
    FidelityCurve,
    KrausChannel,
    PureState,
    apply_channel,
    fidelity,
    memory_evolve,
    preset_channel,
    preset_state,
    tensor_channel,
)
from .engine import (
    History,
    LinkParams,
    LinkStateMixture,
    Policy,
    evolve_exhaustive,
    expected_quantities,
    history_prob,
    iter_supported_histories,
    materialize_average_state,
    simulate_trajectories,
)
from .cutoff import (
    ActiveRow,
    Cutoff,
    SequenceStats,
    active_rows,
    count_sequences,
    cutoff_policy,
    expected_fidelity_cutoff,
    expected_success_rate,
    expected_success_rates,
    history_prob_cutoff,
    hyp2f1_series,
    joint_prob,
    memory_time_cutoff,
    prob_active,
    sequence_stats,
    steady_fidelity_cutoff,
    steady_state,
    success_rate_limits,
    transition_matrix,
    waiting_time,
    waiting_times,
)
from .network import (
    EdgeConfig,
    NetworkConfig,
    ParallelLinkSpec,
    collective_status,
    expected_flow,
    expected_rate_limit,
    expected_total_links,
    flow_distribution,
    joint_state_descriptor,
    prob_at_least_one,
)
from .optimize import (
    DecisionRuns,
    OptimizationResult,
    ValueTable,
    backward_recursion_reduced,
    forward_greedy,
)

__version__ = "0.1.0"
