"""qlink: policy analysis for elementary-link generation in quantum networks.

The public names are loaded on first use (PEP 562): ``import qlink`` loads
no submodule and no numpy, and ``from qlink import X`` or ``qlink.X``
imports X's submodule then.  ``_HOMES`` maps each name to that submodule;
``qlink.<submodule>`` imports the submodule itself.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "quantum": (
        "DensityOperator", "FidelityCurve", "KrausChannel", "PureState",
        "apply_channel", "fidelity", "memory_evolve", "preset_channel",
        "preset_state", "tensor_channel",
    ),
    "engine": (
        "History", "LinkParams", "LinkStateMixture", "Policy",
        "evolve_exhaustive", "expected_quantities", "history_prob",
        "iter_supported_histories", "materialize_average_state",
        "simulate_trajectories",
    ),
    "cutoff": (
        "ActiveRow", "Cutoff", "SequenceStats", "active_rows",
        "count_sequences", "cutoff_policy", "expected_fidelity_cutoff",
        "expected_success_rate", "expected_success_rates",
        "history_prob_cutoff", "hyp2f1_series", "joint_prob",
        "memory_time_cutoff", "prob_active", "sequence_stats",
        "steady_fidelity_cutoff", "steady_state", "success_rate_limits",
        "transition_matrix", "waiting_time", "waiting_times",
    ),
    "network": (
        "EdgeConfig", "NetworkConfig", "ParallelLinkSpec", "collective_status",
        "expected_flow", "expected_rate_limit", "expected_total_links",
        "flow_distribution", "joint_state_descriptor", "prob_at_least_one",
    ),
    "optimize": (
        "DecisionRuns", "OptimizationResult", "backward_recursion_reduced",
        "forward_greedy",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("cli", "config", "csvio", *_HOMES)

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
