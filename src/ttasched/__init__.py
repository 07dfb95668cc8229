"""Latency-aware sparse layer-update scheduling and pipeline simulation.

The package models test-time adaptation of a layer chain under a latency
budget: backprop-free layer importance from channel-statistic drift, runtime
latency prediction under dynamic resource conditions, budget-constrained
update selection certified against an exhaustive oracle, and a discrete
simulator of the forward/backward/reforward pipeline.
"""

from .errors import InputError, TraceExhausted
from .importance import (
    Embedding,
    EmbeddingHistory,
    ImportanceVector,
    adaptation_loss,
    assess,
    assessment_flops,
    layer_divergences,
    update_history,
)
from .latency import (
    COMPUTE_BOUND,
    DeviceSpec,
    LatencyProfile,
    LatencyTable,
    OfflineProfile,
    StateTrace,
    SystemState,
    build_profile,
    eta,
    pi1,
    pi2,
)
from .network import (
    LayerSpec,
    Network,
    StrategyCost,
    UpdateStrategy,
    derive_costs,
    load_network,
    load_network_file,
)
from .pipeline import (
    ControllerConfig,
    EnvironmentSpec,
    EpisodeReport,
    ModelResponseState,
    Scenario,
    Shift,
    apply_update,
    execute_ground_truth,
    generate_batch,
    load_scenario_file,
    report_csv,
    report_json,
    run_episode,
    sigma_controller,
)
from .scheduler import (
    Budget,
    ScheduleResult,
    SchedulerConfig,
    brute_force,
    budget,
    certify,
    solve_dp,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "COMPUTE_BOUND",
    "ControllerConfig",
    "DeviceSpec",
    "Embedding",
    "EmbeddingHistory",
    "EnvironmentSpec",
    "EpisodeReport",
    "ImportanceVector",
    "InputError",
    "LatencyProfile",
    "LatencyTable",
    "LayerSpec",
    "ModelResponseState",
    "Network",
    "OfflineProfile",
    "Scenario",
    "ScheduleResult",
    "SchedulerConfig",
    "Shift",
    "StateTrace",
    "StrategyCost",
    "SystemState",
    "TraceExhausted",
    "UpdateStrategy",
    "adaptation_loss",
    "apply_update",
    "assess",
    "assessment_flops",
    "brute_force",
    "budget",
    "build_profile",
    "certify",
    "derive_costs",
    "eta",
    "execute_ground_truth",
    "generate_batch",
    "layer_divergences",
    "load_network",
    "load_network_file",
    "load_scenario_file",
    "pi1",
    "pi2",
    "report_csv",
    "report_json",
    "run_episode",
    "sigma_controller",
    "solve_dp",
    "update_history",
]
