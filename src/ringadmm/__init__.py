"""Token-passing incremental consensus optimization with privacy-perturbed
variants and transcript-reconstruction attacks."""

from .config import AttackOptions, ConfigError, ExperimentConfig
from .objectives import (
    Dataset,
    LogisticObjective,
    ProxUnsupportedError,
    RidgeObjective,
    centralized_optimum,
    generate_logistic_data,
    generate_ridge_data,
)
from .records import IterationRecord, RunTrace, StateHistory, Transcript
from .solver import (
    GammaSpec,
    InitSpec,
    Problem,
    RunResult,
    Simulation,
    SolverConfig,
    Variant,
    XUpdateMode,
    gamma_lower_bound,
    run,
)
from .topology import Graph, generate_graph, next_agent

__all__ = [
    "AttackOptions",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "GammaSpec",
    "Graph",
    "InitSpec",
    "IterationRecord",
    "LogisticObjective",
    "Problem",
    "ProxUnsupportedError",
    "RidgeObjective",
    "RunResult",
    "RunTrace",
    "Simulation",
    "SolverConfig",
    "StateHistory",
    "Transcript",
    "Variant",
    "XUpdateMode",
    "centralized_optimum",
    "gamma_lower_bound",
    "generate_logistic_data",
    "generate_graph",
    "generate_ridge_data",
    "next_agent",
    "run",
]
