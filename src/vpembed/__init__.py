"""vpembed: constrained shortest paths and virtual path embedding.

A library for finding minimum-hop loop-free paths under mixed link
(concave, e.g. bandwidth) and path (additive, e.g. delay) constraints,
with baseline solvers, seeded topology generation, and simulation harnesses
for virtual network embedding and traffic steering.
"""

from .backends import resolve_backend
from .baselines import solve_edijkstra, solve_ksp
from .constraints import ConstraintSet, parse_constraints, path_feasible
from .errors import (
    ArityMismatchError,
    ConfigError,
    DegreeUnreachableError,
    InfeasibleError,
    InsufficientResidualError,
    InvalidCountsError,
    NegativeMetricError,
    NegativeWeightCycleError,
    NoPathError,
    OverReleaseError,
    ResourceLimitError,
    SelfLoopError,
    TopologyParseError,
    UnknownBackendError,
    UnreachableError,
    VpembedError,
)
from .graph import EdgeMetrics, PhysicalGraph, ResidualOverlay, build_graph
from .harness import (
    ExperimentConfig,
    SteeringReport,
    VneReport,
    VnRequest,
    build_vn_requests,
    energy_efficiency,
    parse_config,
    run_steering,
    run_vne,
    sweep,
)
from .neighborhoods import solve_general, solve_l1
from .paths import PathResult, format_result_line
from .topogen import GenSpec, generate, resolve_constraint_severity

__version__ = "0.1.0"

__all__ = [
    "ArityMismatchError",
    "ConfigError",
    "ConstraintSet",
    "DegreeUnreachableError",
    "EdgeMetrics",
    "ExperimentConfig",
    "GenSpec",
    "InfeasibleError",
    "InsufficientResidualError",
    "InvalidCountsError",
    "NegativeMetricError",
    "NegativeWeightCycleError",
    "NoPathError",
    "OverReleaseError",
    "PathResult",
    "PhysicalGraph",
    "ResidualOverlay",
    "ResourceLimitError",
    "SelfLoopError",
    "SteeringReport",
    "TopologyParseError",
    "UnknownBackendError",
    "UnreachableError",
    "VneReport",
    "VnRequest",
    "VpembedError",
    "build_graph",
    "build_vn_requests",
    "energy_efficiency",
    "format_result_line",
    "generate",
    "parse_config",
    "parse_constraints",
    "path_feasible",
    "resolve_backend",
    "resolve_constraint_severity",
    "run_steering",
    "run_vne",
    "solve_edijkstra",
    "solve_general",
    "solve_ksp",
    "solve_l1",
    "sweep",
]
