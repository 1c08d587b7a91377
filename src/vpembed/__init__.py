"""vpembed: constrained shortest paths and virtual path embedding.

A library for finding minimum-hop loop-free paths under mixed link
(concave, e.g. bandwidth) and path (additive, e.g. delay) constraints,
with baseline solvers, seeded topology generation, and simulation harnesses
for virtual network embedding and traffic steering.

The sweep drivers' names (ExperimentConfig, SteeringReport, VneReport,
VnRequest, build_vn_requests, energy_efficiency, parse_config,
run_steering, run_vne, sweep; module ``harness``) and the generator's
(GenSpec, generate, resolve_constraint_severity; module ``topogen``)
resolve on access, through the module ``__getattr__`` below: a process
that only reads a topology file and answers a query never imports either
module. Each access looks the name up in its module again, and nothing is
stored here, so a name rebound in ``harness`` or ``topogen`` is what
``vpembed.<name>`` returns.
"""

import importlib

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
from .neighborhoods import solve_general, solve_l1
from .paths import PathResult, format_result_line

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

# name -> the submodule that defines it, imported on the name's first access
_LAZY = {
    "ExperimentConfig": "harness",
    "SteeringReport": "harness",
    "VneReport": "harness",
    "VnRequest": "harness",
    "build_vn_requests": "harness",
    "energy_efficiency": "harness",
    "parse_config": "harness",
    "run_steering": "harness",
    "run_vne": "harness",
    "sweep": "harness",
    "GenSpec": "topogen",
    "generate": "topogen",
    "resolve_constraint_severity": "topogen",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
