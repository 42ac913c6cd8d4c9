"""Distributed average tracking of time-varying linear reference signals
over undirected connected networks: static and adaptive edge-based coupling
laws, gain design, deterministic simulation, and the convergence diagnostics
that certify a run."""

__version__ = "0.1.0"

from .graph import Graph, laplacian, is_connected, lambda2
from .numerics import (
    AreSolution,
    NumericsConfig,
    is_stabilizable,
    matrix_exp,
    solve_are,
    solve_lyapunov,
    sym_eigvals,
)
from .signals import InputTable, LinearPlant, ReferenceSet, reference_trajectory
from .control import (
    AdaptiveParams,
    StaticGains,
    boundary_layer,
    design_gains,
    discontinuous_sign,
)
from .sim import SimConfig, Trajectory, integrate, run
from .analysis import (
    TheoremConstants,
    consensus_error,
    consensus_manifold,
    direction_flip_count,
    lyapunov_v1,
    lyapunov_v2,
    omega1_bound,
    omega2_radius,
    sum_invariant,
    theorem_constants,
    tracking_error,
    v1_envelope,
)
from .config import Scenario, parse_scenario
from .scenarios import scenario_config

__all__ = [
    "Graph", "laplacian", "is_connected", "lambda2",
    "AreSolution", "NumericsConfig", "is_stabilizable", "matrix_exp",
    "solve_are", "solve_lyapunov", "sym_eigvals",
    "InputTable", "LinearPlant", "ReferenceSet", "reference_trajectory",
    "AdaptiveParams", "StaticGains", "boundary_layer", "design_gains",
    "discontinuous_sign",
    "SimConfig", "Trajectory", "integrate", "run",
    "TheoremConstants", "consensus_error", "consensus_manifold",
    "direction_flip_count", "lyapunov_v1", "lyapunov_v2", "omega1_bound",
    "omega2_radius", "sum_invariant", "theorem_constants", "tracking_error",
    "v1_envelope",
    "Scenario", "parse_scenario", "scenario_config",
]
