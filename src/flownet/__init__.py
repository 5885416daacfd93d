"""Dynamical flow networks on acyclic multigraphs.

Simulation of density dynamics under distributed routing policies,
asymptotic (limit) flow computation, min-cut capacity, and weak-resilience
estimation against capacity-reducing perturbations.
"""

__version__ = "0.1.0"

from .topology import (
    Cut,
    Link,
    NetworkTopology,
    TopologyError,
    ValidationResult,
    min_cut_capacity,
    topological_order,
    validate_topology,
)
from .flows import (
    ExponentialFlow,
    FlowNetwork,
    InadmissiblePerturbation,
    PerturbationSpec,
    scale_perturbation,
)
from .routing import (
    LogitPolicy,
    check_property_a,
    check_property_b,
    cooperative_gap,
)
from .dynamics import (
    LimitFlow,
    LocalSolverError,
    SimulationConfig,
    SimulationError,
    Trajectory,
    alpha_transfer_estimate,
    convergence_check,
    limit_flow_estimate,
    local_limit_flow,
    network_limit_flow,
    network_limit_flows,
    simulate,
    simulate_ensemble,
    simulate_local,
)
from .resilience import (
    ResilienceReport,
    cut_attack,
    estimate_weak_resilience,
    evaluate_attacks,
    sample_scaling_perturbations,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario, validate_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
