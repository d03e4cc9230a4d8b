"""Reliability-aware placement of virtual network function chains across
infrastructure providers.

The package covers the full loop: a trellis search places one batch of
service chains with optional per-function backups (`TrellisPlacement`),
value iteration turns that into an admission policy over arrival and
occupancy counts (`value_iteration` / `Policy`), greedy baselines give
reference behaviour (`run_baseline`), and a slotted simulator scores
everything on admission ratio, placement cost, and backup overhead
(`Simulation`).
"""

from .baselines import BaselineId, BaselineOutcome, BaselineTables, run_baseline
from .config import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config
from .datasets import seven_providers, seven_providers_path
from .mdp import StateSpace, TransitionModel, build_state_space
from .model import (
    CostBreakdown,
    InP,
    Infrastructure,
    LedgerError,
    PlacedService,
    PlacementPlan,
    ResourceLedger,
    ServicePlacement,
    ServiceType,
    VnfPlacement,
    VnfSpec,
    service_cost,
    service_failure_probability,
    service_usage,
    validate_plan,
)
from .oracle import OracleError, OracleResult, best_placement
from .policy import (
    Policy,
    ResourceEstimator,
    catalog_fingerprint,
    generate_arrangements,
    value_iteration,
)
from .sim import (
    MetricsReport,
    Simulation,
    SimulationError,
    run_experiment,
    sample_arrivals,
    sample_departures,
)
from .trellis import PlacementContext, TrellisPlacement, TrellisResult, place_batch

__version__ = "0.1.0"

__all__ = [
    "BaselineId",
    "BaselineOutcome",
    "BaselineTables",
    "ConfigError",
    "CostBreakdown",
    "ExperimentConfig",
    "InP",
    "Infrastructure",
    "LedgerError",
    "MetricsReport",
    "OracleError",
    "OracleResult",
    "PlacedService",
    "PlacementContext",
    "PlacementPlan",
    "Policy",
    "ResourceEstimator",
    "ResourceLedger",
    "ServicePlacement",
    "ServiceType",
    "Simulation",
    "SimulationError",
    "StateSpace",
    "TransitionModel",
    "TrellisPlacement",
    "TrellisResult",
    "VnfPlacement",
    "VnfSpec",
    "best_placement",
    "build_state_space",
    "catalog_fingerprint",
    "generate_arrangements",
    "load_config",
    "parse_config",
    "place_batch",
    "run_baseline",
    "run_experiment",
    "sample_arrivals",
    "sample_departures",
    "serialize_config",
    "service_cost",
    "service_failure_probability",
    "service_usage",
    "seven_providers",
    "seven_providers_path",
    "validate_plan",
    "value_iteration",
]
