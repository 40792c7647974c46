"""The closed-loop migration planner (the paper's "external controller").

Megaphone executes migration plans; this package decides them.  The
pipeline is observe → search → price → gate → execute:

* :mod:`repro.planner.telemetry` — sliding-window per-bin heat and
  per-worker load, with a hysteresis skew detector;
* :mod:`repro.planner.search` — objective-driven target search and
  interference-aware step grouping;
* :mod:`repro.planner.cost` — a self-calibrating migration cost model
  plus the projected-imbalance benefit model;
* :mod:`repro.planner.policy` — the closed-loop driver with cooldown,
  cost/benefit gating, and SLO pacing.

Plans the planner emits are ordinary
:class:`~repro.megaphone.migration.MigrationPlan` values (round-trippable
through :mod:`repro.megaphone.plan_io`); the executing controller never
imports this package.
"""

from repro.planner.cost import (
    MigrationCostModel,
    imbalance_gain,
    projected_worker_loads,
)
from repro.planner.policy import (
    ClosedLoopPlanner,
    PlannerConfig,
    PlannerReport,
    Proposal,
)
from repro.planner.search import (
    OBJECTIVES,
    PLANNER_STRATEGY,
    balanced_target,
    drain_target,
    plan_moves,
    search_target,
    spread_target,
)
from repro.planner.telemetry import (
    LoadTelemetry,
    SkewDetector,
    TelemetryConfig,
    imbalance_ratio,
)

__all__ = [
    "ClosedLoopPlanner",
    "LoadTelemetry",
    "MigrationCostModel",
    "OBJECTIVES",
    "PLANNER_STRATEGY",
    "PlannerConfig",
    "PlannerReport",
    "Proposal",
    "SkewDetector",
    "TelemetryConfig",
    "balanced_target",
    "drain_target",
    "imbalance_gain",
    "imbalance_ratio",
    "plan_moves",
    "projected_worker_loads",
    "search_target",
    "spread_target",
]
