"""The closed-loop migration planner (the paper's "external controller").

Megaphone executes migration plans; this package decides them.  The
pipeline is observe → search → price → gate → execute:

* :mod:`repro.planner.telemetry` — sliding-window per-bin heat and
  per-worker load, with a hysteresis skew detector;
* :mod:`repro.planner.search` — the objectives' registry of target
  searches (the searches and the step grouper,
  :func:`~repro.megaphone.migration.schedule`, live in
  :mod:`repro.megaphone.migration`);
* :mod:`repro.planner.cost` — a self-calibrating migration cost model
  plus the projected-imbalance benefit model;
* :mod:`repro.planner.policy` — the closed-loop driver with cooldown,
  cost/benefit gating, and SLO pacing; it groups a target's moves with
  the optimized strategy's setting, hottest bin first, under a per-step
  byte budget.

Plans the planner emits are ordinary
:class:`~repro.megaphone.migration.MigrationPlan` values (round-trippable
through :mod:`repro.megaphone.plan_io`); the executing controller never
imports this package.
"""

from repro.lazy import exports

__getattr__, __all__ = exports(__name__, {
    "config": ("PlannerConfig", "TelemetryConfig"),
    "cost": ("MigrationCostModel", "imbalance_gain", "projected_worker_loads"),
    "policy": ("PLANNER_STRATEGY", "ClosedLoopPlanner", "PlannerReport", "Proposal"),
    "search": ("OBJECTIVES", "search_target"),
    "telemetry": ("LoadTelemetry", "SkewDetector", "imbalance_ratio"),
})
