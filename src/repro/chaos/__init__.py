"""Seeded, deterministic fault injection and recovery machinery.

The chaos subsystem answers "which migration strategy degrades most
gracefully?" by injecting process crashes, link partitions/degradation, and
worker stalls into the simulated cluster under a reproducible
:class:`~repro.chaos.plan.FaultPlan`, while the recovery side — the migration
controller's fault handling (per-step timeouts, retargeting, crash
reconciliation) and a liveness watchdog — keeps
the Completion guarantee observable (or produces a structured diagnosis of
why it failed).

Module map:

``plan``       fault plan dataclasses (crash, link fault, stall) + validation
``inject``     the :class:`ChaosInjector` that schedules faults and owns the
               cluster-membership view (who is dead right now)
``watchdog``   the liveness watchdog over the probed output frontier
``recovery``   configuration ledger + coordinator reseeding restarted workers
``experiment`` canned plans and the all-strategy chaos matrix

Core modules (`plan`, `inject`, `watchdog`, `recovery`) never import the
harness; only ``chaos.experiment`` does, so the harness can import the core
without a cycle.
"""

from repro.chaos.plan import (
    ChaosConfig,
    FaultPlan,
    LinkFault,
    ProcessCrash,
    WorkerStall,
)

__all__ = [
    "ChaosConfig",
    "FaultPlan",
    "LinkFault",
    "ProcessCrash",
    "WorkerStall",
]
