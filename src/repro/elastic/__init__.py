"""Elastic cluster membership: live scale-out/scale-in for the worker set.

The worker universe is provisioned at build time (simulated processes for
every slot), but which slots are *active* — fed by the source, owning
bins — is a runtime object:

* :class:`~repro.elastic.membership.MembershipDirectory` tracks each
  slot's lifecycle (``standby -> joining -> active -> draining ->
  retired``) and publishes epoch-stamped views on the ``membership``
  trace topic;
* :class:`~repro.elastic.coordinator.ScalingCoordinator` admits joiners
  (seed bins via the planner's ``spread`` objective) and retires leavers
  (evacuate via ``drain``, verify zero resident bins, close handles) —
  both as ordinary fluid migrations through the run's one controller;
* :class:`~repro.elastic.autoscaler.Autoscaler` closes the loop from
  :class:`~repro.planner.telemetry.LoadTelemetry` to scale decisions with
  hysteresis, consecutive-sample triggers, and cooldown;
* :class:`~repro.elastic.plan.ScalingPlan` scripts timed join/leave
  events for reproducible experiments.
"""

from repro.elastic.autoscaler import Autoscaler, AutoscalerConfig
from repro.elastic.coordinator import ScalingCoordinator, ScalingOp, ScalingReport
from repro.elastic.membership import (
    ACTIVE,
    DRAINING,
    JOINING,
    RETIRED,
    STANDBY,
    STATES,
    MembershipDirectory,
    MembershipError,
)
from repro.elastic.plan import ScalingEvent, ScalingPlan

__all__ = [
    "ACTIVE",
    "DRAINING",
    "JOINING",
    "RETIRED",
    "STANDBY",
    "STATES",
    "Autoscaler",
    "AutoscalerConfig",
    "MembershipDirectory",
    "MembershipError",
    "ScalingCoordinator",
    "ScalingEvent",
    "ScalingOp",
    "ScalingPlan",
    "ScalingReport",
]
