"""Elastic cluster membership: live scale-out/scale-in for the worker set.

The worker universe is provisioned at build time (simulated processes for
every slot), but which slots are *active* — fed by the source, owning
bins — is a runtime object:

* :class:`~repro.elastic.membership.MembershipDirectory` tracks each
  slot's lifecycle (``standby -> joining -> active -> draining ->
  retired``) and publishes epoch-stamped views on the ``membership``
  trace topic;
* :class:`~repro.elastic.coordinator.ScalingCoordinator` admits joiners
  (seed bins via ``balanced_target`` over the widened range) and retires
  leavers (evacuate via ``drain_target``, verify zero resident bins,
  close handles) — both as ordinary migrations, in the run's strategy,
  through the run's one controller;
* :class:`~repro.elastic.autoscaler.Autoscaler` closes the loop from
  :class:`~repro.planner.telemetry.LoadTelemetry` to scale decisions with
  hysteresis, consecutive-sample triggers, and cooldown;
* :class:`~repro.elastic.plan.ScalingPlan` scripts timed join/leave
  events for reproducible experiments.
"""

from repro.lazy import exports

__getattr__, __all__ = exports(__name__, {
    "autoscaler": ("Autoscaler",),
    "coordinator": ("ScalingCoordinator", "ScalingOp", "ScalingReport"),
    "membership": (
        "ACTIVE", "DRAINING", "JOINING", "RETIRED", "STANDBY", "STATES",
        "MembershipDirectory", "MembershipError",
    ),
    "plan": ("AutoscalerConfig", "ScalingEvent", "ScalingPlan"),
})
