"""Declarative scaling plans: timed join/leave events for scripted runs.

A :class:`ScalingPlan` is pure data — a time-ordered list of membership
actions — mirroring the chaos layer's :class:`~repro.chaos.plan.FaultPlan`:
the same plan can be validated, printed, recorded into an event log, and
replayed byte-identically.  The canonical text form (accepted by the
``scaling_plan`` config field and produced by :meth:`ScalingPlan.spec`) is::

    join@2.0:4,5;leave@5.0:4,5

i.e. semicolon-separated events, each ``action@seconds:worker,worker,...``.

Validation simulates the lifecycle against the provisioned worker universe:
joins must target standby slots, leaves must target active ones, worker 0
can never leave (it carries the control stream for plain controllers), and
at least one worker must stay active at all times.  Active sets are kept
contiguous prefixes ``0..k-1`` — joins admit the lowest standby ids, leaves
drain the highest active ids — which is what the planner's range-based
``spread`` objective expects.
"""

from __future__ import annotations

from dataclasses import dataclass

JOIN = "join"
LEAVE = "leave"
ACTIONS = (JOIN, LEAVE)


@dataclass(frozen=True)
class ScalingEvent:
    """One timed membership action: ``workers`` join or leave at ``at_s``."""

    at_s: float
    action: str
    workers: tuple

    def spec(self) -> str:
        """The event's canonical text form."""
        ids = ",".join(str(w) for w in self.workers)
        return f"{self.action}@{self.at_s:g}:{ids}"


@dataclass(frozen=True)
class ScalingPlan:
    """A complete scripted scaling schedule for one run."""

    events: tuple = ()

    def spec(self) -> str:
        """Canonical text form; ``parse`` inverts it exactly."""
        return ";".join(event.spec() for event in self.events)

    @classmethod
    def parse(cls, spec: str) -> "ScalingPlan":
        """Parse the ``action@seconds:ids`` text form.

        Raises :class:`ValueError` with the offending fragment on any
        malformed piece; structural validation against a worker universe
        is separate (:meth:`validate`).
        """
        events = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            try:
                head, ids = part.split(":", 1)
                action, at = head.split("@", 1)
            except ValueError:
                raise ValueError(
                    f"malformed scaling event {part!r}; "
                    "expected 'action@seconds:worker,worker'"
                ) from None
            action = action.strip()
            if action not in ACTIONS:
                raise ValueError(
                    f"unknown scaling action {action!r}; pick one of {ACTIONS}"
                )
            try:
                at_s = float(at)
                workers = tuple(sorted(int(w) for w in ids.split(",")))
            except ValueError:
                raise ValueError(
                    f"malformed scaling event {part!r}: bad time or worker id"
                ) from None
            if not workers:
                raise ValueError(f"scaling event {part!r} names no workers")
            events.append(ScalingEvent(at_s=at_s, action=action, workers=workers))
        return cls(events=tuple(events))

    def validate(self, num_workers: int, active_workers: int) -> None:
        """Check the plan against a provisioned universe.

        ``active_workers`` is the initially-active prefix count.  Raises
        :class:`ValueError` on the first inconsistency.
        """
        active = set(range(active_workers))
        standby = set(range(active_workers, num_workers))
        last_at = float("-inf")
        for event in self.events:
            if event.at_s < 0:
                raise ValueError(f"scaling event before t=0: {event.spec()!r}")
            if event.at_s < last_at:
                raise ValueError(
                    f"scaling events out of order at {event.spec()!r}"
                )
            last_at = event.at_s
            workers = set(event.workers)
            if len(workers) != len(event.workers):
                raise ValueError(f"duplicate workers in {event.spec()!r}")
            bad = [w for w in workers if not 0 <= w < num_workers]
            if bad:
                raise ValueError(
                    f"workers {bad} outside provisioned range "
                    f"0..{num_workers - 1} in {event.spec()!r}"
                )
            if event.action == JOIN:
                not_standby = sorted(workers - standby)
                if not_standby:
                    raise ValueError(
                        f"join targets non-standby workers {not_standby} "
                        f"in {event.spec()!r}"
                    )
                # Contiguity: joins must admit exactly the next standby ids.
                expected = set(sorted(standby)[: len(workers)])
                if workers != expected:
                    raise ValueError(
                        f"joins must admit the lowest standby ids "
                        f"{sorted(expected)}, got {sorted(workers)}"
                    )
                active |= workers
                standby -= workers
            else:
                if 0 in workers:
                    raise ValueError(
                        "worker 0 cannot leave (it carries the control stream)"
                    )
                not_active = sorted(workers - active)
                if not_active:
                    raise ValueError(
                        f"leave targets non-active workers {not_active} "
                        f"in {event.spec()!r}"
                    )
                if not active - workers:
                    raise ValueError("plan would drain every active worker")
                # Contiguity: leaves must drain the highest active ids.
                expected = set(sorted(active)[-len(workers):])
                if workers != expected:
                    raise ValueError(
                        f"leaves must drain the highest active ids "
                        f"{sorted(expected)}, got {sorted(workers)}"
                    )
                active -= workers

    def final_active(self, active_workers: int) -> int:
        """Active-worker count after every event has applied."""
        count = active_workers
        for event in self.events:
            delta = len(event.workers)
            count += delta if event.action == JOIN else -delta
        return count
