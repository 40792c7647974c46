"""The scaling coordinator: turns membership actions into fluid migrations.

Join protocol (scale-out)::

    mark joining -> feed the new workers from the open-loop source ->
    submit a balanced target over the widened active range, with the
    configured migration strategy, to the run's controller -> on frontier-
    confirmed completion, mark active.

Drain protocol (scale-in)::

    mark draining -> stop feeding the evacuees (their input handles stay
    open so frontiers keep moving) -> submit a ``drain`` target ->
    migrate -> verify the evacuees hold zero resident bins -> close their
    data handles -> mark retired.

Each operation is submitted to the run's one
:class:`~repro.megaphone.controller.MigrationController` (with fault
handling under chaos, so a crash mid-join or mid-drain is retried and
retargeted like any step).  Its target is built from the controller's
``current`` when it starts, after any migration in flight, so a drain
evacuates every bin the other writers left on the evacuees; the load it
balances is read when the operation is requested.  A drain packs the
evacuees' bins onto the workers the controller's placement rule
(``MigrationController.placeable``) admits: live, joining or active.

Only one scaling operation runs at a time.  A request arriving while one
is in flight is retried shortly after (scripted plans) — the autoscaler
checks ``busy`` itself and records a hold instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.elastic.membership import MembershipDirectory, MembershipError
from repro.megaphone.migration import balanced_target, drain_target, make_plan
from repro.runtime_events.events import (
    DrainCompleted,
    DrainStarted,
    ScaleOutCompleted,
    ScaleOutStarted,
)

# Retry cadence for scripted requests that land while an operation is in
# flight (simulated seconds).
_BUSY_RETRY_S = 0.25


@dataclass
class ScalingOp:
    """One completed (or in-flight) scaling operation."""

    kind: str  # "join" | "drain"
    workers: tuple
    started_at: float
    moves: int
    completed_at: Optional[float] = None
    # Bins still resident on the evacuees when their handles closed
    # (drains only) — zero for a clean drain.
    residual_bins: int = 0

    @property
    def duration_s(self) -> float:
        if self.completed_at is None:
            return 0.0
        return self.completed_at - self.started_at


@dataclass
class ScalingReport:
    """Everything the experiment result records about scaling."""

    operations: list = field(default_factory=list)

    @property
    def residual_bins(self) -> int:
        """Total bins left behind across every drain (must be zero)."""
        return sum(op.residual_bins for op in self.operations)

    def completed(self, kind: Optional[str] = None) -> list:
        return [
            op
            for op in self.operations
            if op.completed_at is not None and (kind is None or op.kind == kind)
        ]


class ScalingCoordinator:
    """Admits and retires workers by driving fluid migrations."""

    def __init__(
        self,
        runtime,
        op,
        directory: MembershipDirectory,
        source,
        controller,
        strategy: str = "fluid",
        batch_size: Optional[int] = None,
        gap_s: float = 0.0,
        pace_s: Optional[float] = None,
        telemetry=None,
    ) -> None:
        self._runtime = runtime
        self._op = op
        self._directory = directory
        self._source = source
        self._controller = controller
        self._strategy = strategy
        self._batch_size = batch_size
        self._gap_s = gap_s
        self._pace_s = pace_s
        self._telemetry = telemetry
        self.busy = False
        self.report = ScalingReport()

    # -- request entry points (safe to call from scheduled events) -------------

    def request_join(self, workers: tuple) -> None:
        """Scale out to include ``workers``; defers while another op runs."""
        self._request(self.scale_out, workers)

    def request_leave(self, workers: tuple) -> None:
        """Scale in by draining ``workers``; defers while another op runs."""
        self._request(self.scale_in, workers)

    def _request(self, operation, workers: tuple) -> None:
        if self.busy:
            self._runtime.sim.schedule(
                _BUSY_RETRY_S, lambda: self._request(operation, workers)
            )
            return
        operation(workers)

    # -- join protocol ---------------------------------------------------------

    def scale_out(self, workers: tuple) -> None:
        """Admit ``workers`` (standby slots) into the active set."""
        if self.busy:
            raise MembershipError("a scaling operation is already in flight")
        workers = tuple(sorted(workers))
        for w in workers:
            self._directory.mark_joining(w)
            self._source.open_worker(w)
        target_range = max(self._directory.active() + workers) + 1
        target_active = len(self._directory.active()) + len(workers)
        load = self._bin_load()
        sim = self._runtime.sim
        record = ScalingOp(kind="join", workers=workers, started_at=sim.now, moves=0)
        self.report.operations.append(record)
        self.busy = True

        def plan_for(current):
            target = balanced_target(current, load, num_workers=target_range)
            record.moves = len(current.moved_bins(target))
            if sim.trace.wants_membership:
                sim.trace.publish(
                    ScaleOutStarted(
                        workers=workers,
                        target_active=target_active,
                        moves=record.moves,
                        at=record.started_at,
                    )
                )
            return make_plan(self._strategy, current, target, self._batch_size)

        def done(_result) -> None:
            for w in workers:
                self._directory.mark_active(w)
            record.completed_at = sim.now
            if sim.trace.wants_membership:
                sim.trace.publish(
                    ScaleOutCompleted(
                        workers=workers,
                        active=len(self._directory.active()),
                        duration_s=record.duration_s,
                        at=sim.now,
                    )
                )
            self.busy = False

        self._controller.submit(
            plan_for, gap_s=self._gap_s, pace_s=self._pace_s, on_done=done
        )

    # -- drain protocol --------------------------------------------------------

    def scale_in(self, workers: tuple) -> None:
        """Evacuate and retire ``workers`` (currently active slots)."""
        if self.busy:
            raise MembershipError("a scaling operation is already in flight")
        workers = tuple(sorted(workers))
        if 0 in workers:
            raise MembershipError(
                "worker 0 cannot leave (it carries the control stream)"
            )
        survivors = set(self._directory.active()) - set(workers)
        if not survivors:
            raise MembershipError("cannot drain every active worker")
        for w in workers:
            self._directory.mark_draining(w)
            # Stop feeding the evacuee; its handle stays open (and keeps
            # advancing) until the drain migration completes.
            self._source.remove_worker(w)
        load = self._bin_load()
        sim = self._runtime.sim
        record = ScalingOp(kind="drain", workers=workers, started_at=sim.now, moves=0)
        self.report.operations.append(record)
        self.busy = True

        def plan_for(current):
            # The survivors are where the controller's placement rule lets
            # bins go (the evacuees are draining by now).
            target = drain_target(
                current, load, workers, survivors=self._controller.placeable()
            )
            record.moves = len(current.moved_bins(target))
            if sim.trace.wants_membership:
                sim.trace.publish(
                    DrainStarted(
                        workers=workers,
                        target_active=len(survivors),
                        moves=record.moves,
                        at=record.started_at,
                    )
                )
            return make_plan(self._strategy, current, target, self._batch_size)

        def done(_result) -> None:
            # The evacuees must be empty before their handles close: count
            # bins still resident (a never-materialized store counts as
            # empty — the worker was never touched).
            residual = sum(
                len(store.resident_bins())
                for _w, store in self._op.stores(self._runtime, workers=workers)
            )
            record.residual_bins = residual
            handles = self._source.group.handles()
            for w in workers:
                handles[w].close()
                self._directory.mark_retired(w)
            record.completed_at = sim.now
            if sim.trace.wants_membership:
                sim.trace.publish(
                    DrainCompleted(
                        workers=workers,
                        active=len(self._directory.active()),
                        residual_bins=residual,
                        duration_s=record.duration_s,
                        at=sim.now,
                    )
                )
            self.busy = False

        self._controller.submit(
            plan_for, gap_s=self._gap_s, pace_s=self._pace_s, on_done=done
        )

    # -- shared plumbing -------------------------------------------------------

    def _bin_load(self) -> dict:
        """Per-bin heat for target search; uniform before telemetry warms."""
        load: dict = {}
        if self._telemetry is not None:
            load = self._telemetry.bin_load()
        if not load or not any(load.values()):
            load = {b: 1.0 for b in range(self._controller.current.num_bins)}
        return load
