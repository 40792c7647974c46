"""The scaling coordinator: turns membership actions into fluid migrations.

Join protocol (scale-out)::

    mark joining -> feed the new workers from the open-loop source ->
    search a ``spread`` target over the widened active range -> run the
    configured migration strategy through a controller -> on frontier-
    confirmed completion, mark active.

Drain protocol (scale-in)::

    mark draining -> stop feeding the evacuees (their input handles stay
    open so frontiers keep moving) -> search the planner's ``drain``
    target -> migrate -> verify the evacuees hold zero resident bins ->
    close their data handles -> mark retired.

The coordinator does not construct controllers itself: the harness passes
a ``controller_factory(plan, on_done)`` that builds the controller exactly
as scheduled migrations do (with the fault-handling bundle under chaos), so
a crash mid-join or mid-drain goes through the same retry/retarget machinery.
When a chaos :class:`~repro.chaos.recovery.ConfigurationLedger` is shared,
the coordinator reads the converged configuration from it (crash
reconciliation may have retargeted moves); otherwise it tracks its own.

Only one scaling operation runs at a time.  A request arriving while one
is in flight is retried shortly after (scripted plans) — the autoscaler
checks ``busy`` itself and records a hold instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.elastic.membership import MembershipDirectory, MembershipError
from repro.megaphone.migration import make_plan
from repro.planner.search import drain_target, spread_target
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
        controller_factory: Callable,
        strategy: str = "fluid",
        batch_size: int = 16,
        telemetry=None,
        ledger=None,
    ) -> None:
        self._runtime = runtime
        self._op = op
        self._directory = directory
        self._source = source
        self._factory = controller_factory
        self._strategy = strategy
        self._batch_size = batch_size
        self._telemetry = telemetry
        self._ledger = ledger
        self._current = ledger.current if ledger is not None else op.config.initial
        self.busy = False
        self.report = ScalingReport()
        self.controllers: list = []

    @property
    def current(self):
        """The configuration the control stream has converged to."""
        if self._ledger is not None:
            return self._ledger.current
        return self._current

    # -- request entry points (safe to call from scheduled events) -------------

    def request_join(self, workers: tuple) -> None:
        """Scale out to include ``workers``; defers while another op runs."""
        if self.busy:
            self._runtime.sim.schedule(
                _BUSY_RETRY_S, lambda: self.request_join(workers)
            )
            return
        self.scale_out(workers)

    def request_leave(self, workers: tuple) -> None:
        """Scale in by draining ``workers``; defers while another op runs."""
        if self.busy:
            self._runtime.sim.schedule(
                _BUSY_RETRY_S, lambda: self.request_leave(workers)
            )
            return
        self.scale_in(workers)

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
        current = self.current
        target = spread_target(current, self._bin_load(), num_workers=target_range)
        moves = len(current.moved_bins(target))
        sim = self._runtime.sim
        started_at = sim.now
        record = ScalingOp(
            kind="join", workers=workers, started_at=started_at, moves=moves
        )
        self.report.operations.append(record)
        if sim.trace.wants_membership:
            sim.trace.publish(
                ScaleOutStarted(
                    workers=workers,
                    target_active=len(self._directory.active()) + len(workers),
                    moves=moves,
                    at=started_at,
                )
            )
        self.busy = True

        def done(_result) -> None:
            self._settle(target)
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

        self._launch(current, target, done)

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
        current = self.current
        target = drain_target(
            current,
            self._bin_load(),
            drain_workers=workers,
            num_workers=self._directory.num_workers,
        )
        moves = len(current.moved_bins(target))
        sim = self._runtime.sim
        started_at = sim.now
        record = ScalingOp(
            kind="drain", workers=workers, started_at=started_at, moves=moves
        )
        self.report.operations.append(record)
        if sim.trace.wants_membership:
            sim.trace.publish(
                DrainStarted(
                    workers=workers,
                    target_active=len(survivors),
                    moves=moves,
                    at=started_at,
                )
            )
        self.busy = True

        def done(_result) -> None:
            self._settle(target)
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

        self._launch(current, target, done)

    # -- shared plumbing -------------------------------------------------------

    def _launch(self, current, target, done: Callable) -> None:
        if current == target:
            done(None)
            return
        plan = make_plan(self._strategy, current, target, self._batch_size)
        controller = self._factory(plan, done)
        self.controllers.append(controller)
        controller.start_at(self._runtime.sim.now)

    def _settle(self, target) -> None:
        """Adopt the converged configuration after a migration."""
        if self._ledger is None:
            self._current = target
        # With a ledger, every issued step was already applied to it (the
        # controller does so inst by inst, retargets included).

    def _bin_load(self) -> dict:
        """Per-bin heat for target search; uniform before telemetry warms."""
        load: dict = {}
        if self._telemetry is not None:
            load = self._telemetry.bin_load()
        if not load or not any(load.values()):
            load = {b: 1.0 for b in range(self.current.num_bins)}
        return load
