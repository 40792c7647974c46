"""The migration controller: drives a plan through the control stream.

Megaphone itself only consumes configuration updates; deciding *what* to
migrate and *when* is an external controller's job (paper §4.4 — DS2, Chi,
or Dhalion could supply the stream).  This module provides:

* ``EpochTicker`` — advances an input group's epochs with simulated time so
  control (and data) frontiers keep moving;
* ``MigrationController`` — the one issue → await → complete → pace loop:
  issues a step, awaits its completion through a probe on the S output
  frontier, optionally waits a drain gap, then issues the next (paper
  §3.3's "await the migration's completion before choosing the next");
* its step source, a ``MigrationPlan``: *what to move when* is policy
  handed to the controller (a strategy, or the planner's SLO-budgeted
  step search), not a controller of its own;
* ``FaultHandling`` — the optional bundle adding per-step timeouts with
  retry and backoff, retargeting away from crashed workers, and crash
  reconciliation (the recovery half of the chaos subsystem);
* ``StepResult`` / ``MigrationResult`` — issue/completion bookkeeping the
  benchmarks report migration duration from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.megaphone.control import ControlInst
from repro.megaphone.migration import MigrationPlan
from repro.runtime_events.events import (
    MigrationStepAbandoned,
    MigrationStepCompleted,
    MigrationStepIssued,
    MigrationStepOutcome,
    MigrationStepRetried,
    MigrationStepTimedOut,
    WorkerExcluded,
)
from repro.timely.dataflow import InputGroup, Runtime
from repro.timely.timestamp import Timestamp


class EpochTicker:
    """Advances every handle of an input group once per tick.

    Epochs are integer timestamps derived from simulated time:
    ``epoch = round(sim_time * 1000 / granularity_ms) * granularity_ms``,
    i.e. event-time milliseconds quantized to the tick granularity.
    """

    def __init__(
        self,
        runtime: Runtime,
        group: InputGroup,
        granularity_ms: int = 10,
        until_s: Optional[float] = None,
        dilation: int = 1,
        workers: Optional[list] = None,
    ) -> None:
        self.runtime = runtime
        self.group = group
        self.granularity_ms = granularity_ms
        self.until_s = until_s
        self.dilation = dilation
        # Sharded mode: only drive (and close) the listed resident workers'
        # handles; the other shards advance theirs, and touching a
        # non-resident handle here would double-count its capability
        # movement against the shard progress broadcast.
        self.workers = sorted(workers) if workers is not None else None
        self._stopped = False

    @property
    def tick_s(self) -> float:
        return self.granularity_ms / 1000.0

    def current_epoch(self) -> int:
        """The (event-time) epoch corresponding to the current simulated time."""
        quantized = int(round(self.runtime.sim.now * 1000 / self.granularity_ms))
        return quantized * self.granularity_ms * self.dilation

    def start(self) -> None:
        """Begin ticking at the next tick boundary."""
        self.runtime.sim.schedule(self.tick_s, self._tick)

    def stop(self) -> None:
        """Stop ticking and close the group at the next tick."""
        self._stopped = True

    def _driven_handles(self) -> list:
        handles = self.group.handles()
        if self.workers is None:
            return handles
        return [handles[w] for w in self.workers]

    def _tick(self) -> None:
        now = self.runtime.sim.now
        if self._stopped or (self.until_s is not None and now >= self.until_s):
            for handle in self._driven_handles():
                handle.close()
            return
        epoch = self.current_epoch() + self.granularity_ms * self.dilation
        for handle in self._driven_handles():
            if handle.epoch is not None and handle.epoch < epoch:
                handle.advance_to(epoch)
        self.runtime.sim.schedule(self.tick_s, self._tick)


@dataclass(eq=False)
class StepResult:
    """Timing of one reconfiguration step.

    ``insts`` are kept so a timed-out step can be re-issued, ``time`` is
    rewritten to the retry's control timestamp, and ``abandoned`` marks a
    step that exhausted its retry budget.  Compared and hashed by identity
    (``eq=False``): two retries of one step may be field-identical.
    """

    time: Timestamp
    moves: int
    issued_at: float
    completed_at: Optional[float] = None
    insts: tuple = ()
    attempts: int = 1
    abandoned: bool = False

    @property
    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


def _outcome_of(step: StepResult, at: float) -> MigrationStepOutcome:
    """The step's trace-bus outcome record (completion or abandonment)."""
    return MigrationStepOutcome(
        time=step.time,
        moves=step.moves,
        attempts=step.attempts,
        abandoned=step.abandoned,
        duration_s=step.duration if step.duration is not None else at - step.issued_at,
        at=at,
    )


@dataclass
class MigrationResult:
    """Timings of a whole plan."""

    strategy: str
    steps: list[StepResult] = field(default_factory=list)

    @property
    def total_attempts(self) -> int:
        """Issues including retries across all steps (> len(steps) means
        at least one step timed out and was re-issued)."""
        return sum(step.attempts for step in self.steps)

    @property
    def started_at(self) -> Optional[float]:
        return self.steps[0].issued_at if self.steps else None

    @property
    def completed_at(self) -> Optional[float]:
        if not self.steps or self.steps[-1].completed_at is None:
            return None
        return self.steps[-1].completed_at

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at


# -- fault handling --------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Per-step deadline discipline under fault handling.

    Attempt ``k`` (1-based) of a step must complete within
    ``timeout_s * backoff**(k-1)`` seconds of its (re-)issue; after
    ``max_attempts`` the step is abandoned and reported.
    """

    timeout_s: float = 1.0
    backoff: float = 2.0
    max_attempts: int = 5

    def deadline_for(self, attempt: int) -> float:
        """Seconds granted to attempt ``attempt`` (1-based)."""
        return self.timeout_s * (self.backoff ** (attempt - 1))


@dataclass
class FaultHandling:
    """What lets a controller survive injected faults.

    * **Timeout + retry with backoff** — every issued step gets a deadline
      (``retry``); one whose timestamp has not passed the probe by then is
      re-issued at the current control epoch with the same instructions.
      Re-issuing is idempotent: F diffs each instruction against its
      current owner, so already-applied moves produce no new shipments.
      Steps that exhaust ``retry.max_attempts`` are abandoned (and show up
      in the controller's ``abandoned``).
    * **Worker exclusion** — control goes through a live worker's handle,
      and instructions targeting a dead worker are retargeted (at issue
      *and* retry time) onto the live worker owning the fewest bins in the
      ``ledger``, lowest id on ties.  ``placeable`` further restricts the
      candidates — elastic runs pass a membership filter so crash
      retargeting never lands bins on a draining or standby worker.
    * **Crash reconciliation** — on a crash, bins the ledger places on dead
      workers are reassigned to survivors through an extra recovery step,
      so the key space stays fully owned; ``on_recovery_step`` lets a
      recovery coordinator reinstall snapshot state into the new owners.
      Of several controllers sharing one ledger exactly one should
      ``reconcile``, or each would issue its own recovery step.

    ``injector`` is the chaos injector (membership oracle), ``ledger`` a
    :class:`~repro.chaos.recovery.ConfigurationLedger` tracking the intended
    assignment.  Without them fault handling degrades to pure timeout/retry
    (useful under partitions and stalls).
    """

    retry: RetryPolicy = RetryPolicy()
    injector: object = None
    ledger: object = None
    on_recovery_step: Optional[Callable[[StepResult], None]] = None
    reconcile: bool = True
    placeable: Optional[Callable[[int], bool]] = None


def _least_loaded(counts: dict) -> int:
    """Claim a slot on the worker with the fewest bins (lowest id on ties)."""
    dst = min(counts, key=lambda w: (counts[w], w))
    counts[dst] += 1
    return dst


class MigrationController:
    """Feeds migration steps into the control stream, one at a time.

    The controller issues each step at the current control epoch, watches
    the S output frontier (via the provided probe) until the step's
    timestamp has fully passed — state shipped *and* backlog drained — then
    waits ``gap_s`` (paper §4.4's drain gap) and issues the next step.

    ``plan`` is the step source, issued step by step in order.  ``faults``
    (a :class:`FaultHandling`) is off by default: without it no timeout is
    ever armed, control goes through handle 0 and instructions are sent as
    planned.
    """

    def __init__(
        self,
        runtime: Runtime,
        control_group: InputGroup,
        ticker: EpochTicker,
        probe,
        plan: MigrationPlan,
        gap_s: float = 0.0,
        pace_s: Optional[float] = None,
        on_done: Optional[Callable[[MigrationResult], None]] = None,
        faults: Optional[FaultHandling] = None,
    ) -> None:
        self._runtime = runtime
        self._group = control_group
        self._probe = probe
        self._plan = plan
        self._next = 0
        self._gap_s = gap_s
        # Completion pacing (default): the next step is issued gap_s after
        # the previous one's frontier-confirmed completion.  Timer pacing
        # (pace_s set): steps are issued every pace_s seconds regardless of
        # completion — the regime where the paper's drain gap matters.
        self._pace_s = pace_s
        self._on_done = on_done
        self._faults = faults
        self._injector = faults.injector if faults is not None else None
        self._ledger = faults.ledger if faults is not None else None
        # Issued, not yet completed or abandoned, in issue order: each step
        # with its armed timeout event (None without fault handling).
        self._awaiting: dict[StepResult, object] = {}
        self._pending_recovery: list[list[ControlInst]] = []
        self._finished = False
        self.result = MigrationResult(strategy=plan.strategy)
        self.abandoned: list[StepResult] = []
        probe.on_advance(self._check_progress)
        if self._injector is not None and faults.reconcile:
            self._injector.on_membership_change(self._on_membership)

    @property
    def done(self) -> bool:
        """Every step (recovery steps too) issued, and completed or abandoned."""
        return self._exhausted and not (self._awaiting or self._pending_recovery)

    @property
    def _exhausted(self) -> bool:
        return self._next >= len(self._plan.steps)

    def start_at(self, sim_time_s: float) -> None:
        """Begin issuing steps at the given simulated time."""
        self._runtime.sim.schedule_at(sim_time_s, self._issue_next)

    # -- the loop: issue -> await -> complete -> pace ------------------------------

    def _issue_next(self) -> None:
        if self._exhausted:
            self._finish()
            return
        insts = self._plan.steps[self._next].insts
        self._next += 1
        if not insts:
            self._issue_next()
            return
        self._issue(list(insts))
        if self._pace_s is not None:
            self._runtime.sim.schedule(self._pace_s, self._issue_next)
        # The frontier may conceivably already be past; check synchronously.
        self._check_progress(None)

    def _handle(self):
        """The open input handle control goes through — worker 0's, or under
        an injector the first live worker's — or None when there is none."""
        workers = [0] if self._injector is None else self._injector.live_workers()
        for worker in workers:
            handle = self._group.handle(worker)
            if handle.epoch is not None:
                return handle
        return None

    def _issue(self, insts: list) -> StepResult:
        handle = self._handle()
        if handle is None:
            raise RuntimeError("control input closed while a migration is pending")
        insts = self._retarget(insts)
        time = handle.epoch
        handle.send(time, list(insts))
        now = self._runtime.sim.now
        trace = self._runtime.sim.trace
        if trace.wants_migration:
            trace.publish(
                MigrationStepIssued(time=time, moves=len(insts), at=now)
            )
        result = StepResult(
            time=time, moves=len(insts), issued_at=now, insts=tuple(insts)
        )
        self._awaiting[result] = self._arm_timeout(result)
        self.result.steps.append(result)
        return result

    def _check_progress(self, _frontier) -> None:
        # Scan every awaiting step, not just the head: retried steps carry
        # rewritten (later) timestamps, so completion order is not issue
        # order.
        passed = [s for s in self._awaiting if self._probe.passed(s.time)]
        if not passed:
            return
        now = self._runtime.sim.now
        trace = self._runtime.sim.trace
        for step in passed:
            timeout = self._awaiting.pop(step)
            if timeout is not None:
                timeout.cancel()
            step.completed_at = now
            if trace.wants_migration:
                trace.publish(MigrationStepCompleted(time=step.time, at=now))
                trace.publish(_outcome_of(step, now))
        self._settled()

    def _settled(self) -> None:
        """Steps just completed or were abandoned: pace the next issue."""
        if self._awaiting:
            return
        if self._pace_s is None:
            self._runtime.sim.schedule(self._gap_s, self._issue_next)
        else:
            self._finish()

    def _finish(self) -> None:
        """Report the result, once, when nothing is left to issue or await
        (a timer-paced ``_issue_next`` runs off the plan's end earlier)."""
        if self._finished or not self.done:
            return
        self._finished = True
        if self._on_done is not None:
            self._on_done(self.result)

    # -- fault handling: retargeting ---------------------------------------------

    def _retarget(self, insts: list) -> list:
        """Final say over a step's instructions just before sending: moves
        onto dead workers go to survivors, and the ledger hears the result."""
        if self._injector is not None:
            dead = set(self._injector.dead_workers())
            if dead and any(inst.worker in dead for inst in insts):
                counts = self._live_bin_counts()
                insts = [
                    ControlInst(bin=inst.bin, worker=_least_loaded(counts))
                    if inst.worker in dead
                    else inst
                    for inst in insts
                ]
        if self._ledger is not None:
            self._ledger.apply(insts)
        return insts

    def _live_bin_counts(self) -> dict[int, float]:
        live = list(self._injector.live_workers())
        if self._faults.placeable is not None:
            # Never leave bins unowned: if membership rules exclude every
            # live worker, fall back to the full live set.
            eligible = [w for w in live if self._faults.placeable(w)]
            live = eligible or live
        if self._ledger is not None:
            return {w: len(self._ledger.current.bins_of(w)) for w in live}
        return {w: 0 for w in live}

    # -- fault handling: timeouts and retries ------------------------------------

    def _arm_timeout(self, result: StepResult):
        """Schedule the current attempt's deadline (no-op without fault handling)."""
        if self._faults is None:
            return None
        delay = self._faults.retry.deadline_for(result.attempts)
        return self._runtime.sim.schedule(delay, partial(self._on_timeout, result))

    def _on_timeout(self, result: StepResult) -> None:
        if result not in self._awaiting:
            return
        retry = self._faults.retry
        now = self._runtime.sim.now
        trace = self._runtime.sim.trace
        if trace.wants_recovery:
            trace.publish(
                MigrationStepTimedOut(
                    time=result.time,
                    attempt=result.attempts,
                    timeout_s=retry.deadline_for(result.attempts),
                    at=now,
                )
            )
        handle = self._handle()
        if result.attempts >= retry.max_attempts or handle is None:
            self._abandon(result, now)
            return
        old_time = result.time
        insts = self._retarget(list(result.insts))
        result.attempts += 1
        result.insts = tuple(insts)
        result.time = handle.epoch
        handle.send(result.time, list(insts))
        if trace.wants_recovery:
            trace.publish(
                MigrationStepRetried(
                    time=old_time,
                    retry_time=result.time,
                    moves=len(insts),
                    attempt=result.attempts,
                    at=now,
                )
            )
        self._awaiting[result] = self._arm_timeout(result)

    def _abandon(self, result: StepResult, now: float) -> None:
        result.abandoned = True
        del self._awaiting[result]
        self.abandoned.append(result)
        trace = self._runtime.sim.trace
        if trace.wants_recovery:
            trace.publish(
                MigrationStepAbandoned(
                    time=result.time, attempts=result.attempts, at=now
                )
            )
        if trace.wants_migration:
            trace.publish(_outcome_of(result, now))
        self._settled()

    def nudge(self) -> None:
        """Retry every awaiting step now (watchdog hook; needs fault handling)."""
        for step, timeout in list(self._awaiting.items()):
            timeout.cancel()
            self._on_timeout(step)

    # -- fault handling: crash reconciliation --------------------------------------

    def _on_membership(self, kind: str, process: int, workers: tuple) -> None:
        if kind != "crash":
            # A restart cannot regress frontiers; nothing to reconcile.
            return
        now = self._runtime.sim.now
        trace = self._runtime.sim.trace
        bins_of = {
            w: self._ledger.current.bins_of(w) if self._ledger is not None else ()
            for w in workers
        }
        if trace.wants_recovery:
            for worker in workers:
                trace.publish(
                    WorkerExcluded(worker=worker, orphaned_bins=len(bins_of[worker]), at=now)
                )
        orphaned = sorted(bin_id for w in workers for bin_id in bins_of[w])
        if not orphaned:
            return
        counts = self._live_bin_counts()
        self._pending_recovery.append(
            [
                ControlInst(bin=bin_id, worker=_least_loaded(counts))
                for bin_id in orphaned
            ]
        )
        self._runtime.sim.schedule(0.0, self._issue_recovery)

    def _issue_recovery(self) -> None:
        while self._pending_recovery:
            insts = self._pending_recovery.pop(0)
            if self._handle() is None:
                # Control stream gone: recovery is impossible; the watchdog
                # will diagnose the stall if one follows.
                return
            result = self._issue(insts)
            if self._faults.on_recovery_step is not None:
                self._faults.on_recovery_step(result)
        self._check_progress(None)
