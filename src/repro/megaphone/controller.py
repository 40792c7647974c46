"""The migration controller: the run's one writer of the control stream.

Megaphone itself only consumes configuration updates; deciding *what* to
migrate and *when* is an external controller's job (paper §4.4 — DS2, Chi,
or Dhalion could supply the stream).  This module provides:

* ``EpochTicker`` — advances an input group's epochs with simulated time so
  control (and data) frontiers keep moving;
* ``MigrationController`` — the run's one issue loop.  Writers submit
  *intents* (a function from the current assignment to a
  ``MigrationPlan``); one runs at a time, planned when it starts: issue a
  step, await its completion through a probe on the S output frontier,
  optionally wait a drain gap, then issue the next (paper §3.3's "await
  the migration's completion before choosing the next").  Every step sent
  advances ``current``, the run's one record of who owns which bin, and
  ``placeable`` is the run's one rule for which workers may receive bins;
* ``FaultHandling`` — the optional bundle adding per-step timeouts with
  retry and backoff, and the injector that says which workers are live;
* ``StepResult`` / ``MigrationResult`` — issue/completion bookkeeping the
  benchmarks report migration duration from, one result per intent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.megaphone.control import BinnedConfiguration, ControlInst
from repro.megaphone.migration import MigrationPlan
from repro.runtime_events.events import (
    MigrationStepAbandoned,
    MigrationStepCompleted,
    MigrationStepIssued,
    MigrationStepOutcome,
    MigrationStepRetried,
    MigrationStepTimedOut,
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
        self._stop_when: Optional[Callable[[], bool]] = None
        self.closed = False

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

    def stop_when(self, predicate: Callable[[], bool]) -> None:
        """Close the group at the first tick where ``predicate()`` holds.

        The stop is decided in simulated time, so it does not depend on
        how the host slices the run into ``sim.run`` calls.
        """
        self._stop_when = predicate

    def _driven_handles(self) -> list:
        handles = self.group.handles()
        if self.workers is None:
            return handles
        return [handles[w] for w in self.workers]

    def _tick(self) -> None:
        now = self.runtime.sim.now
        if (
            self._stopped
            or (self.until_s is not None and now >= self.until_s)
            or (self._stop_when is not None and self._stop_when())
        ):
            self.closed = True
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
    """Timings of a whole plan; ``started_at`` is when its intent started."""

    strategy: str
    steps: list[StepResult] = field(default_factory=list)
    started_at: Optional[float] = None

    @property
    def total_attempts(self) -> int:
        """Issues including retries across all steps (> len(steps) means
        at least one step timed out and was re-issued)."""
        return sum(step.attempts for step in self.steps)

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
      and the controller's placement rule (:meth:`MigrationController.
      placeable`) counts only the workers ``injector`` reports live.

    ``injector`` is the chaos injector (membership oracle).  Without it
    fault handling degrades to pure timeout/retry (useful under partitions
    and stalls).  Crash reconciliation is not a controller's job: the run's
    :class:`~repro.chaos.recovery.RecoveryCoordinator` sends the recovery
    step through :meth:`MigrationController.recover`.
    """

    retry: RetryPolicy = RetryPolicy()
    injector: object = None


def _least_loaded(counts: dict) -> int:
    """Claim a slot on the worker with the fewest bins (lowest id on ties)."""
    dst = min(counts, key=lambda w: (counts[w], w))
    counts[dst] += 1
    return dst


@dataclass(eq=False)
class _Intent:
    """One writer's request; ``plan`` is ``plan_for(current)`` once started."""

    plan_for: Callable[[BinnedConfiguration], MigrationPlan]
    at_s: float
    gap_s: float
    pace_s: Optional[float]
    on_done: Optional[Callable[[MigrationResult], None]]
    result: MigrationResult
    plan: Optional[MigrationPlan] = None
    next: int = 0

    @property
    def exhausted(self) -> bool:
        return self.next >= len(self.plan.steps)


class MigrationController:
    """The run's one writer of the control stream.

    Writers :meth:`submit` intents; one runs at a time, in the order they
    become ready (submission order among equal times), with its plan built
    from ``current`` when it starts and one :class:`MigrationResult` in
    ``results`` (submission order).  A running intent issues each step at
    the current control epoch, watches the S output frontier (via the
    probe) until the step's timestamp has fully passed — state shipped
    *and* backlog drained — then waits ``gap_s`` (paper §4.4's drain gap)
    and issues the next.  The next intent starts inside the callback in
    which the previous one finished.

    ``current`` is the configuration the control stream converges to: every
    step sent (planned, retried or recovery, after retargeting) advances
    it.  Every step sent is first retargeted onto :meth:`placeable`
    workers.  ``faults`` (a :class:`FaultHandling`) and ``directory`` are
    off by default: without them no timeout is ever armed, control goes
    through handle 0 and instructions are sent as planned.
    """

    def __init__(
        self,
        runtime: Runtime,
        control_group: InputGroup,
        probe,
        initial: BinnedConfiguration,
        faults: Optional[FaultHandling] = None,
    ) -> None:
        self._runtime = runtime
        self._group = control_group
        self._probe = probe
        # Both set after construction by the parts that own them: fault
        # handling by chaos, the membership directory by elastic runs.
        self.faults = faults
        self.directory = None
        self.current = initial
        self._queue: list[_Intent] = []  # submitted, not started
        self._active: Optional[_Intent] = None
        # Issued, not yet completed or abandoned, in issue order: each step
        # with its armed timeout event (None without fault handling).
        self._awaiting: dict[StepResult, object] = {}
        # A completion-paced ``_issue_next`` is scheduled: a recovery step
        # settling inside the drain gap must not start a second chain.
        self._issue_pending = False
        self.results: list[MigrationResult] = []
        self.abandoned: list[StepResult] = []
        probe.on_advance(self._check_progress)

    @property
    def done(self) -> bool:
        """Nothing queued, and the running intent (if any) has every step
        issued and completed or abandoned."""
        return not self._queue and self._quiet

    @property
    def idle(self) -> bool:
        """No intent running or ready to start: a plan made from
        ``current`` now is the plan that will be sent."""
        now = self._runtime.sim.now
        return self._quiet and all(i.at_s > now for i in self._queue)

    @property
    def _quiet(self) -> bool:
        intent = self._active
        return intent is None or (intent.exhausted and not self._awaiting)

    def submit(
        self,
        plan_for: Callable[[BinnedConfiguration], MigrationPlan],
        *,
        at_s: Optional[float] = None,
        gap_s: float = 0.0,
        pace_s: Optional[float] = None,
        on_done: Optional[Callable[[MigrationResult], None]] = None,
    ) -> MigrationResult:
        """Queue an intent, ready at ``at_s`` (default: now); returns its
        result.  Steps go out ``gap_s`` after the previous one completed,
        or every ``pace_s`` seconds regardless of completion when set."""
        if at_s is None:
            at_s = self._runtime.sim.now
        intent = _Intent(plan_for, at_s, gap_s, pace_s, on_done, MigrationResult(""))
        self.results.append(intent.result)
        self._queue.append(intent)
        self.start_at(at_s)
        return intent.result

    def start_at(self, sim_time_s: float) -> None:
        """Wake the loop at the given simulated time: the oldest ready
        intent starts then, unless another is running."""
        self._runtime.sim.schedule_at(sim_time_s, self._start_next)

    def recover(self, insts: list) -> Optional[StepResult]:
        """Send a crash's recovery step now: one more step of the running
        intent, else its own ``recovery`` intent.  Returns the step as sent
        (retargeted like any other), or ``None`` once control has closed."""
        if self._handle() is None:
            return None
        if self._active is None:
            recovery = MigrationResult("")
            self.results.append(recovery)
            self._begin(
                _Intent(lambda _current: MigrationPlan("recovery"), 0.0, 0.0, None, None, recovery)
            )
        step = self._issue(insts)
        self._check_progress(None)
        return step

    # -- the queue -----------------------------------------------------------------

    def _begin(self, intent: _Intent) -> None:
        intent.plan = intent.plan_for(self.current)
        intent.result.strategy = intent.plan.strategy  # "" until now
        intent.result.started_at = self._runtime.sim.now
        self._active = intent

    def _start_next(self) -> None:
        """Start the oldest ready intent, unless one is running."""
        now = self._runtime.sim.now
        ready = [i for i in self._queue if i.at_s <= now]
        if self._active is not None or not ready:
            return
        intent = min(ready, key=lambda i: i.at_s)
        self._queue.remove(intent)
        self._begin(intent)
        self._issue_next(intent)

    # -- the loop: issue -> await -> complete -> pace ------------------------------

    def _issue_next(self, intent: _Intent) -> None:
        if intent is not self._active:
            return  # a pacing timer that outlived its intent
        self._issue_pending = False
        if intent.exhausted:
            self._finish()
            return
        insts = intent.plan.steps[intent.next].insts
        intent.next += 1
        if not insts:
            self._issue_next(intent)
            return
        self._issue(list(insts))
        if intent.pace_s is not None:
            self._runtime.sim.schedule(intent.pace_s, partial(self._issue_next, intent))
        # The frontier may conceivably already be past; check synchronously.
        self._check_progress(None)

    def _handle(self):
        """The open input handle control goes through — worker 0's, or under
        an injector the first live worker's — or None when there is none."""
        injector = self.faults.injector if self.faults is not None else None
        workers = [0] if injector is None else injector.live_workers()
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
        self._active.result.steps.append(result)
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
        intent = self._active
        if intent.pace_s is None:
            if not self._issue_pending:
                self._issue_pending = True
                self._runtime.sim.schedule(
                    intent.gap_s, partial(self._issue_next, intent)
                )
        else:
            self._finish()

    def _finish(self) -> None:
        """Report the running intent once nothing is left to issue or await
        (a timer-paced ``_issue_next`` runs off the plan's end earlier), then
        start the next ready one in the same callback."""
        intent = self._active
        if intent is None or not self._quiet:
            return
        self._active = None
        if intent.on_done is not None:
            intent.on_done(intent.result)
        self._start_next()

    # -- placement ---------------------------------------------------------------

    def placeable(self) -> Optional[list]:
        """The workers that may receive bins: live under the injector and,
        on elastic runs, ``joining`` or ``active`` in the directory.  If
        membership excludes every live worker, the live set, so every bin
        keeps an owner.  None when neither is attached: any worker may."""
        injector = self.faults.injector if self.faults is not None else None
        if injector is None and self.directory is None:
            return None
        live = list(injector.live_workers() if injector else range(self._runtime.num_workers))
        if self.directory is None:
            return live
        state_of = self.directory.state_of
        return [w for w in live if state_of(w) in ("joining", "active")] or live

    def _retarget(self, insts: list) -> list:
        """Final say over a step's instructions just before sending: each
        move onto a worker outside :meth:`placeable` goes to the placeable
        worker owning the fewest bins in ``current`` (lowest id on ties),
        and ``current`` advances past the result."""
        placeable = self.placeable()
        if placeable is not None and any(i.worker not in placeable for i in insts):
            counts = {w: len(self.current.bins_of(w)) for w in placeable}
            insts = [
                inst
                if inst.worker in counts
                else ControlInst(bin=inst.bin, worker=_least_loaded(counts))
                for inst in insts
            ]
        if insts:
            self.current = self.current.apply(insts)
        return insts

    # -- fault handling: timeouts and retries ------------------------------------

    def _arm_timeout(self, result: StepResult):
        """Schedule the current attempt's deadline (no-op without fault handling)."""
        if self.faults is None:
            return None
        delay = self.faults.retry.deadline_for(result.attempts)
        return self._runtime.sim.schedule(delay, partial(self._on_timeout, result))

    def _on_timeout(self, result: StepResult) -> None:
        if result not in self._awaiting:
            return
        retry = self.faults.retry
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
