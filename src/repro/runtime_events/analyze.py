"""Trace analysis: migration timelines and per-bin phase attribution.

The paper's evaluation attributes migration latency to phases — how long a
bin waited for the system to drain, how long serialization took, how long
the bytes sat on the wire, how long installation and catch-up took.  This
module derives exactly that from the structured trace:

* :class:`MigrationTrace` subscribes to the bus's ``migration`` topic and
  assembles per-step and per-bin lifecycles from the events the
  controllers, F, and S publish.
* :meth:`MigrationTrace.phase_breakdown` turns a completed lifecycle into
  :class:`BinPhases` rows whose five phases partition, exactly, the
  interval from the step's issue to its frontier-confirmed completion:

  ``drain``     step issued → F extracts the bin (control propagation plus
                waiting for S's output frontier to reach the step time)
  ``extract``   modeled state-serialization CPU
  ``ship``      serialized state queued and in transit until S receives it
  ``install``   modeled state-deserialization CPU
  ``catch-up``  installation → the step timestamp clears S's output
                frontier (buffered records replayed, backlog drained)

  By construction ``drain + extract + ship + install + catch-up`` equals
  the bin's step duration, so per-step totals match the controller's
  measured :class:`~repro.megaphone.controller.StepResult` durations and —
  for completion-paced plans with no drain gap — sum to the measured
  migration duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.runtime_events.bus import TraceBus
from repro.runtime_events.events import (
    TOPIC_MIGRATION,
    BinMigrationPlanned,
    BinStateExtracted,
    BinStateInstalled,
    MigrationStepCompleted,
    MigrationStepIssued,
    MigrationStepOutcome,
)

PHASES = ("drain", "extract", "ship", "install", "catch-up")


@dataclass(slots=True)
class StepTrace:
    """Lifecycle of one reconfiguration step (one control timestamp)."""

    time: object
    moves: int = 0
    issued_at: Optional[float] = None
    completed_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.issued_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


@dataclass(slots=True)
class BinTrace:
    """Lifecycle of one migrating bin within a step."""

    time: object
    bin: int
    src: int = -1
    dst: int = -1
    size_bytes: float = 0.0
    planned_at: Optional[float] = None
    extracted_at: Optional[float] = None
    serialize_s: float = 0.0
    installed_at: Optional[float] = None
    deserialize_s: float = 0.0


@dataclass(frozen=True, slots=True)
class BinPhases:
    """Per-bin attribution of one step's duration across the five phases."""

    bin: int
    time: object
    src: int
    dst: int
    size_bytes: float
    drain_s: float
    extract_s: float
    ship_s: float
    install_s: float
    catchup_s: float

    @property
    def total_s(self) -> float:
        return (
            self.drain_s
            + self.extract_s
            + self.ship_s
            + self.install_s
            + self.catchup_s
        )

    def phase_values(self) -> tuple[float, ...]:
        """The five phase durations in :data:`PHASES` order."""
        return (
            self.drain_s,
            self.extract_s,
            self.ship_s,
            self.install_s,
            self.catchup_s,
        )


@dataclass
class MigrationBreakdown:
    """All completed per-bin phase rows of a run, in completion order."""

    rows: list[BinPhases] = field(default_factory=list)
    incomplete: int = 0  # bins observed but missing lifecycle events

    def step_totals(self) -> list[tuple[object, int, float]]:
        """Per-step ``(time, bins, duration_s)``; duration is the shared
        issue→completion span every bin of the step partitions."""
        seen: dict = {}
        order: list = []
        for row in self.rows:
            if row.time not in seen:
                seen[row.time] = (0, row.total_s)
                order.append(row.time)
            count, duration = seen[row.time]
            seen[row.time] = (count + 1, duration)
        return [(time, seen[time][0], seen[time][1]) for time in order]

    def total_duration(self) -> float:
        """Sum of per-step durations (equals the measured migration
        duration for completion-paced plans with no drain gap)."""
        return sum(duration for _, _, duration in self.step_totals())

    def phase_sums(self) -> dict[str, float]:
        """Total seconds attributed to each phase across all bins."""
        sums = dict.fromkeys(PHASES, 0.0)
        for row in self.rows:
            for phase, value in zip(PHASES, row.phase_values()):
                sums[phase] += value
        return sums


class MigrationTrace:
    """Bus subscriber assembling migration lifecycles from trace events.

    Purely observational: records event data, never mutates runtime state
    or schedules simulation events.  Works with any publisher mix — the
    controllers publish step issue/completion, F publishes plan/extract,
    S publishes install.
    """

    def __init__(self, bus: TraceBus) -> None:
        self.steps: dict = {}
        self.bins: dict = {}
        # Final per-step accounting (chosen batch, attempts, abandonment)
        # as published by the controllers; cost models and the CLI's
        # step-outcome table consume these alongside the per-bin phase rows.
        self.outcomes: dict = {}
        self._unsubscribe = bus.subscribe(self._on_event, topics=(TOPIC_MIGRATION,))

    def close(self) -> None:
        """Detach from the bus."""
        self._unsubscribe()

    # -- event intake --------------------------------------------------------

    def _step(self, time) -> StepTrace:
        step = self.steps.get(time)
        if step is None:
            step = self.steps[time] = StepTrace(time=time)
        return step

    def _bin(self, time, bin_id: int) -> BinTrace:
        key = (time, bin_id)
        trace = self.bins.get(key)
        if trace is None:
            trace = self.bins[key] = BinTrace(time=time, bin=bin_id)
        return trace

    def _on_event(self, event) -> None:
        kind = type(event)
        if kind is MigrationStepIssued:
            step = self._step(event.time)
            step.moves += event.moves
            if step.issued_at is None:
                step.issued_at = event.at
        elif kind is MigrationStepCompleted:
            step = self._step(event.time)
            if step.completed_at is None:
                step.completed_at = event.at
        elif kind is BinMigrationPlanned:
            trace = self._bin(event.time, event.bin)
            trace.src, trace.dst = event.src, event.dst
            if trace.planned_at is None:
                trace.planned_at = event.at
        elif kind is BinStateExtracted:
            trace = self._bin(event.time, event.bin)
            trace.src, trace.dst = event.src, event.dst
            trace.size_bytes = event.size_bytes
            trace.extracted_at = event.at
            trace.serialize_s = event.serialize_s
        elif kind is BinStateInstalled:
            trace = self._bin(event.time, event.bin)
            trace.installed_at = event.at
            trace.deserialize_s = event.deserialize_s
        elif kind is MigrationStepOutcome:
            self.outcomes[event.time] = event

    # -- queries -------------------------------------------------------------

    def step_duration(self, time) -> Optional[float]:
        """Issue→completion span of the step at ``time`` (None if pending)."""
        step = self.steps.get(time)
        return step.duration if step is not None else None

    def outcome_rows(self) -> list[MigrationStepOutcome]:
        """All step outcomes in completion order."""
        return sorted(self.outcomes.values(), key=lambda o: o.at)

    def phase_breakdown(self) -> MigrationBreakdown:
        """Per-bin phase attribution for every fully observed bin."""
        # Imported here: this package sits below ``repro.timely``.
        from repro.timely.timestamp import order_key

        breakdown = MigrationBreakdown()
        for (time, _bin_id), trace in sorted(
            self.bins.items(), key=lambda item: (order_key(item[0][0]), item[0][1])
        ):
            step = self.steps.get(time)
            started = step.issued_at if step is not None else trace.planned_at
            completed = step.completed_at if step is not None else None
            if (
                started is None
                or completed is None
                or trace.extracted_at is None
                or trace.installed_at is None
            ):
                breakdown.incomplete += 1
                continue
            extract_end = trace.extracted_at + trace.serialize_s
            install_end = trace.installed_at + trace.deserialize_s
            breakdown.rows.append(
                BinPhases(
                    bin=trace.bin,
                    time=time,
                    src=trace.src,
                    dst=trace.dst,
                    size_bytes=trace.size_bytes,
                    drain_s=trace.extracted_at - started,
                    extract_s=trace.serialize_s,
                    ship_s=trace.installed_at - extract_end,
                    install_s=trace.deserialize_s,
                    catchup_s=completed - install_end,
                )
            )
        return breakdown
