"""Liveness watchdog for Megaphone's Completion guarantee.

The paper's Completion property says every migration eventually finishes and
the output frontier keeps advancing.  Under fault injection that guarantee
is exactly what is at stake, so the watchdog observes the probed output
frontier and classifies the run:

* ``completed`` — the stream closed without the frontier ever stalling
  longer than the stall threshold;
* ``recovered`` — the frontier stalled at least once, recovery kicked in,
  and the stream still closed;
* ``stalled``  — the frontier made no progress for the give-up window; the
  watchdog stops the experiment with a structured :class:`StallDiagnosis`
  instead of letting it spin forever.

On each detected stall the watchdog nudges the run's one controller
(:meth:`~repro.megaphone.controller.MigrationController.nudge`, which
carries fault handling under chaos) so a stalled migration step is retried
immediately rather than waiting out its timeout.

The watchdog is also the simulation's clock-keeper under chaos: its
periodic check events keep simulated time moving across windows where the
dataflow itself has nothing scheduled (e.g. everything lost to a partition),
which is what gives timeouts and restarts a chance to fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.runtime_events.events import WatchdogRecovered, WatchdogStalled


@dataclass(frozen=True)
class WatchdogConfig:
    """Timing knobs of the liveness watchdog (simulated seconds)."""

    poll_interval_s: float = 0.25
    stall_after_s: float = 2.0
    give_up_after_s: float = 20.0

    def __post_init__(self) -> None:
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if not (0 < self.stall_after_s <= self.give_up_after_s):
            raise ValueError(
                "need 0 < stall_after_s <= give_up_after_s, got "
                f"{self.stall_after_s} / {self.give_up_after_s}"
            )


@dataclass
class StallDiagnosis:
    """Structured explanation of why the frontier is not advancing."""

    at: float
    last_advance_at: float
    frontier: tuple
    dead_workers: tuple = ()
    holding_capabilities: tuple = ()  # (op index, op name, times)
    in_flight_channels: tuple = ()  # (channel index, src op, dst op, times)
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"frontier stalled at {self.frontier!r} "
            f"(no advance since t={self.last_advance_at:.3f}s, "
            f"observed at t={self.at:.3f}s)"
        ]
        if self.dead_workers:
            lines.append(f"dead workers: {list(self.dead_workers)}")
        for op, name, times in self.holding_capabilities:
            lines.append(f"op {op} ({name}) holds capabilities at {times!r}")
        for ch, src, dst, times in self.in_flight_channels:
            lines.append(
                f"channel {ch} ({src}->{dst}) has in-flight batches at {times!r}"
            )
        lines.extend(self.notes)
        return "\n".join(lines)


class LivenessWatchdog:
    """Detects, reports, and (by nudging ``controller``) breaks frontier stalls."""

    def __init__(
        self,
        runtime,
        probe,
        config: Optional[WatchdogConfig] = None,
        injector=None,
        controller=None,
    ) -> None:
        self._runtime = runtime
        self._probe = probe
        self.config = config if config is not None else WatchdogConfig()
        self._injector = injector
        self._controller = controller
        self._started = False
        self._stopped = False
        self._stalled = False
        self._stall_began_at = 0.0
        self.last_advance_at = 0.0
        self.verdict: Optional[str] = None
        self.failed = False
        self.recoveries = 0
        self.diagnoses: list[StallDiagnosis] = []

    def start(self) -> None:
        """Begin watching; idempotent."""
        if self._started:
            return
        self._started = True
        self.last_advance_at = self._runtime.sim.now
        self._probe.on_advance(self._on_advance)
        self._schedule_check()

    def _schedule_check(self) -> None:
        self._runtime.sim.schedule(self.config.poll_interval_s, self._check)

    def _on_advance(self, frontier) -> None:
        now = self._runtime.sim.now
        self.last_advance_at = now
        if self._stalled:
            self._stalled = False
            self.recoveries += 1
            trace = self._runtime.sim.trace
            if trace.wants_recovery:
                trace.publish(
                    WatchdogRecovered(
                        at=now, stalled_for_s=now - self._stall_began_at
                    )
                )

    def _check(self) -> None:
        if self._stopped:
            return
        if self._probe.done():
            self.verdict = "recovered" if self.recoveries else "completed"
            self._stopped = True
            return
        now = self._runtime.sim.now
        idle_for = now - self.last_advance_at
        if idle_for >= self.config.give_up_after_s:
            self.verdict = "stalled"
            self.failed = True
            self._stopped = True
            self.diagnoses.append(self.diagnose())
            return
        if idle_for >= self.config.stall_after_s and not self._stalled:
            self._stalled = True
            self._stall_began_at = self.last_advance_at
            diagnosis = self.diagnose()
            self.diagnoses.append(diagnosis)
            trace = self._runtime.sim.trace
            if trace.wants_recovery:
                trace.publish(
                    WatchdogStalled(
                        at=now,
                        last_advance_at=self.last_advance_at,
                        frontier=tuple(self._probe.frontier()),
                    )
                )
            if self._controller is not None:
                self._controller.nudge()
        self._schedule_check()

    def diagnose(self) -> StallDiagnosis:
        """Snapshot who is holding the frontier back right now."""
        runtime = self._runtime
        tracker = runtime.tracker
        graph = runtime.graph
        holding = []
        for desc in graph.operators:
            times = tuple(tracker.capabilities(desc.index).frontier())
            if times:
                holding.append((desc.index, desc.name, times))
        in_flight = []
        for channel in graph.channels:
            times = tuple(tracker.in_flight(channel.index).frontier())
            if times:
                in_flight.append(
                    (channel.index, channel.src_op, channel.dst_op, times)
                )
        dead = ()
        notes = []
        if self._injector is not None:
            dead = tuple(self._injector.dead_workers())
            if dead:
                notes.append(
                    "crashed workers cannot drain the above; recovery must "
                    "retarget their bins or restart the process"
                )
        return StallDiagnosis(
            at=runtime.sim.now,
            last_advance_at=self.last_advance_at,
            frontier=tuple(self._probe.frontier()),
            dead_workers=dead,
            holding_capabilities=tuple(holding),
            in_flight_channels=tuple(in_flight),
            notes=notes,
        )
