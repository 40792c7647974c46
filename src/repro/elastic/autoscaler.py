"""The autoscaler: closing the loop from load telemetry to membership.

A Dhalion-style policy loop: every ``decide_s`` simulated seconds the
autoscaler reads the windowed per-worker load from
:class:`~repro.planner.telemetry.LoadTelemetry`, averages it over the
*active* workers only (standby and retired slots would dilute the mean),
and feeds the ``threshold`` policy:

* mean load ``>= scale_out_load`` for ``trigger_samples`` consecutive
  decisions arms a scale-out of ``step`` workers;
* mean load ``<= scale_in_load`` for ``trigger_samples`` consecutive
  decisions arms a scale-in of ``step`` workers;
* anything between the thresholds resets both streaks.

Anti-thrash, SkewDetector-style: the hysteresis band between the two
thresholds means a workload sitting near one threshold cannot alternate
decisions, the consecutive-sample requirement filters single-window
spikes, and ``cooldown_s`` after any action lets the migrated load
picture stabilize before the next decision counts.  Bounds
(``min_workers``/``max_workers``/provisioned slots) and an in-flight
scaling operation suppress a fired trigger; suppressions are published as
``hold`` decisions with the suppressing reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.runtime_events.events import AutoscaleDecision

# Registered policy names -> one-line description (printed by `repro.cli
# list`).  The policy field of AutoscalerConfig must name one of these.
POLICIES = {
    "threshold": (
        "hysteresis thresholds on mean active-worker load "
        "(scale_out_load/scale_in_load, consecutive samples, cooldown)"
    ),
}


@dataclass
class AutoscalerConfig:
    """Knobs of the autoscaler's policy loop."""

    policy: str = "threshold"
    # Decision cadence: first decision at start_s, then every decide_s,
    # until stop_s (None = the experiment duration).
    start_s: float = 1.0
    decide_s: float = 0.5
    stop_s: Optional[float] = None
    # Threshold policy: records/s per active worker.
    scale_out_load: float = 1500.0
    scale_in_load: float = 400.0
    trigger_samples: int = 2
    cooldown_s: float = 3.0
    # Membership bounds: max_workers of 0 means "every provisioned slot".
    min_workers: int = 1
    max_workers: int = 0
    step: int = 1

    def validate(self, num_workers: int) -> None:
        """Check the knobs against a provisioned universe."""
        if self.policy not in POLICIES:
            raise ConfigError(
                f"policy {self.policy!r} is not a registered autoscaler "
                f"policy; registered: {tuple(POLICIES)}"
            )
        if self.scale_in_load >= self.scale_out_load:
            raise ConfigError(
                "scale_in_load must be below scale_out_load "
                f"({self.scale_in_load} >= {self.scale_out_load}): the gap "
                "is the hysteresis band that prevents thrash"
            )
        if self.min_workers < 1:
            raise ConfigError("min_workers must be at least 1")
        if self.max_workers and not (
            self.min_workers <= self.max_workers <= num_workers
        ):
            raise ConfigError(
                f"max_workers must be in {self.min_workers}.."
                f"{num_workers}, got {self.max_workers}"
            )
        if self.step < 1:
            raise ConfigError("step must be at least 1")
        if self.decide_s <= 0:
            raise ConfigError("decide_s must be positive")


class Autoscaler:
    """Periodic policy decisions over telemetry, membership, and bounds."""

    def __init__(
        self,
        runtime,
        telemetry,
        directory,
        coordinator,
        config: AutoscalerConfig,
    ) -> None:
        self._runtime = runtime
        self._telemetry = telemetry
        self._directory = directory
        self._coordinator = coordinator
        self.config = config
        self._above = 0
        self._below = 0
        self._last_action_at = float("-inf")
        self._stopped = False
        self.decisions: list[AutoscaleDecision] = []

    def start(self) -> None:
        """Schedule the decision loop."""
        self._runtime.sim.schedule_at(self.config.start_s, self._tick)

    def stop(self) -> None:
        self._stopped = True

    # -- the decision loop -----------------------------------------------------

    def _tick(self) -> None:
        sim = self._runtime.sim
        if self._stopped or (
            self.config.stop_s is not None and sim.now > self.config.stop_s
        ):
            return
        loads = self._telemetry.worker_load()
        active = self._directory.active()
        mean = (
            sum(loads.get(w, 0.0) for w in active) / len(active)
            if active
            else 0.0
        )
        self.decide(mean, now=sim.now)
        sim.schedule(self.config.decide_s, self._tick)

    def decide(self, mean_load: float, now: float = 0.0) -> str:
        """Feed one mean-load sample through the policy; returns the action.

        Separated from the scheduling wrapper so tests can drive the
        policy sample by sample.
        """
        cfg = self.config
        if mean_load >= cfg.scale_out_load:
            self._above += 1
            self._below = 0
        elif mean_load <= cfg.scale_in_load:
            self._below += 1
            self._above = 0
        else:
            self._above = 0
            self._below = 0
        action = "none"
        if self._above >= cfg.trigger_samples:
            action = self._try_scale_out(mean_load, now)
            self._above = 0
        elif self._below >= cfg.trigger_samples:
            action = self._try_scale_in(mean_load, now)
            self._below = 0
        return action

    def _limit(self) -> int:
        provisioned = self._directory.num_workers
        return min(self.config.max_workers or provisioned, provisioned)

    def _suppressed(self, now: float) -> Optional[str]:
        if now - self._last_action_at < self.config.cooldown_s:
            return "cooldown"
        if self._coordinator is not None and self._coordinator.busy:
            return "busy"
        return None

    def _try_scale_out(self, mean_load: float, now: float) -> str:
        active = self._directory.active()
        target = min(len(active) + self.config.step, self._limit())
        reason = self._suppressed(now)
        if reason is None and target <= len(active):
            reason = "at-max"
        standby = self._directory.standby()
        if reason is None and not standby:
            reason = "no-standby"
        if reason is not None:
            self._publish("hold", reason, mean_load, len(active), target, now)
            return "hold"
        joiners = tuple(standby[: target - len(active)])
        self._last_action_at = now
        self._publish(
            "scale-out", "load-high", mean_load, len(active), target, now
        )
        self._coordinator.scale_out(joiners)
        return "scale-out"

    def _try_scale_in(self, mean_load: float, now: float) -> str:
        active = self._directory.active()
        target = max(len(active) - self.config.step, self.config.min_workers)
        reason = self._suppressed(now)
        if reason is None and target >= len(active):
            reason = "at-min"
        if reason is not None:
            self._publish("hold", reason, mean_load, len(active), target, now)
            return "hold"
        # Drain the highest active ids (worker 0 never leaves).
        leavers = tuple(active[target - len(active):])
        self._last_action_at = now
        self._publish(
            "scale-in", "load-low", mean_load, len(active), target, now
        )
        self._coordinator.scale_in(leavers)
        return "scale-in"

    def _publish(
        self,
        action: str,
        reason: str,
        mean_load: float,
        active: int,
        target: int,
        now: float,
    ) -> None:
        decision = AutoscaleDecision(
            action=action,
            reason=reason,
            mean_load=mean_load,
            active=active,
            target=target,
            at=now,
        )
        self.decisions.append(decision)
        trace = self._runtime.sim.trace if self._runtime is not None else None
        if trace is not None and trace.wants_membership:
            trace.publish(decision)
