"""Load telemetry: sliding-window per-bin heat and per-worker load.

The paper's premise (§1, §5.3) is that streaming systems need to *react*
to load imbalance — hot keys, drifting key distributions, scale events —
by migrating state.  Reacting requires measurement.  This module samples
each worker's :class:`~repro.megaphone.bins.BinStore` statistics on a
fixed simulated-time cadence and maintains:

* per-bin record throughput over a sliding window (the bin "heat" the
  planner packs), reset-aware across migrations (extraction clears a
  backend's per-bin counters, so deltas are recomputed from zero after a
  bin moves);
* per-bin state bytes (what a move of the bin would ship);
* per-worker load — the sum of its resident bins' heat — published as
  :class:`~repro.runtime_events.events.WorkerLoadSampled`;
* a skew verdict from :class:`SkewDetector`, hysteresis-filtered so a
  single noisy sample neither triggers nor clears a migration.

``LoadTelemetry`` is a *behavioral* component, not a bus subscriber: it
schedules its own sampling events on the simulator (like the chaos
injector or a controller), and only publishes to the bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.runtime_events.events import SkewCleared, SkewDetected, WorkerLoadSampled


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling cadence, window, and skew-detector hysteresis."""

    sample_s: float = 0.25  # simulated seconds between samples
    window_s: float = 2.0  # sliding window the heat estimate covers
    # Hysteresis: skew triggers when max/mean load exceeds trigger_ratio
    # for trigger_samples consecutive samples, and clears only when it
    # falls below release_ratio for release_samples consecutive samples.
    trigger_ratio: float = 1.5
    release_ratio: float = 1.2
    trigger_samples: int = 2
    release_samples: int = 2

    @property
    def window_samples(self) -> int:
        return max(1, int(round(self.window_s / self.sample_s)))


class SkewDetector:
    """Hysteresis filter over the worker-load imbalance ratio.

    Two thresholds with consecutive-sample debouncing: the detector flips
    to *skewed* after ``trigger_samples`` samples at or above
    ``trigger_ratio``, and back after ``release_samples`` samples at or
    below ``release_ratio``.  In between (the hysteresis band) it holds
    its state, so a ratio oscillating around one threshold cannot make
    the planner thrash.
    """

    def __init__(self, config: TelemetryConfig) -> None:
        self._config = config
        self.skewed = False
        self._above = 0
        self._below = 0

    def observe(self, ratio: float) -> Optional[str]:
        """Feed one imbalance sample; returns ``"triggered"`` /
        ``"cleared"`` on a state change, else None."""
        cfg = self._config
        if not self.skewed:
            if ratio >= cfg.trigger_ratio:
                self._above += 1
                if self._above >= cfg.trigger_samples:
                    self.skewed = True
                    self._above = 0
                    self._below = 0
                    return "triggered"
            else:
                self._above = 0
            return None
        if ratio <= cfg.release_ratio:
            self._below += 1
            if self._below >= cfg.release_samples:
                self.skewed = False
                self._above = 0
                self._below = 0
                return "cleared"
        else:
            self._below = 0
        return None


class LoadTelemetry:
    """Samples per-worker bin stats into sliding-window load estimates."""

    def __init__(
        self,
        runtime,
        op,
        config: Optional[TelemetryConfig] = None,
        num_workers: Optional[int] = None,
    ) -> None:
        self._runtime = runtime
        self._op = op
        self.config = config if config is not None else TelemetryConfig()
        self._num_workers = (
            num_workers if num_workers is not None else len(runtime.workers)
        )
        self._store_key = f"megaphone:{op.config.name}"
        self.detector = SkewDetector(self.config)
        # Per-bin cumulative record counts from the previous sample, and
        # the sliding window of per-sample deltas.
        self._prev_records: dict[int, int] = {}
        self._windows: dict[int, list[int]] = {}
        self._bin_bytes: dict[int, int] = {}
        self._owner: dict[int, int] = {}
        self.samples = 0
        self._stopped = False

    # -- sampling loop -------------------------------------------------------

    def start(self, at_s: float = 0.0) -> None:
        """Begin sampling at the given simulated time."""
        self._runtime.sim.schedule_at(at_s, self._sample)

    def stop(self) -> None:
        """Stop sampling at the next tick."""
        self._stopped = True

    def _sample(self) -> None:
        if self._stopped:
            return
        sim = self._runtime.sim
        keep = self.config.window_samples
        seen: set[int] = set()
        for worker in range(self._num_workers):
            store = self._runtime.workers[worker].shared.get(self._store_key)
            if store is None:
                continue
            for bin_id, stats in store.stats().items():
                seen.add(bin_id)
                self._owner[bin_id] = worker
                self._bin_bytes[bin_id] = int(stats.total_bytes)
                current = stats.records
                previous = self._prev_records.get(bin_id, 0)
                # Reset-aware delta: migration extracts the bin and clears
                # its backend counters, so a smaller cumulative count means
                # the count restarted from zero on the new owner.
                delta = current - previous if current >= previous else current
                self._prev_records[bin_id] = current
                window = self._windows.setdefault(bin_id, [])
                window.append(delta)
                if len(window) > keep:
                    del window[: len(window) - keep]
        # Bins that vanished (mid-migration) keep their last owner/window;
        # they re-appear on the destination at the next sample.
        self.samples += 1
        loads = self.worker_load()
        trace = sim.trace
        if trace.wants_planner:
            for worker in range(self._num_workers):
                store = self._runtime.workers[worker].shared.get(self._store_key)
                trace.publish(
                    WorkerLoadSampled(
                        worker=worker,
                        load=loads.get(worker, 0.0),
                        bins=len(store.resident_bins()) if store else 0,
                        state_bytes=(
                            store.total_state_size() if store else 0
                        ),
                        at=sim.now,
                    )
                )
        ratio = self.imbalance()
        change = self.detector.observe(ratio)
        if change == "triggered" and trace.wants_planner:
            hot = max(loads, key=lambda w: loads[w]) if loads else -1
            trace.publish(
                SkewDetected(
                    ratio=ratio,
                    trigger=self.config.trigger_ratio,
                    hot_worker=hot,
                    at=sim.now,
                )
            )
        elif change == "cleared" and trace.wants_planner:
            trace.publish(
                SkewCleared(
                    ratio=ratio, release=self.config.release_ratio, at=sim.now
                )
            )
        sim.schedule(self.config.sample_s, self._sample)

    # -- queries -------------------------------------------------------------

    def bin_load(self) -> dict[int, float]:
        """Windowed records/s per bin (the heat the planner packs)."""
        span = self.config.sample_s * self.config.window_samples
        return {
            bin_id: sum(window) / span
            for bin_id, window in self._windows.items()
        }

    def bin_bytes(self) -> dict[int, int]:
        """Last-sampled state bytes per bin (what a move would ship)."""
        return dict(self._bin_bytes)

    def owner_of(self) -> dict[int, int]:
        """Last-observed resident worker per bin."""
        return dict(self._owner)

    def worker_load(self) -> dict[int, float]:
        """Windowed records/s per worker (sum over its resident bins)."""
        loads = {w: 0.0 for w in range(self._num_workers)}
        for bin_id, load in self.bin_load().items():
            owner = self._owner.get(bin_id)
            if owner is not None:
                loads[owner] = loads.get(owner, 0.0) + load
        return loads

    def imbalance(self) -> float:
        """Max/mean worker load (1.0 = perfectly balanced, 0 = no load)."""
        return imbalance_ratio(self.worker_load())

    @property
    def skewed(self) -> bool:
        """The detector's current (hysteresis-filtered) verdict."""
        return self.detector.skewed

    @property
    def observed_window_s(self) -> float:
        """Simulated seconds of load the current estimates cover."""
        return self.config.sample_s * min(
            self.samples, self.config.window_samples
        )


def imbalance_ratio(loads: dict[int, float]) -> float:
    """Max/mean over the load map (0.0 when empty or all-zero)."""
    if not loads:
        return 0.0
    total = sum(loads.values())
    if total <= 0.0:
        return 0.0
    mean = total / len(loads)
    return max(loads.values()) / mean


def run_telemetry(run, config: Optional[TelemetryConfig] = None) -> LoadTelemetry:
    """A run's one load telemetry, built for its planner or its
    autoscaler: sampling from 0 s until the tick at which the run settles."""
    telemetry = LoadTelemetry(
        run.runtime, run.op, config, num_workers=run.config.num_workers
    )
    telemetry.start(0.0)
    run.on_settled.append(telemetry.stop)
    return telemetry
