"""Fault plans: the declarative, seeded description of what goes wrong.

A :class:`FaultPlan` lists faults with absolute simulated-time onsets.  The
plan itself is pure data — scheduling and enforcement live in
:mod:`repro.chaos.inject` — so the same plan can be validated, printed,
hashed into a report, and replayed byte-identically.

Determinism contract: the injector draws randomness from a private
``random.Random(plan.seed)``, and only for *lossy* links (``0 < drop_prob
< 1``).  Crashes, full partitions, and stalls consume no randomness at all,
so two runs with the same seed and plan produce identical event sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

ANY_PROCESS = -1
"""Wildcard for :class:`LinkFault` endpoints: matches every process."""


@dataclass(frozen=True)
class ProcessCrash:
    """Kill ``process`` at ``at_s``; optionally restart it later.

    A crash stops every worker the process hosts: pending work is discarded
    (with progress-accounting compensation), held capabilities are released,
    and in-flight messages addressed to its workers are dropped on arrival.
    With ``restart_after_s`` set, the process rejoins that many seconds
    later with freshly installed (empty) operators; the recovery
    coordinator may then reseed state from a snapshot — or, on a durable
    backend, replay each worker's write-ahead log.

    The storage-fault knobs model what the crash does to that durable log:
    ``torn_write`` appends a partial final frame (a write in flight at
    power-off), ``lose_unsynced_tail`` destroys every byte past the fsync
    horizon, and ``bit_flips`` flips that many seeded bits anywhere in the
    log.  All three are no-ops for in-memory backends.
    """

    at_s: float
    process: int
    restart_after_s: Optional[float] = None
    torn_write: bool = False
    lose_unsynced_tail: bool = False
    bit_flips: int = 0


@dataclass(frozen=True)
class LinkFault:
    """Degrade or sever links between processes for a window of time.

    Endpoints of :data:`ANY_PROCESS` match every process on that side.
    ``drop_prob`` is the per-message loss probability (1.0 = full
    partition, dropped without consulting the RNG); ``bandwidth_factor``
    scales the link's bandwidth (0.5 = half speed) and ``extra_latency_s``
    is added to its propagation delay while the window is open.
    """

    at_s: float
    duration_s: float
    src_process: int = ANY_PROCESS
    dst_process: int = ANY_PROCESS
    drop_prob: float = 0.0
    bandwidth_factor: float = 1.0
    extra_latency_s: float = 0.0


@dataclass(frozen=True)
class WorkerStall:
    """Stop (or slow) one worker's scheduling for a window of time.

    ``slowdown`` of 0.0 is a hard stall: activations due inside the window
    are deferred to its end.  A positive ``slowdown`` multiplies the CPU
    cost of every activation charged inside the window instead.
    """

    at_s: float
    duration_s: float
    worker: int
    slowdown: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one run."""

    seed: int = 0
    crashes: tuple[ProcessCrash, ...] = ()
    link_faults: tuple[LinkFault, ...] = ()
    stalls: tuple[WorkerStall, ...] = ()

    def validate(self, num_processes: int, num_workers: int) -> None:
        """Raise ``ValueError`` on out-of-range targets or bad windows."""
        for crash in self.crashes:
            if not 0 <= crash.process < num_processes:
                raise ValueError(
                    f"crash targets process {crash.process}, cluster has "
                    f"{num_processes}"
                )
            if crash.at_s < 0:
                raise ValueError(f"crash at_s must be >= 0, got {crash.at_s}")
            if crash.restart_after_s is not None and crash.restart_after_s <= 0:
                raise ValueError(
                    f"restart_after_s must be positive, got {crash.restart_after_s}"
                )
            if crash.bit_flips < 0:
                raise ValueError(
                    f"bit_flips must be >= 0, got {crash.bit_flips}"
                )
        by_process: dict[int, list[ProcessCrash]] = {}
        for crash in self.crashes:
            by_process.setdefault(crash.process, []).append(crash)
        for process, crashes in by_process.items():
            if len(crashes) > 1:
                raise ValueError(
                    f"process {process} crashes {len(crashes)} times; "
                    "at most one crash per process is supported"
                )
        for fault in self.link_faults:
            for end, label in (
                (fault.src_process, "src_process"),
                (fault.dst_process, "dst_process"),
            ):
                if end != ANY_PROCESS and not 0 <= end < num_processes:
                    raise ValueError(
                        f"link fault {label}={end} out of range for "
                        f"{num_processes} processes"
                    )
            if fault.duration_s <= 0:
                raise ValueError(
                    f"link fault duration must be positive, got {fault.duration_s}"
                )
            if not 0.0 <= fault.drop_prob <= 1.0:
                raise ValueError(
                    f"drop_prob must be in [0, 1], got {fault.drop_prob}"
                )
            if fault.bandwidth_factor <= 0:
                raise ValueError(
                    f"bandwidth_factor must be positive, got {fault.bandwidth_factor}"
                )
            if fault.extra_latency_s < 0:
                raise ValueError(
                    f"extra_latency_s must be >= 0, got {fault.extra_latency_s}"
                )
        for stall in self.stalls:
            if not 0 <= stall.worker < num_workers:
                raise ValueError(
                    f"stall targets worker {stall.worker}, cluster has "
                    f"{num_workers}"
                )
            if stall.duration_s <= 0:
                raise ValueError(
                    f"stall duration must be positive, got {stall.duration_s}"
                )
            if stall.slowdown < 0:
                raise ValueError(
                    f"slowdown must be >= 0, got {stall.slowdown}"
                )

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing."""
        return not (self.crashes or self.link_faults or self.stalls)


@dataclass
class ChaosConfig:
    """Everything the harness needs to run one chaos experiment.

    ``retry`` and ``watchdog`` default to ``None`` and are resolved to the
    stock :class:`~repro.megaphone.controller.RetryPolicy` (which the harness
    hands every controller inside its
    :class:`~repro.megaphone.controller.FaultHandling` bundle) and
    :class:`~repro.chaos.watchdog.WatchdogConfig` at wiring time, keeping
    this module import-light (no harness, no controller).

    ``snapshot_at_s`` arms periodic-free one-shot snapshotting: just before
    that simulated time the experiment captures every worker's bin state so
    recovery can reinstall it after a crash.  ``None`` recovers with empty
    bins (state loss is then visible in the output, by design).
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    retry: Optional[object] = None
    watchdog: Optional[object] = None
    snapshot_at_s: Optional[float] = None
