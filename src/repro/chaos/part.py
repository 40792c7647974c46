"""The chaos part of a run: the fault injector, storage faults on the
durable backend, the snapshot recovery restores from, the controller's
fault handling, crash recovery and the liveness watchdog."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from repro.chaos.inject import ChaosInjector, FaultLog
from repro.chaos.recovery import RecoveryCoordinator
from repro.chaos.watchdog import LivenessWatchdog, WatchdogConfig
from repro.megaphone.controller import FaultHandling, RetryPolicy
from repro.megaphone.snapshot import SnapshotCoordinator


def attach(run) -> Optional[SimpleNamespace]:
    """Attach fault injection when the config carries a ``ChaosConfig``."""
    cfg, op, runtime = run.config, run.op, run.runtime
    chaos = cfg.chaos
    if chaos is None:
        return None
    fault_log = FaultLog(run.sim.trace)
    run.injector = injector = ChaosInjector(runtime, chaos.plan)
    injector.install()
    snapshot = registry = None
    if op is not None:
        op.config.recovery_mode = True
        # Durable storage: crashes damage the worker logs (per the plan's
        # storage-fault knobs), and restarts recover from those logs
        # instead of in-memory snapshots.
        registry = op.config.backend_options.get("wal_registry")
        if registry is not None:
            injector.on_crash_storage(
                lambda crash, workers: registry.apply_crash_faults(
                    workers,
                    lose_unsynced_tail=crash.lose_unsynced_tail,
                    torn_write=crash.torn_write,
                    bit_flips=crash.bit_flips,
                    seed=chaos.plan.seed,
                )
            )
        if chaos.snapshot_at_s is not None:
            # A consistent cut at the epoch of the requested simulated time
            # (EpochTicker's mapping).
            tick = int(round(chaos.snapshot_at_s * 1000 / cfg.granularity_ms))
            epoch = tick * cfg.granularity_ms * cfg.dilation
            snapshot = SnapshotCoordinator(runtime, op, run.probe, epoch)
    controller = run.controller
    recovery = None
    if controller is not None:
        controller.faults = FaultHandling(chaos.retry or RetryPolicy(), injector)
        recovery = RecoveryCoordinator(
            runtime, op, controller, injector,
            snapshot_provider=lambda: snapshot and snapshot.snapshot,
            durable=registry is not None,
        )
    watchdog = LivenessWatchdog(
        runtime, run.probe, config=chaos.watchdog or WatchdogConfig(),
        injector=injector, controller=controller,
    )
    watchdog.start()
    # A watchdog that gave up settles the run: stop driving and report the
    # stall (verdict and diagnosis) instead of spinning.
    run.gave_up = lambda: watchdog.failed

    def finish(result) -> None:
        fault_log.close()
        result.chaos_verdict = watchdog.verdict
        result.chaos_recoveries = watchdog.recoveries
        result.chaos_diagnoses = list(watchdog.diagnoses)
        result.abandoned_steps = len(controller.abandoned) if controller else 0
        result.fault_log = fault_log
        if recovery is not None:
            result.recovered_fingerprints = dict(recovery.recovered_fingerprints)
            result.storage_faults = list(recovery.storage_faults)

    return SimpleNamespace(finish=finish)
