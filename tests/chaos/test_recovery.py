"""Tests for the configuration ledger and crash/restart recovery."""

import pytest

from repro.chaos.recovery import ConfigurationLedger
from repro.megaphone.control import BinnedConfiguration, ControlInst


def test_ledger_tracks_control_steps():
    initial = BinnedConfiguration.round_robin(8, 2)
    ledger = ConfigurationLedger(initial)
    assert ledger.current is initial
    assert ledger.history == [initial]

    ledger.apply([ControlInst(bin=0, worker=1), ControlInst(bin=2, worker=1)])
    assert ledger.current.worker_of(0) == 1
    assert ledger.current.worker_of(2) == 1
    assert len(ledger.history) == 2
    assert 0 in ledger.bins_of(1)

    # Empty steps are no-ops (no phantom history entries).
    ledger.apply([])
    assert len(ledger.history) == 2


def test_ledger_converges_over_many_steps():
    initial = BinnedConfiguration.round_robin(8, 4)
    target = BinnedConfiguration(tuple((w + 1) % 4 for w in initial.assignment))
    ledger = ConfigurationLedger(initial)
    for inst in initial.moved_bins(target):
        ledger.apply([inst])
    assert ledger.current.assignment == target.assignment
    assert len(ledger.history) == 1 + len(initial.moved_bins(target))


@pytest.mark.slow
def test_crash_restart_restores_snapshot_state():
    from repro.chaos.experiment import run_chaos_experiment
    from repro.runtime_events.events import ProcessCrashed, ProcessRestarted

    run = run_chaos_experiment("crash-restart", "batched")
    assert run.live, run.verdict
    # The restarted process was reseeded from the mid-run snapshot.
    assert run.restored_bins > 0
    log = run.result.fault_log
    assert log.count(ProcessCrashed) == 1
    assert log.count(ProcessRestarted) == 1


@pytest.mark.slow
def test_crash_without_restart_retargets_bins_to_survivors():
    from repro.chaos.experiment import (
        default_chaos_experiment_config,
        migration_target_process,
        run_chaos_experiment,
    )
    from repro.runtime_events.events import StateReinstalled, WorkerExcluded

    cfg = default_chaos_experiment_config()
    crashed = migration_target_process(cfg)
    run = run_chaos_experiment("crash-target", "batched", cfg=cfg)
    assert run.live, run.verdict
    log = run.result.fault_log
    # Orphaned bins were reassigned away from the dead workers ...
    assert any(type(e) is WorkerExcluded for e in log.recovery)
    # ... and their snapshot state was installed on survivors only.
    dead = set(cfg.workers_per_process * crashed + i
               for i in range(cfg.workers_per_process))
    reinstalls = [e for e in log.recovery if type(e) is StateReinstalled]
    assert reinstalls
    assert all(e.worker not in dead for e in reinstalls)
    assert run.restored_bins > 0
