"""Tests for crash/restart recovery and the recovery step's routing."""

import pytest


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


def test_a_crash_after_the_control_input_closed_sends_no_recovery_step():
    # Nothing is left to reconcile once the run's control input has closed:
    # the crash must not report an empty "recovery" migration.
    from repro.chaos.plan import ChaosConfig, FaultPlan, ProcessCrash
    from repro.harness.experiment import ExperimentConfig, run_count_experiment

    cfg = ExperimentConfig(
        num_workers=4, workers_per_process=2, num_bins=16, domain=1024,
        rate=2_000.0, duration_s=2.0, migrate_at_s=(0.5,),
        chaos=ChaosConfig(
            plan=FaultPlan(seed=0, crashes=(ProcessCrash(at_s=20.0, process=1),)),
        ),
    )
    result = run_count_experiment(cfg)
    assert result.chaos_verdict == "completed"
    assert [m.strategy for m in result.migrations] == ["batched"]


def _crash_run(crash_at_s, **overrides):
    from repro.chaos.plan import ChaosConfig, FaultPlan, ProcessCrash
    from repro.harness.experiment import ExperimentConfig, run_count_experiment

    fields = dict(
        num_workers=4, workers_per_process=2, num_bins=16, domain=1024,
        rate=2_000.0, duration_s=4.0,
        chaos=ChaosConfig(
            plan=FaultPlan(
                seed=0, crashes=(ProcessCrash(at_s=crash_at_s, process=1),)
            ),
        ),
    )
    fields.update(overrides)
    result = run_count_experiment(ExperimentConfig(**fields))
    assert result.chaos_verdict == "completed"
    return result


def test_a_crash_before_a_scheduled_migration_starts_runs_its_own_recovery():
    # Regression: the recovery step rode with the first controller not
    # done, which counted a scheduled migration that had not started yet.
    # Its completion then started migration 1 at 2.0 s instead of 3.0 s.
    result = _crash_run(2.0, migrate_at_s=(1.0, 3.0))
    first, second, recovery = result.migrations
    assert first.completed_at < 2.0
    assert second.started_at >= 3.0
    assert recovery.strategy == "recovery"
    assert len(recovery.steps) == 1
    assert recovery.started_at == pytest.approx(2.0, abs=1e-3)


def test_a_recovery_step_in_the_drain_gap_keeps_the_pacing():
    # Regression: a recovery step that rode with a migration between two
    # steps and settled inside the drain gap scheduled a second issue
    # chain, so later steps went out less than ``gap_s`` after the
    # previous one completed.
    paced = dict(
        migrate_at_s=(1.0,), strategy="batched", batch_size=1, gap_s=1.0,
        duration_s=6.0,
    )
    clean = _crash_run(100.0, **paced).migrations[0].steps
    crash_at = (clean[0].completed_at + clean[1].issued_at) / 2
    (migration,) = _crash_run(crash_at, **paced).migrations
    planned = [s for s in migration.steps if s.issued_at != crash_at]
    assert len(planned) == len(clean) >= 3
    assert len(migration.steps) == len(planned) + 1
    for prev, step in zip(planned, planned[1:]):
        assert step.issued_at >= prev.completed_at + 1.0 - 1e-9
