"""Elastic scaling under fault injection: joins survive a process crash.

The scaling coordinator routes its migrations through the resilient
controller when the run carries a ChaosConfig, so a crash landing inside
the join window must not lose the operation: the retry/reconcile path
finishes seeding the joiners and the drain still empties its workers.
"""

import dataclasses

from repro.chaos.plan import ChaosConfig, FaultPlan, ProcessCrash
from repro.elastic import ScalingPlan
from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.runtime_events.events import MessageDropped, WorkerExcluded


def chaos_elastic_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        num_workers=6,
        workers_per_process=2,
        num_bins=16,
        domain=1 << 12,
        rate=2_000.0,
        duration_s=6.0,
        migrate_at_s=(),
        strategy="fluid",
        active_workers=4,
        scaling_plan=ScalingPlan.parse("join@1.5:4,5;leave@3.5:4,5"),
        fingerprint_state=True,
        # The join runs ~1.50-1.53s; crash process 1 (workers 2-3) right
        # inside that window and bring it back shortly after.
        chaos=ChaosConfig(
            plan=FaultPlan(
                seed=0,
                crashes=(
                    ProcessCrash(at_s=1.51, process=1, restart_after_s=0.8),
                ),
            ),
        ),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_crash_during_join_still_completes_scaling():
    result = run_count_experiment(chaos_elastic_config())
    assert result.chaos_verdict in ("completed", "recovered")
    report = result.scaling
    assert [op.kind for op in report.operations] == ["join", "drain"]
    assert all(op.completed_at is not None for op in report.operations)
    assert report.residual_bins == 0
    # The full lifecycle still lands in retirement for both leavers.
    final = {}
    for _at, w, _prev, state in result.membership:
        final[w] = state
    assert final[4] == "retired" and final[5] == "retired"


def test_chaos_elastic_run_is_deterministic():
    first = run_count_experiment(chaos_elastic_config())
    second = run_count_experiment(chaos_elastic_config())
    assert first.cluster_fingerprint == second.cluster_fingerprint
    assert first.records_injected == second.records_injected


def test_crash_during_drain_still_empties_leavers():
    cfg = chaos_elastic_config()
    cfg = dataclasses.replace(
        cfg,
        chaos=ChaosConfig(
            plan=FaultPlan(
                seed=0,
                crashes=(
                    ProcessCrash(at_s=3.51, process=1, restart_after_s=0.8),
                ),
            ),
        ),
    )
    result = run_count_experiment(cfg)
    assert result.chaos_verdict in ("completed", "recovered")
    assert result.scaling.residual_bins == 0
    assert all(
        op.completed_at is not None for op in result.scaling.operations
    )


def test_permanent_crash_without_a_scheduled_migration_is_reconciled():
    # Regression: only the first scheduled migration's controller
    # reconciled crashes, so a run without one left the dead workers' bins
    # orphaned and every record routed to them was dropped (2,155 here).
    cfg = chaos_elastic_config(
        scaling_plan=ScalingPlan.parse("join@1.5:4,5"),
        chaos=ChaosConfig(
            plan=FaultPlan(seed=0, crashes=(ProcessCrash(at_s=2.5, process=1),)),
        ),
    )
    result = run_count_experiment(cfg)
    log = result.fault_log
    assert sum(1 for e in log.recovery if type(e) is WorkerExcluded) == 2
    recoveries = [m for m in result.migrations if m.strategy == "recovery"]
    assert [len(m.steps) for m in recoveries] == [1]
    assert log.count(MessageDropped) <= 20
