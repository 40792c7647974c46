"""Acceptance tests: every strategy survives faults, deterministically.

These are the subsystem's reason to exist: under a seeded fault plan that
crashes the migration-target process mid-step, all four migration
strategies must still drain (Completion holds, possibly via recovery), and
the whole run must be a pure function of (plan, seed).
"""

import pytest

from repro.chaos.experiment import (
    SCENARIOS,
    default_chaos_experiment_config,
    run_chaos_experiment,
    scenario_chaos,
)
from repro.chaos.plan import ChaosConfig, FaultPlan
from repro.megaphone.migration import STRATEGIES


@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_survives_crash_during_migration(strategy):
    run = run_chaos_experiment("crash-target", strategy)
    assert run.live, (
        f"{strategy} wedged under crash-target: "
        + "\n".join(d.describe() for d in run.result.chaos_diagnoses)
    )
    # The crash actually disturbed the run (messages to dead workers lost).
    assert run.dropped_messages > 0


@pytest.mark.slow
@pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "crash-target"])
def test_remaining_scenarios_survive_with_batched(scenario):
    run = run_chaos_experiment(scenario, "batched")
    assert run.live, run.verdict


def _fingerprint(run):
    log = run.result.fault_log
    return {
        "verdict": run.verdict,
        "recoveries": run.recoveries,
        "abandoned": run.abandoned_steps,
        "restored": run.restored_bins,
        "faults": [(type(e).__name__, e.at) for e in log.faults],
        "recovery": [(type(e).__name__, e.at) for e in log.recovery],
        "injected": run.result.records_injected,
        "timeline": run.result.timeline.series(),
    }


@pytest.mark.slow
def test_same_seed_same_plan_is_deterministic():
    first = run_chaos_experiment("lossy", "fluid", seed=3)
    second = run_chaos_experiment("lossy", "fluid", seed=3)
    assert _fingerprint(first) == _fingerprint(second)


@pytest.mark.slow
def test_different_seed_changes_lossy_outcome():
    first = run_chaos_experiment("lossy", "fluid", seed=3)
    second = run_chaos_experiment("lossy", "fluid", seed=4)
    # Both must stay live; the loss pattern (hence the fault log) differs.
    assert first.live and second.live
    first_log = first.result.fault_log
    second_log = second.result.fault_log
    assert [e.at for e in first_log.faults] != [e.at for e in second_log.faults]


@pytest.mark.slow
def test_empty_plan_behaves_like_no_chaos():
    from dataclasses import replace

    from repro.harness.experiment import run_count_experiment

    cfg = default_chaos_experiment_config(duration_s=4.0)
    baseline = run_count_experiment(replace(cfg, chaos=None))
    empty = run_count_experiment(
        replace(cfg, chaos=ChaosConfig(plan=FaultPlan()))
    )
    # No faults to inject: the dataflow's observable behavior is unchanged.
    assert empty.chaos_verdict == "completed"
    assert empty.chaos_recoveries == 0
    assert empty.abandoned_steps == 0
    assert not empty.fault_log.faults
    assert empty.records_injected == baseline.records_injected
    assert empty.timeline.series() == baseline.timeline.series()
    assert len(empty.migrations) == len(baseline.migrations)
    for ours, theirs in zip(empty.migrations, baseline.migrations):
        assert len(ours.steps) == len(theirs.steps)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario_chaos("meteor-strike", default_chaos_experiment_config())


@pytest.mark.slow
def test_matrix_runs_all_strategies():
    for strategy in STRATEGIES:
        run = run_chaos_experiment("stall", strategy)
        assert run.strategy == strategy
        assert run.live, (strategy, run.verdict)
