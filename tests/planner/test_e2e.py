"""End-to-end: the closed-loop planner un-skews a hot-key run.

The acceptance scenario: a skewed workload concentrates heat on a few
bins; the static baseline stays imbalanced for the whole run, while the
planner-enabled run detects the skew, migrates, and converges to a
near-balanced assignment — without blowing the latency envelope.
"""

import dataclasses

import pytest

from repro.harness.experiment import (
    ExperimentConfig,
    result_fingerprint,
    run_count_experiment,
)
from repro.obsv.eventlog import config_to_dict
from repro.planner import PlannerConfig, TelemetryConfig


def skew_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_workers=4,
        num_bins=64,
        domain=1 << 12,
        rate=20_000.0,
        duration_s=8.0,
        workload="skewed",
        hot_keys=12,
        hot_fraction=0.85,
        zipf_exponent=0.8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def planner_config(**overrides) -> PlannerConfig:
    base = dict(
        telemetry=TelemetryConfig(sample_s=0.25, window_s=1.0),
        decide_s=0.5,
        start_s=1.0,
        cooldown_s=1.5,
        min_gain=0.05,
    )
    base.update(overrides)
    return PlannerConfig(**base)


@pytest.mark.slow
def test_planner_converges_to_lower_imbalance_than_static():
    planner_run = run_count_experiment(
        skew_config(planner=planner_config())
    )
    static_run = run_count_experiment(
        skew_config(planner=planner_config(propose_only=True))
    )
    # The static baseline stays skewed...
    assert static_run.final_imbalance > 1.5
    assert not static_run.migrations
    # ...the planner migrates and converges (the paper-style acceptance
    # line: max/mean within 1.25x).
    assert planner_run.migrations
    assert planner_run.final_imbalance <= 1.25
    assert planner_run.final_imbalance < static_run.final_imbalance
    report = planner_run.planner
    assert report.adopted
    adopted = report.adopted[0]
    assert adopted.plan.provenance.source == "planner"
    assert adopted.predicted_gain > 0


@pytest.mark.slow
def test_planner_latency_stays_in_batched_envelope():
    """Planner-driven migration must not cost more latency than the same
    moves executed as one static batched migration."""
    planner_run = run_count_experiment(skew_config(planner=planner_config()))
    batched_run = run_count_experiment(
        skew_config(migrate_at_s=(3.0,), strategy="batched", batch_size=16)
    )
    assert planner_run.overall_max_latency() <= (
        2.0 * batched_run.overall_max_latency()
    )


@pytest.mark.slow
def test_cost_model_predictions_within_2x_of_observed():
    """Fig 18 angle: the calibrated cost model's per-step predictions land
    within 2x of the measured step durations."""
    run = run_count_experiment(
        skew_config(planner=planner_config(), collect_trace=True)
    )
    model = run.cost_model
    assert model is not None and model.calibrated
    trace = run.migration_trace
    predicted_total = observed_total = 0.0
    ratios = []
    for outcome in trace.outcome_rows():
        if outcome.abandoned or outcome.duration_s <= 0:
            continue
        moves = [
            (bin_trace.src, bin_trace.dst, bin_trace.size_bytes)
            for (time, _), bin_trace in trace.bins.items()
            if time == outcome.time and bin_trace.src is not None
        ]
        if not moves:
            continue
        predicted = model.predict_step_s(moves)
        predicted_total += predicted
        observed_total += outcome.duration_s
        ratios.append(predicted / outcome.duration_s)
    assert len(ratios) >= 1
    # Aggregate prediction within 2x of aggregate observation; individual
    # steps mostly within 2x too (the first step can complete near an epoch
    # boundary and read artificially short).
    assert 0.5 <= predicted_total / observed_total <= 2.0
    in_band = sum(1 for r in ratios if 0.5 <= r <= 2.0)
    assert in_band >= len(ratios) / 2


def test_planner_balances_after_a_scheduled_migration():
    # Regression: the planner planned from its own copy of the assignment,
    # which never saw the scheduled migration's moves, and ended at 1.715.
    run = run_count_experiment(
        skew_config(
            planner=planner_config(),
            workers_per_process=2,
            migrate_at_s=(0.5,),
            strategy="batched",
            batch_size=16,
        )
    )
    assert run.final_imbalance <= 1.25


def test_a_run_leaves_its_planner_config_untouched():
    # Regression: the harness wrote the run's duration into the caller's
    # PlannerConfig.stop_s, so the same config reused with a shorter
    # duration kept deciding after its input closed.
    cfg = skew_config(duration_s=3.0, planner=planner_config())
    before = config_to_dict(cfg)
    run_count_experiment(cfg)
    assert config_to_dict(cfg) == before
    reused = dataclasses.replace(cfg, duration_s=2.0)  # shares cfg.planner
    fresh = skew_config(duration_s=2.0, planner=planner_config())
    assert result_fingerprint(run_count_experiment(reused)) == result_fingerprint(
        run_count_experiment(fresh)
    )


def test_skewed_workload_is_deterministic_and_skewed():
    cfg = skew_config()
    workload = cfg.make_workload()
    generator = workload.make_generator()
    a = generator(0, 0, 500)
    b = cfg.make_workload().make_generator()(0, 0, 500)
    assert a == b  # deterministic in the seed
    hot = set(workload.hot_key_set())
    hot_share = sum(1 for key, _ in a if key in hot) / len(a)
    assert hot_share > 0.7  # hot_fraction=0.85 minus uniform-draw noise
    assert len(workload.hot_bin_ids(cfg.num_bins)) <= cfg.hot_keys
