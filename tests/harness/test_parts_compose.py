"""Every optional part that can be combined attaches to one run: chaos on
the durable backend, elastic membership, memory sampling, the migration
trace, topic counts, metrics export and event-log recording."""

import dataclasses

from repro.chaos.experiment import scenario_chaos
from repro.elastic import ScalingPlan
from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.obsv.matrix import _bins_off_active
from repro.obsv.replay import replay_run


def test_every_part_attaches_to_one_run_and_it_replays(tmp_path):
    cfg = ExperimentConfig(
        num_workers=6, workers_per_process=2, num_bins=16, domain=4096,
        rate=2000, duration_s=4.0, strategy="fluid", active_workers=4,
        state_backend="wal",
        scaling_plan=ScalingPlan.parse("join@1.0:4,5;leave@3.0:4,5"),
        sample_memory=True, collect_trace=True, collect_topic_counts=(),
        export_metrics=str(tmp_path / "metrics.jsonl"),
        record_log=str(tmp_path / "run.jsonl"),
    )
    cfg = dataclasses.replace(cfg, chaos=scenario_chaos("crash-restart", cfg))
    result = run_count_experiment(cfg)

    assert result.chaos_verdict in ("completed", "recovered")
    assert result.fault_log.faults  # the crash happened
    assert [op.kind for op in result.scaling.completed()] == ["join", "drain"]
    assert result.scaling.residual_bins == 0
    assert _bins_off_active(result) == 0
    assert result.migration_trace is not None
    assert result.topic_counts["memory"] == sum(len(t.samples) for t in result.memory)
    assert (tmp_path / "metrics.jsonl").read_text()

    report = replay_run(str(tmp_path / "run.jsonl"))
    assert report.ok, (report.drifted_topics, report.expected_fingerprint)
