"""Every experiment rule is checked when the config is constructed, raises
`ConfigError`, and names its field first — whether the config comes from
the library, the CLI, a matrix spec or a replayed log."""

import pytest

from repro.chaos.plan import ChaosConfig
from repro.harness.experiment import ConfigError, ExperimentConfig
from repro.nexmark.harness import run_nexmark_experiment
from repro.planner.policy import PlannerConfig


def _sharded(**overrides):
    return lambda: ExperimentConfig(parallel=0, **overrides)


# id -> (construction, leading field name, message fragment)
CASES = {
    "rate": (lambda: ExperimentConfig(rate=0), "rate", "must be positive"),
    "duration": (
        lambda: ExperimentConfig(duration_s=0), "duration_s", "must be positive"
    ),
    "network_latency": (
        lambda: ExperimentConfig(network_latency_s=0),
        "network_latency_s",
        "must be positive",
    ),
    "batch_size": (
        lambda: ExperimentConfig(batch_size=0, migrate_at_s=(1.0,)),
        "batch_size",
        "must be positive",
    ),
    "granularity": (
        lambda: ExperimentConfig(granularity_ms=0),
        "granularity_ms",
        "must be positive",
    ),
    "hot_fraction": (
        lambda: ExperimentConfig(hot_fraction=1.5),
        "hot_fraction",
        "within [0, 1]",
    ),
    "migrate_after_input_closes": (
        lambda: ExperimentConfig(migrate_at_s=(5.0,), duration_s=1.0),
        "migrate_at_s",
        "5.0 is outside (0, 1.0)",
    ),
    "backend": (
        lambda: ExperimentConfig(state_backend="rocksdb"),
        "state_backend",
        "'rocksdb': unknown state backend 'rocksdb'; registered: dict, sorted-log",
    ),
    "codec": (
        lambda: ExperimentConfig(codec="arrow"),
        "codec",
        "'arrow': unknown codec 'arrow'; registered: modeled",
    ),
    "bins": (
        lambda: ExperimentConfig(num_bins=12),
        "num_bins",
        "must be a power of two, got 12",
    ),
    "planner_drain": (
        lambda: PlannerConfig(objective="drain"),
        "drain_workers",
        "the drain objective",
    ),
    # What the sharded engine cannot run.
    "chaos": (_sharded(chaos=ChaosConfig()), "parallel", "fault injection"),
    "planner": (_sharded(planner=PlannerConfig()), "parallel", "planner"),
    "sample_memory": (_sharded(sample_memory=True), "parallel", "memory sampling"),
    "collect_trace": (_sharded(collect_trace=True), "parallel", "trace collection"),
    "native": (_sharded(native=True), "parallel", "native"),
    "record_log": (_sharded(record_log="run.jsonl"), "parallel", "--record"),
    "export_metrics": (_sharded(export_metrics="-"), "parallel", "--export-metrics"),
    # Port 0 asks for an ephemeral port: set, though falsy.
    "metrics_port": (_sharded(metrics_port=0), "parallel", "--metrics-port"),
    "elastic": (_sharded(active_workers=4), "parallel", "elastic membership"),
    "negative": (
        lambda: ExperimentConfig(parallel=-1), "parallel", "got -1"
    ),
    "forked": (
        lambda: ExperimentConfig(parallel=2),
        "parallel",
        "forked execution (--parallel N, N >= 1) was removed",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_at_construction(case):
    build, field, message = CASES[case]
    with pytest.raises(ConfigError) as excinfo:
        build()
    assert str(excinfo.value).startswith(field)
    assert message in str(excinfo.value)
    if field == "parallel":
        assert "--parallel 0" in str(excinfo.value)


def test_sequences_are_normalised_to_tuples():
    cfg = ExperimentConfig(migrate_at_s=[1.0, 2.0], collect_topic_counts=[])
    assert cfg.migrate_at_s == (1.0, 2.0)
    assert cfg.collect_topic_counts == ()


def test_serial_config_is_not_subject_to_sharded_rules():
    cfg = ExperimentConfig(sample_memory=True, collect_trace=True, native=True)
    assert cfg.parallel is None


def test_nexmark_rejects_sharded_config():
    cfg = ExperimentConfig(
        num_workers=4, workers_per_process=2, duration_s=0.5, parallel=0
    )
    with pytest.raises(ConfigError, match="serial engine only"):
        run_nexmark_experiment(3, cfg)
