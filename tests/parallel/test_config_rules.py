"""What the sharded engine cannot run is rejected when the config is
constructed, with `ParallelConfigError`, and nowhere later."""

import pytest

from repro.chaos.plan import ChaosConfig
from repro.harness.experiment import ExperimentConfig, ParallelConfigError
from repro.nexmark.harness import run_nexmark_experiment
from repro.planner.policy import PlannerConfig

UNSUPPORTED = {
    "chaos": ({"chaos": ChaosConfig()}, "fault injection"),
    "planner": ({"planner": PlannerConfig()}, "planner"),
    "sample_memory": ({"sample_memory": True}, "memory sampling"),
    "collect_trace": ({"collect_trace": True}, "trace collection"),
    "native": ({"native": True}, "native"),
    "record_log": ({"record_log": "run.jsonl"}, "--record"),
    "export_metrics": ({"export_metrics": "-"}, "--export-metrics"),
    # Port 0 asks for an ephemeral port: set, though falsy.
    "metrics_port": ({"metrics_port": 0}, "--metrics-port"),
    "elastic": ({"active_workers": 4}, "elastic membership"),
    "negative": ({"parallel": -1}, "got -1"),
    "forked": ({"parallel": 2}, "forked execution (--parallel N, N >= 1) was removed"),
}


@pytest.mark.parametrize("case", sorted(UNSUPPORTED))
def test_rejected_at_construction(case):
    overrides, message = UNSUPPORTED[case]
    with pytest.raises(ParallelConfigError) as excinfo:
        ExperimentConfig(**{"parallel": 0, **overrides})
    assert message in str(excinfo.value)
    assert "--parallel 0" in str(excinfo.value)


def test_serial_config_is_not_subject_to_sharded_rules():
    cfg = ExperimentConfig(sample_memory=True, collect_trace=True, native=True)
    assert cfg.parallel is None


def test_nexmark_rejects_sharded_config():
    cfg = ExperimentConfig(
        num_workers=4, workers_per_process=2, duration_s=0.5, parallel=0
    )
    with pytest.raises(ParallelConfigError, match="serial engine only"):
        run_nexmark_experiment(3, cfg)
