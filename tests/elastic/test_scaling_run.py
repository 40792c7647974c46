"""End-to-end elastic runs: the zero-lost-records / clean-drain guarantees.

The acceptance scenario: provision 6 slots, start 4 active, join workers
4-5 mid-run, drain them again — and require the run to be indistinguishable
(record count, global state fingerprint) from a static-membership twin,
with every drained worker ending empty.
"""

import dataclasses

import pytest

from repro.elastic import AutoscalerConfig, ScalingPlan
from repro.harness.experiment import ExperimentConfig, run_count_experiment


def elastic_config(**overrides) -> ExperimentConfig:
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
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("backend", ["dict", "wal"])
def test_scale_out_and_drain_match_static_twin(backend):
    cfg = elastic_config(state_backend=backend)
    result = run_count_experiment(cfg)
    twin = run_count_experiment(
        dataclasses.replace(cfg, scaling_plan=None)
    )

    # Zero lost or duplicated records: same injected count, and the
    # owner-independent digest over every bin's final state is identical.
    assert result.records_injected == twin.records_injected == 12_000
    assert result.cluster_fingerprint is not None
    assert result.cluster_fingerprint == twin.cluster_fingerprint

    # Both scaling operations completed and the drain left nothing behind.
    report = result.scaling
    assert [op.kind for op in report.operations] == ["join", "drain"]
    assert all(op.completed_at is not None for op in report.operations)
    assert report.residual_bins == 0

    # Workers 4 and 5 walked the full lifecycle and ended retired.
    transitions = [(w, prev, state) for _at, w, prev, state in result.membership]
    for w in (4, 5):
        assert (w, "standby", "joining") in transitions
        assert (w, "joining", "active") in transitions
        assert (w, "active", "draining") in transitions
        assert (w, "draining", "retired") in transitions


def test_elastic_run_is_deterministic():
    first = run_count_experiment(elastic_config())
    second = run_count_experiment(elastic_config())
    assert first.cluster_fingerprint == second.cluster_fingerprint
    assert first.records_injected == second.records_injected
    assert first.membership == second.membership


def test_scale_out_only_ends_with_six_active():
    cfg = elastic_config(scaling_plan=ScalingPlan.parse("join@1.5:4,5"))
    result = run_count_experiment(cfg)
    assert [op.kind for op in result.scaling.operations] == ["join"]
    states = {w: "active" for w in range(4)}
    for _at, w, _prev, state in result.membership:
        states[w] = state
    assert all(states[w] == "active" for w in range(6))


def test_autoscaler_closed_loop_scales_out_under_load():
    cfg = elastic_config(
        scaling_plan=None,
        rate=4_000.0,
        autoscale=AutoscalerConfig(
            scale_out_load=800.0,
            scale_in_load=200.0,
            cooldown_s=1.5,
        ),
    )
    result = run_count_experiment(cfg)
    actions = [d.action for d in result.autoscale_decisions]
    assert "scale-out" in actions
    assert all(op.completed_at is not None for op in result.scaling.operations)
    assert result.scaling.residual_bins == 0


def test_timer_paced_drain_waits_for_the_last_step():
    # Regression: under timer pacing the controller reported the drain done
    # when the last step was *issued*, so the coordinator closed the
    # evacuees' inputs with 18 bins still resident on them.
    cfg = ExperimentConfig(
        num_workers=6, workers_per_process=2, num_bins=64, domain=4096,
        rate=20000, duration_s=3.0, scaling_plan=ScalingPlan.parse("leave@1.0:4,5"),
        strategy="batched", batch_size=2, pace_s=0.0005, bytes_per_key=4000.0,
        fingerprint_state=True,
    )
    paced = run_count_experiment(cfg)
    awaited = run_count_experiment(dataclasses.replace(cfg, pace_s=None))
    assert paced.scaling.residual_bins == 0
    assert paced.records_injected == awaited.records_injected == 60_000
    assert paced.cluster_fingerprint == awaited.cluster_fingerprint
    drain = paced.scaling.operations[0]
    assert drain.completed_at >= max(
        step.completed_at for step in paced.migrations[0].steps
    )


def test_config_validation_rejects_elastic_misuse():
    with pytest.raises(ValueError):
        # 6 % 4 != 0: ragged process groups.
        ExperimentConfig(num_workers=6, workers_per_process=4)
    with pytest.raises(ValueError):
        elastic_config(active_workers=0)
    with pytest.raises(ValueError):
        elastic_config(parallel=0)
    with pytest.raises(ValueError):
        elastic_config(native=True)
    with pytest.raises(ValueError):
        # Joining a worker that is not the lowest standby id.
        elastic_config(scaling_plan=ScalingPlan.parse("join@1.5:5"))
