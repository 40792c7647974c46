"""Determinism pin: the sharded engine replays the identical simulation.

The contract under test (DESIGN.md §14): for any strategy and state
backend, two ``parallel=0`` runs of one config produce byte-identical
routing/state fingerprints, identical event counts, and an identical
latency timeline, and the sharded engine is logically equivalent to the
legacy serial engine (same final per-worker state, same records).
"""

import pytest

from dataclasses import replace

from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.harness.experiment import result_fingerprint

STRATEGIES = ("all-at-once", "fluid", "batched", "optimized")
BACKENDS = ("dict", "wal")


def smoke_cfg(**overrides):
    cfg = ExperimentConfig(
        num_workers=4,
        workers_per_process=2,
        num_bins=16,
        domain=1 << 12,
        rate=1500.0,
        duration_s=1.5,
        migrate_at_s=(0.6,),
        strategy="batched",
        batch_size=4,
        # Sharded runs need window-scale latency; 10ms keeps the round
        # count (duration / lookahead) in the low hundreds.
        network_latency_s=10e-3,
    )
    return replace(cfg, **overrides)


def sharded_run(**overrides):
    return run_count_experiment(smoke_cfg(parallel=0, **overrides))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sharded_runs_are_reproducible(strategy, backend):
    first = sharded_run(strategy=strategy, state_backend=backend)
    again = sharded_run(strategy=strategy, state_backend=backend)
    assert result_fingerprint(again) == result_fingerprint(first)
    assert again.records_injected == first.records_injected > 0
    assert again.sim_events == first.sim_events
    assert again.state_fingerprints == first.state_fingerprints
    assert again.parallel["rounds"] == first.parallel["rounds"] > 0
    assert first.parallel["domains"] == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_is_logically_equivalent_to_legacy_serial(backend):
    """Same final state and record counts as the legacy serial engine.

    The sharded engine distributes progress tracking, so its event trace
    differs from the legacy centralized tracker by design; what must agree
    is everything the simulation *computes*: the records processed and the
    final per-worker stores.
    """
    for strategy in STRATEGIES:
        serial = run_count_experiment(
            smoke_cfg(
                strategy=strategy, state_backend=backend, fingerprint_state=True
            )
        )
        sharded = sharded_run(strategy=strategy, state_backend=backend)
        assert serial.records_injected == sharded.records_injected > 0, strategy
        assert serial.state_fingerprints == sharded.state_fingerprints, strategy
        assert len(serial.state_fingerprints) == 4


def test_migrations_complete_and_timeline_populated():
    result = sharded_run()
    assert result.migrations and result.migrations[0].steps
    assert all(
        step.completed_at is not None
        for migration in result.migrations
        for step in migration.steps
    )
    assert sum(stats.count for stats in result.timeline.series()) > 0
