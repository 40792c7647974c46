"""Tests for the NEXMark experiment harness."""

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.nexmark.config import NexmarkConfig
from repro.nexmark.harness import STATEFUL_QUERIES, run_nexmark_experiment


def small_cfg(**overrides):
    defaults = dict(
        num_workers=4,
        workers_per_process=2,
        num_bins=16,
        rate=2_000,
        duration_s=2.0,
        granularity_ms=10,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_rejects_unknown_query():
    with pytest.raises(ValueError, match="query must be one of"):
        run_nexmark_experiment(9, small_cfg())


@pytest.mark.parametrize("query", sorted(STATEFUL_QUERIES))
def test_every_stateful_query_runs_with_migration(query):
    cfg = small_cfg(migrate_at_s=(1.0,), strategy="batched", batch_size=4)
    res = run_nexmark_experiment(query, cfg)
    assert res.records_injected == pytest.approx(4_000)
    assert len(res.migrations) == 1
    assert res.migrations[0].completed_at is not None
    assert res.timeline.series()


@pytest.mark.parametrize("query", [1, 2])
def test_stateless_queries_run_native_and_megaphone(query):
    for native in (True, False):
        res = run_nexmark_experiment(query, small_cfg(native=native))
        assert res.timeline.series()


def test_dilation_threads_through():
    cfg = small_cfg(dilation=30, migrate_at_s=(1.0,))
    res = run_nexmark_experiment(7, cfg)
    # Migration timestamps are in the dilated event-time domain.
    assert res.migrations[0].steps[0].time >= 30_000


def test_memory_sampling_collects_state_bytes():
    cfg = small_cfg(
        sample_memory=True, memory_sample_s=0.1,
        query=3, nexmark=NexmarkConfig(state_bytes_scale=100.0),
    )
    res = run_nexmark_experiment(3, cfg)
    assert res.memory
    # Q3 state grows without bound: the last samples outweigh the first.
    tl = res.memory[0]
    assert tl.samples[-1].rss_bytes > tl.samples[0].rss_bytes
