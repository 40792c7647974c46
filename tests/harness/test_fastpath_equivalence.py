"""Fast-path equivalence: optimized routing changes nothing observable.

F's columnar router (flat ``current_owners`` reads in steady state,
whole-column hashing, ``DestinationBatch`` slices) must be an
implementation detail of *wall clock* only.  The per-record oracle in
``tests/megaphone/reference_router.py`` — scalar splitmix64, memoized
``worker_for`` binary search on every batch — is swapped into every F for
the reference run; for every migration strategy the two runs must agree
byte for byte on everything simulated time can see: the latency series,
the migration results, the injected-record count, and even the number of
simulation events fired.
"""

import pytest

from repro.harness.experiment import ExperimentConfig, run_count_experiment
from tests.megaphone import reference_router

STRATEGIES = ("all-at-once", "fluid", "batched", "optimized")


def _config(strategy: str) -> ExperimentConfig:
    return ExperimentConfig(
        num_workers=4,
        workers_per_process=2,
        num_bins=32,
        rate=8_000.0,
        duration_s=2.5,
        granularity_ms=10,
        migrate_at_s=(1.0,),
        strategy=strategy,
        batch_size=4,
        seed=7,
        domain=1 << 14,
        variant="hash",
    )


def _run_reference(monkeypatch, cfg: ExperimentConfig):
    with monkeypatch.context() as patch:
        reference_router.install(patch)
        return run_count_experiment(cfg)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fast_path_matches_reference(monkeypatch, strategy):
    fast = run_count_experiment(_config(strategy))
    reference = _run_reference(monkeypatch, _config(strategy))

    # Identical latency series, window by window (dataclass equality
    # compares every float exactly — no tolerance).
    assert fast.timeline.series() == reference.timeline.series()
    assert (
        fast.timeline.overall.percentile(0.99)
        == reference.timeline.overall.percentile(0.99)
    )
    assert fast.steady_max_latency() == reference.steady_max_latency()
    assert fast.overall_max_latency() == reference.overall_max_latency()

    # Identical migration outcomes.
    assert len(fast.migrations) == len(reference.migrations)
    for got, want in zip(fast.migrations, reference.migrations):
        assert got.strategy == want.strategy
        assert got.started_at == want.started_at
        assert got.completed_at == want.completed_at
        assert len(got.steps) == len(want.steps)

    # Identical load and — the strongest check — an identical number of
    # simulation events: the two paths schedule the exact same work.
    assert fast.records_injected == reference.records_injected
    assert fast.sim_events == reference.sim_events


def test_fast_path_matches_reference_without_migrations(monkeypatch):
    """Steady state exercises the flat-owner read on every batch."""
    base = dict(
        num_workers=4,
        workers_per_process=2,
        num_bins=32,
        rate=8_000.0,
        duration_s=1.5,
        granularity_ms=10,
        migrate_at_s=(),
        seed=3,
        domain=1 << 14,
        variant="hash",
    )
    fast = run_count_experiment(ExperimentConfig(**base))
    reference = _run_reference(monkeypatch, ExperimentConfig(**base))
    assert fast.timeline.series() == reference.timeline.series()
    assert fast.records_injected == reference.records_injected
    assert fast.sim_events == reference.sim_events


@pytest.mark.parametrize(
    "rate, per_batch", [(4_800.0, 12), (200_000.0, 500)], ids=["12-record", "500-record"]
)
def test_result_fingerprint_is_independent_of_the_small_batch_cutoff(
    monkeypatch, rate, per_batch
):
    """The column representation is a host-side choice: source batches on
    either side of the cutoff give the same run — state, event count,
    migration steps, latency windows — whether every batch is numpy
    (cutoff 0), the default rule applies, or every batch is an array."""
    from repro.parallel.runner import result_fingerprint
    from repro.runtime_events import columns

    cfg = ExperimentConfig(
        num_workers=4,
        workers_per_process=2,
        num_bins=32,
        rate=rate,
        duration_s=0.5,
        granularity_ms=10,
        migrate_at_s=(0.2,),
        strategy="fluid",
        seed=5,
        domain=1 << 14,
        variant="hash",
        fingerprint_state=True,
    )
    assert rate * cfg.granularity_ms / 1000 / cfg.num_workers == per_batch
    default = columns.SMALL_BATCH_CUTOFF
    assert 12 < default <= 500
    fingerprints = set()
    for cutoff in (0, default, 10**9):
        monkeypatch.setattr(columns, "SMALL_BATCH_CUTOFF", cutoff)
        fingerprints.add(result_fingerprint(run_count_experiment(cfg)))
    assert len(fingerprints) == 1
