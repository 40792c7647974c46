"""Integration tests for the experiment harness."""

import pytest

from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.harness.openloop import Lcg
from repro.harness.workloads import CountWorkload, ModeledCountState, count_fold


def small_config(**overrides):
    defaults = dict(
        num_workers=4,
        workers_per_process=2,
        num_bins=16,
        domain=1 << 12,
        rate=5_000,
        duration_s=3.0,
        granularity_ms=10,
        bytes_per_key=512.0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_lcg_is_deterministic_and_spread():
    a, b = Lcg(7), Lcg(7)
    seq_a = [a.next() for _ in range(100)]
    seq_b = [b.next() for _ in range(100)]
    assert seq_a == seq_b
    assert len(set(v % 64 for v in seq_a)) > 32  # spreads across residues


def test_modeled_count_state():
    state = ModeledCountState(expected_keys=100)
    assert len(state) == 100
    first = state.add(42)
    assert first >= 1
    for _ in range(500):
        state.add(7)
    assert state.add(7) > first
    assert count_fold(1, 1, state) == [(1, state.records // 100 + 1)]


def test_workload_generator_stays_in_domain():
    workload = CountWorkload(domain=1000)
    generate = workload.make_generator()
    batch = generate(0, 0, 50)
    assert len(batch) == 50
    assert all(0 <= key < 1000 and diff == 1 for key, diff in batch)
    # Different workers draw different keys.
    assert generate(1, 0, 50) != generate(2, 0, 50)


def test_steady_state_experiment_runs_and_measures():
    res = run_count_experiment(small_config())
    assert res.records_injected == pytest.approx(5_000 * 3.0)
    assert res.migrations == []
    series = res.timeline.series()
    assert len(series) >= 10
    assert res.steady_max_latency() > 0
    # Under light load the system keeps up: latency well below a second.
    assert res.steady_max_latency() < 0.1


def test_native_experiment_runs():
    res = run_count_experiment(small_config(native=True))
    assert res.timeline.series()
    assert res.steady_max_latency() > 0


def test_native_has_lower_latency_than_high_bin_megaphone():
    """Figures 13-15's qualitative claim: Megaphone with a huge bin count
    costs noticeably more than native; with modest bins it is close.

    The blow-up appears when per-record routing cost times the offered rate
    approaches the per-worker CPU budget, so this test runs at a load where
    2^20 bins saturate the workers and 16 bins do not.
    """
    from repro.sim.cost import CostModel

    loaded = dict(
        rate=40_000,
        duration_s=2.0,
        cost=CostModel(record_cost=2e-6),
    )
    native = run_count_experiment(small_config(native=True, **loaded))
    modest = run_count_experiment(small_config(num_bins=16, **loaded))
    huge = run_count_experiment(small_config(num_bins=1 << 20, **loaded))
    p99_native = native.timeline.overall.percentile(0.99)
    p99_modest = modest.timeline.overall.percentile(0.99)
    p99_huge = huge.timeline.overall.percentile(0.99)
    assert p99_native <= p99_modest * 1.5
    assert p99_huge > 5 * p99_modest


def test_migration_experiment_records_all_artifacts():
    res = run_count_experiment(
        small_config(
            migrate_at_s=(1.0, 2.0),
            strategy="batched",
            batch_size=4,
            sample_memory=True,
        )
    )
    assert len(res.migrations) == 2
    for i in range(2):
        assert res.migration_duration(i) > 0
        assert res.migration_max_latency(i) > 0
    assert res.memory and all(tl.samples for tl in res.memory)


def test_all_at_once_spikes_above_fluid():
    """The paper's headline comparison at miniature scale."""
    base = dict(migrate_at_s=(1.0,), bytes_per_key=4096.0, num_bins=64)
    spike = run_count_experiment(
        small_config(strategy="all-at-once", **base)
    ).migration_max_latency(0)
    fluid = run_count_experiment(
        small_config(strategy="fluid", **base)
    ).migration_max_latency(0)
    assert spike > 3 * fluid


def test_drain_past_duration_ends_the_timeline_at_the_last_step():
    # Regression: a migration still running at duration_s + 1 was driven
    # in 100,000-event host chunks, and every idle epoch ticked until the
    # chunk ran out landed in the timeline (out to 159 s here).  The stop
    # is now the first tick where nothing is pending.
    result = run_count_experiment(
        small_config(
            domain=1 << 20,
            rate=2_000,
            duration_s=1.0,
            bytes_per_key=8.0,
            bandwidth_bytes_per_s=8e5,
            migrate_at_s=(0.5,),
            strategy="fluid",
        )
    )
    last_step = max(s.completed_at for m in result.migrations for s in m.steps)
    assert last_step > 1.0 + 1.0  # the migration outlasts the main run
    window = result.timeline.window_s
    assert result.timeline.series()[-1].start_s <= last_step + window


def test_memory_spike_only_for_all_at_once():
    base = dict(
        migrate_at_s=(1.0,),
        bytes_per_key=16384.0,
        num_bins=64,
        sample_memory=True,
        memory_sample_s=0.02,
        # Throttle the network so the all-at-once send-queue backlog is
        # visible to the sampler (the paper's Figure 20 effect).
        bandwidth_bytes_per_s=100e6,
    )
    spike_run = run_count_experiment(small_config(strategy="all-at-once", **base))
    fluid_run = run_count_experiment(small_config(strategy="fluid", **base))

    def overshoot(res):
        # Transient allocation above both the pre- and post-migration
        # steady levels (receivers legitimately end with more state).
        worst = 0.0
        for tl in res.memory:
            steady = max(tl.at(0.9), tl.at(2.5))
            worst = max(worst, tl.peak() - steady)
        return worst

    assert overshoot(spike_run) > 2 * overshoot(fluid_run) + 1e6


@pytest.mark.parametrize("pace_s", [0, -0.5, "0.01", lambda: 0.01])
def test_pace_s_must_be_a_positive_number(pace_s):
    with pytest.raises(ValueError, match="pace_s"):
        ExperimentConfig(pace_s=pace_s)
    assert ExperimentConfig(pace_s=0.01).pace_s == 0.01
