"""DictBackend must be byte-identical to the seed's raw-dict bin state.

The fingerprints below were captured on the pre-backend code with the exact
config in :func:`_config`.  The backend refactor routes every state access
through ``repro.state``, so these runs reproducing the hashes bit-for-bit is
the proof that the default path changed representation, not behavior: same
latency series, same memory samples, same migration timings, same simulator
event count (re-pinned once, when same-instant callbacks began to share a
heap entry), for every migration strategy.

If a change legitimately alters simulation behavior, recapture the hashes
and say so in the commit; an accidental diff here is a regression.
"""

import hashlib

import pytest

from repro.harness.experiment import ExperimentConfig, run_count_experiment

GOLDEN_LATENCY = {
    "all-at-once": "c9d366d35da0d8ce71d6146550e3c43755773edebb2e6f644aee47e5d81e5de7",
    "fluid": "0e37ef5923a3e8fca78ba65f1a203ca449ac593f21ac7561e1e64bafadaf9de7",
    "batched": "27871c7183db13d8a6cd1648a98888aeed61fdc9bb6c301a36f3fdc7a1489edb",
    "optimized": "76b68215c2130d39ce7876592607f61cab72cac5e6c695b4ae85bbed76f6abbf",
}
# The memory timeline does not depend on the strategy's step granularity at
# this sampling period: all four strategies share one fingerprint.
GOLDEN_MEMORY = "41a81a41ff945db1b82efae40b3a476f41faa959aee22c82947846055ee9e859"
GOLDEN_MIGRATION = {
    "all-at-once": (1.0003054881999998, 1),
    "fluid": (1.0701951384000001, 8),
    "batched": (1.0102170268000001, 2),
    "optimized": (1.0301937634, 4),
}
# Heap entries fired.  The seed fired one entry per callback (26,953,
# 27,130, 26,979 and 27,033 callbacks, in this order); the engine now
# groups the callbacks due at one instant into one entry, including those
# scheduled at that instant while the entry fires, and fires the same
# callbacks in the same order.
GOLDEN_SIM_EVENTS = {
    "all-at-once": 10050,
    "fluid": 10158,
    "batched": 10066,
    "optimized": 10100,
}
GOLDEN_RECORDS = 20000


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
        sample_memory=True,
        memory_sample_s=0.25,
    )


def _latency_fingerprint(res) -> str:
    series = tuple(
        (s.start_s, s.count, s.max_s, s.p50_s, s.p99_s)
        for s in res.timeline.series()
    )
    return hashlib.sha256(repr(series).encode()).hexdigest()


def _memory_fingerprint(res) -> str:
    # rss_bytes moved from float to int in the backend refactor; normalize
    # so the hash still compares against the float-era capture.
    samples = tuple(
        (round(x.time, 6), float(x.rss_bytes))
        for tl in res.memory
        for x in tl.samples
    )
    return hashlib.sha256(repr(samples).encode()).hexdigest()


@pytest.mark.parametrize("strategy", sorted(GOLDEN_LATENCY))
def test_dict_backend_reproduces_seed_fingerprints(strategy):
    cfg = _config(strategy)
    assert cfg.state_backend == "dict"  # the default must stay the seed path
    assert cfg.codec == "modeled"
    res = run_count_experiment(cfg)
    assert _latency_fingerprint(res) == GOLDEN_LATENCY[strategy]
    assert _memory_fingerprint(res) == GOLDEN_MEMORY
    migration = res.migrations[0]
    assert migration.started_at == 1.0
    assert (migration.completed_at, len(migration.steps)) == GOLDEN_MIGRATION[strategy]
    assert res.records_injected == GOLDEN_RECORDS
    assert res.sim_events == GOLDEN_SIM_EVENTS[strategy]
