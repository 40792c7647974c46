"""Storage faults under chaos: torn writes, lost tails, durable recovery.

The acceptance line: a seeded crash mid-migration on the wal backend with a
torn final write and a lost unsynced tail recovers state whose fingerprint
is byte-identical to a fault-free run at the same fsync horizon.
"""

import hashlib

import pytest

from repro.chaos.experiment import (
    default_chaos_experiment_config,
    run_chaos_experiment,
)
from repro.chaos.recovery import store_fingerprint
from repro.megaphone.bins import BinStore
from repro.runtime_events.events import StorageFaultReport
from repro.state.wal import WalRegistry
from tests.megaphone import reference_router

EMPTY_FINGERPRINT = hashlib.sha256().hexdigest()


def _wal_cfg(**overrides):
    return default_chaos_experiment_config(state_backend="wal", **overrides)


# -- end to end ---------------------------------------------------------------


@pytest.mark.slow
def test_crash_storage_recovers_and_reports_damage():
    run = run_chaos_experiment("crash-storage", "batched", cfg=_wal_cfg(), seed=3)
    assert run.live, run.verdict
    faults = run.result.storage_faults
    assert faults, "durable recovery found no storage damage to report"
    for report in faults:
        assert report.torn_frame  # the scenario tears the final write
        assert report.truncated_bytes > 0  # ...and recovery repaired it
        assert report.frames_replayed > 0  # the rest of the log replayed
        assert report.bins_recovered > 0
    # The reports also went out on the faults topic.
    on_bus = [
        e for e in run.result.fault_log.faults if type(e) is StorageFaultReport
    ]
    assert {(r.worker, r.at) for r in on_bus} == {
        (r.worker, r.at) for r in faults
    }
    assert run.result.recovered_fingerprints


@pytest.mark.slow
def test_storage_damage_does_not_change_recovered_state():
    """Faulted vs clean-storage crash: identical recovered fingerprints."""
    faulted = run_chaos_experiment(
        "crash-storage", "batched", cfg=_wal_cfg(), seed=3
    )
    clean = run_chaos_experiment(
        "crash-restart", "batched", cfg=_wal_cfg(), seed=3
    )
    assert faulted.live and clean.live
    assert faulted.result.recovered_fingerprints == (
        clean.result.recovered_fingerprints
    )
    # Only the faulted run saw damage.
    assert faulted.result.storage_faults
    assert not clean.result.storage_faults


@pytest.mark.slow
def test_crash_storage_is_deterministic():
    def signature():
        run = run_chaos_experiment(
            "crash-storage", "batched", cfg=_wal_cfg(), seed=7
        )
        return (
            run.verdict,
            run.result.recovered_fingerprints,
            [
                (r.worker, r.torn_frame, r.truncated_bytes, r.frames_replayed)
                for r in run.result.storage_faults
            ],
        )

    assert signature() == signature()


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["dict", "tiered", "wal"])
@pytest.mark.parametrize("oracle", [False, True])
def test_crash_restart_matrix_across_backends(monkeypatch, backend, oracle):
    # ``oracle`` routes every F through the per-record reference router, so
    # recovery's rerouting is also checked against the per-record path.
    if oracle:
        reference_router.install(monkeypatch)
    cfg = default_chaos_experiment_config(state_backend=backend)
    run = run_chaos_experiment("crash-restart", "batched", cfg=cfg, seed=0)
    assert run.live, f"{backend}/oracle={oracle}: {run.verdict}"


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["dict", "tiered", "wal"])
def test_crash_storage_matrix_across_backends(backend):
    # On in-memory backends crash-storage degrades to plain crash-restart;
    # on wal it must still hold Completion with a damaged log.
    cfg = default_chaos_experiment_config(state_backend=backend)
    run = run_chaos_experiment("crash-storage", "batched", cfg=cfg, seed=1)
    assert run.live, f"{backend}: {run.verdict}"


# -- the fingerprint criterion, mid-migration, store level --------------------


def _apply_traffic(store, bins, rounds):
    """Deterministic writes with per-batch commit (fsync on every batch)."""
    for r in range(rounds):
        for bin_id in bins:
            state = store.get(bin_id).state
            state[f"k{r % 13}"] = r * 31 + bin_id
            store.note_applied(bin_id, 1)


def _mid_migration_store(registry, crash):
    """A worker mid-migration: one bin shipped out, one installed, traffic.

    With ``crash`` the store then suffers torn-write + lost-tail damage and
    is rebuilt from its log; otherwise it is returned as-is.  Fault-free
    and crashed twins end at the same fsync horizon, so their fingerprints
    must match byte for byte.
    """
    store = BinStore(
        num_bins=8,
        state_factory=dict,
        worker_id=0,
        backend="wal",
        backend_options={"wal_registry": registry, "sync_every": 1},
    )
    for bin_id in (0, 1, 2):
        store.create(bin_id)
    _apply_traffic(store, (0, 1, 2), rounds=20)
    # Mid-migration: bin 2 leaves, bin 5 arrives from another worker.
    donor = BinStore(
        num_bins=8,
        state_factory=dict,
        worker_id=9,
        backend="wal",
        backend_options={"wal_registry": WalRegistry()},
    )
    donor.create(5)
    donor.get(5).state["from"] = 9
    inbound = donor.extract(5)
    inbound.fence = (5, 0)
    store.extract(2)
    store.install(inbound)
    _apply_traffic(store, (0, 1, 5), rounds=5)
    if not crash:
        return store
    # Writes past the fsync horizon (no note_applied): the crash destroys
    # them, pulling the recovered state back to exactly the horizon the
    # fault-free twin stopped at.
    store.get(0).state["volatile"] = -1
    store.get(5).state["volatile"] = -2
    registry.apply_crash_faults(
        [0], torn_write=True, lose_unsynced_tail=True, seed=42
    )
    return BinStore(
        num_bins=8,
        state_factory=dict,
        worker_id=0,
        backend="wal",
        backend_options={"wal_registry": registry, "sync_every": 1},
    )


def test_mid_migration_crash_fingerprint_matches_fault_free_run():
    recovered = _mid_migration_store(WalRegistry(), crash=True)
    fault_free = _mid_migration_store(WalRegistry(), crash=False)
    lhs = store_fingerprint(recovered)
    rhs = store_fingerprint(fault_free)
    assert lhs == rhs
    assert lhs != EMPTY_FINGERPRINT  # the stores hold real state
    assert sorted(recovered.resident_bins()) == [0, 1, 5]
    # The damage was real and detected.
    recovery = recovered.backend.last_recovery
    assert recovery is not None
    assert recovery.torn_frame
    assert recovery.lost_tail_bytes >= 0
    assert recovery.truncated_bytes > 0
