"""Delta migration end to end: base-then-delta shipping, fencing, retries.

The protocol under test: with ``delta_migration`` on and a delta-capable
backend, F ships each moving bin's *base* snapshot when the migration is
announced and only the keys dirtied since (plus the pending drain) when the
move executes.  S stages bases and merges deltas; installs are fenced so a
controller retry that double-ships a bin cannot clobber installed state.
"""

from repro.megaphone.bins import BinStore
from repro.megaphone.controller import FaultHandling
from repro.runtime_events.events import (
    TOPIC_MIGRATION,
    BinStateExtracted,
    BinStateInstalled,
)
from repro.state.wal import WalRegistry
from tests.megaphone.driver import drive_wordcount, expected_counts


def _collect_migration_events(events):
    """An ``instrument=`` hook appending migration events to ``events``."""

    def instrument(runtime):
        runtime.sim.trace.subscribe(events.append, topics=(TOPIC_MIGRATION,))

    return instrument


def _wal_options():
    return {"wal_registry": WalRegistry()}


def _drive(delta, state_backend="wal", **kwargs):
    events = []
    run = drive_wordcount(
        strategy="batched",
        state_backend=state_backend,
        backend_options=_wal_options() if state_backend == "wal" else None,
        delta_migration=delta,
        instrument=_collect_migration_events(events),
        **kwargs,
    )
    return run, events


def test_delta_migration_preserves_wordcount_correctness():
    run, _ = _drive(delta=True)
    assert run.final_counts() == expected_counts(run, 4, 40, 5, 20)


def test_delta_run_ships_base_then_delta():
    run, events = _drive(delta=True)
    extracted = [e for e in events if type(e) is BinStateExtracted]
    installed = [e for e in events if type(e) is BinStateInstalled]
    base_ex = [e for e in extracted if e.kind == "base"]
    delta_ex = [e for e in extracted if e.kind == "delta"]
    assert base_ex, "no base snapshots were shipped ahead"
    assert delta_ex, "no deltas were shipped at execution"
    # Every migrated bin ships exactly one base and one delta, base first.
    moved = {e.bin for e in delta_ex}
    assert {e.bin for e in base_ex} == moved
    for bin_id in moved:
        base_at = min(e.at for e in base_ex if e.bin == bin_id)
        delta_at = min(e.at for e in delta_ex if e.bin == bin_id)
        assert base_at <= delta_at
    # S staged each base and merged each delta.
    assert {e.bin for e in installed if e.kind == "base"} == moved
    assert {e.bin for e in installed if e.kind == "delta"} == moved


def test_delta_execution_ships_fewer_bytes_than_whole_bin():
    full_run, full_events = _drive(delta=False)
    delta_run, delta_events = _drive(delta=True)
    assert full_run.final_counts() == delta_run.final_counts()
    full_bytes = sum(
        e.size_bytes
        for e in full_events
        if type(e) is BinStateExtracted and e.kind == "full"
    )
    delta_bytes = sum(
        e.size_bytes
        for e in delta_events
        if type(e) is BinStateExtracted and e.kind == "delta"
    )
    # Routing flips at the announcement, so only writes racing the move
    # land in the delta — far fewer execution-time bytes than whole bins
    # (an idle bin legitimately ships an empty delta).
    assert delta_bytes < full_bytes
    assert full_bytes > 0


def test_delta_flag_degrades_to_full_on_incapable_backend():
    run, events = _drive(delta=True, state_backend="dict")
    assert run.final_counts() == expected_counts(run, 4, 40, 5, 20)
    kinds = {e.kind for e in events if type(e) is BinStateExtracted}
    assert kinds == {"full"}


def test_delta_migration_equivalent_across_backends():
    baseline, _ = _drive(delta=False, state_backend="dict")
    delta, _ = _drive(delta=True)
    assert baseline.final_counts() == delta.final_counts()


# -- install fencing ----------------------------------------------------------


def _store(worker_id=0):
    return BinStore(
        num_bins=8,
        state_factory=dict,
        worker_id=worker_id,
        backend="wal",
        backend_options=_wal_options(),
    )


def test_duplicate_fenced_install_is_a_no_op():
    src, dst = _store(0), _store(1)
    src.create(2)
    src.get(2).state["k"] = 1
    payload = src.extract(2)
    payload.pending = [(5, ("k", 1))]
    payload.fence = (2, 1)

    first = dst.install(payload)
    pending_after_first = len(first.pending)
    # A controller retry double-ships the same fenced payload.
    second = dst.install(payload)
    assert second is first
    assert len(first.pending) == pending_after_first  # not re-queued
    assert first.state["k"] == 1


def test_unfenced_install_still_replaces():
    dst = _store(1)
    src = _store(0)
    src.create(3)
    src.get(3).state["k"] = 7
    payload = src.extract(3)
    dst.install(payload)
    # Legacy path (no fence): a second install with replace is honored.
    src2 = _store(2)
    src2.create(3)
    src2.get(3).state["k"] = 9
    dst.install(src2.extract(3), replace=True)
    assert dst.get(3).state["k"] == 9


def test_round_trip_migration_reinstalls_after_fence_clear():
    a, b = _store(0), _store(1)
    a.create(5)
    a.get(5).state["x"] = 1
    out = a.extract(5)
    out.fence = (5, 1)
    b.install(out)
    # The bin migrates back: extract-with-remove clears b's fence...
    back = b.extract(5)
    back.fence = (5, 0)
    a2 = a.install(back)
    assert a2.state["x"] == 1
    # ...so a later re-migration to b under the same fence installs again.
    out2 = a.extract(5)
    out2.fence = (5, 1)
    again = b.install(out2)
    assert again.state["x"] == 1
    assert 5 in b.resident_bins()


# -- controller retry idempotence ---------------------------------------------


def test_retrying_a_completed_step_is_a_no_op():
    run, events = _drive(delta=True, faults=FaultHandling())
    controller = run.controller
    assert controller.done
    steps = run.result.steps
    assert steps and all(s.completed_at is not None for s in steps)
    extracted_before = sum(1 for e in events if type(e) is BinStateExtracted)
    attempts_before = [s.attempts for s in steps]
    # Fire the timeout path for every completed step: the guard must drop
    # each one without re-issuing (no new control messages, no attempts).
    for step in steps:
        controller._on_timeout(step)
    run.runtime.run_to_quiescence()
    assert [s.attempts for s in steps] == attempts_before
    extracted_after = sum(1 for e in events if type(e) is BinStateExtracted)
    assert extracted_after == extracted_before
    assert run.final_counts() == expected_counts(run, 4, 40, 5, 20)
