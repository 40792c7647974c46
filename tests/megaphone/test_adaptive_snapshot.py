"""Tests for bin-granular snapshots."""

from repro.megaphone.control import BinnedConfiguration, stable_hash
from repro.megaphone.controller import EpochTicker
from repro.megaphone.operators import build_migrateable
from repro.megaphone.snapshot import SnapshotCoordinator, restore_into
from tests.helpers import make_dataflow

WORKERS = 2
BINS = 16


def build(initial=None, sink=None):
    df = make_dataflow(num_workers=WORKERS, workers_per_process=2)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")
    if initial is None:
        initial = BinnedConfiguration.round_robin(BINS, WORKERS)

    def applier(app):
        state = app.state
        for _tag, (key, val) in app.entries:
            state[key] = state.get(key, 0) + val
            if sink is not None:
                sink.append((app.time, key, state[key]))

    op = build_migrateable(
        control, [data], [lambda r: stable_hash(r[0])], applier,
        num_bins=BINS, name="snap", initial=initial,
    )
    probe = df.probe(op.output)
    runtime = df.build()
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    return df, runtime, control_group, data_group, probe, op, initial, ticker


def feed(runtime, data_group, n_epochs, keys=8):
    def make(e):
        def tick():
            for w, handle in enumerate(data_group.handles()):
                handle.send(e, [(f"k{(e + w) % keys}", 1)])
                handle.advance_to(e + 1)

        return tick

    for e in range(n_epochs):
        runtime.sim.schedule_at(e * 0.001, make(e))
    runtime.sim.schedule_at(n_epochs * 0.001, data_group.close_all)


def drain(runtime, ticker):
    runtime.run(until=0.2)
    ticker.stop()
    runtime.run_to_quiescence()


def test_snapshot_is_consistent_cut():
    outputs = []
    df, runtime, cg, dg, probe, op, initial, ticker = build(sink=outputs)
    snap_time = 40
    coordinator = SnapshotCoordinator(runtime, op, probe, snap_time)
    feed(runtime, dg, 80)
    drain(runtime, ticker)
    snapshot = coordinator.snapshot
    assert snapshot is not None
    assert snapshot.time == snap_time
    # The snapshot equals a sequential replay of all updates through the
    # cut (``passed(T)`` means T itself has been applied).
    expected = {}
    for time, key, _count in outputs:
        if time <= snap_time:
            expected[key] = expected.get(key, 0) + 1
    merged = {}
    for bin_snapshot in snapshot.bins.values():
        merged.update(bin_snapshot.state)
    assert merged == expected
    assert snapshot.total_bytes > 0
    # Captured placement matches the (unmigrated) initial configuration.
    assert snapshot.assignment() == {
        b: initial.worker_of(b) for b in snapshot.bins
    }


def test_snapshot_restore_resumes_computation():
    outputs = []
    df, runtime, cg, dg, probe, op, initial, ticker = build(sink=outputs)
    snap_time = 40
    coordinator = SnapshotCoordinator(runtime, op, probe, snap_time)
    feed(runtime, dg, 40)  # stop the input exactly at the snapshot time
    drain(runtime, ticker)
    snapshot = coordinator.snapshot
    assert snapshot is not None

    # A fresh dataflow, restored from the snapshot, then fed the "rest".
    outputs2 = []
    df2, runtime2, cg2, dg2, probe2, op2, initial2, ticker2 = build(sink=outputs2)
    restore_into(runtime2, op2, snapshot)

    def make(e):
        def tick():
            for w, handle in enumerate(dg2.handles()):
                handle.send(e, [(f"k{(e + w) % 8}", 1)])
                handle.advance_to(e + 1)

        return tick

    for e in range(40, 80):
        runtime2.sim.schedule_at((e - 40) * 0.001, make(e))
    runtime2.sim.schedule_at(0.040, dg2.close_all)
    drain(runtime2, ticker2)

    # Reference: one continuous run over all 80 epochs.
    outputs_ref = []
    df3, runtime3, cg3, dg3, probe3, op3, initial3, ticker3 = build(sink=outputs_ref)
    feed(runtime3, dg3, 80)
    drain(runtime3, ticker3)

    def final_counts(op_handle, run):
        counts = {}
        for w in range(WORKERS):
            store = op_handle.store(run, w)
            for b in store.resident_bins():
                counts.update(store.get(b).state)
        return counts

    assert final_counts(op2, runtime2) == final_counts(op3, runtime3)
