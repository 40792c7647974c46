"""Tests for the adaptive step source and bin-granular snapshots."""

import pytest

from repro.megaphone.control import BinnedConfiguration, stable_hash
from repro.megaphone.controller import (
    AdaptiveConfig,
    AdaptiveSteps,
    EpochTicker,
    MigrationController,
)
from repro.megaphone.operators import build_migrateable
from repro.megaphone.snapshot import SnapshotCoordinator, restore_into
from tests.helpers import make_dataflow

WORKERS = 2
BINS = 16


def build(initial=None, sink=None, num_bins=BINS):
    df = make_dataflow(num_workers=WORKERS, workers_per_process=2)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")
    if initial is None:
        initial = BinnedConfiguration.round_robin(num_bins, WORKERS)

    def applier(app):
        state = app.state
        for _tag, (key, val) in app.entries:
            state[key] = state.get(key, 0) + val
            if sink is not None:
                sink.append((app.time, key, state[key]))

    op = build_migrateable(
        control, [data], [lambda r: stable_hash(r[0])], applier,
        num_bins=num_bins, name="snap", initial=initial,
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


def drain(runtime, ticker, controller=None):
    runtime.run(until=0.2)
    guard = 0
    while controller is not None and not controller.done:
        runtime.sim.run(max_events=10_000)
        guard += 1
        assert guard < 500
    ticker.stop()
    runtime.run_to_quiescence()


def run_adaptive(config, num_bins=BINS, n_epochs=80):
    """Swap every bin to the other worker under the adaptive step source."""
    df, runtime, cg, dg, probe, op, initial, ticker = build(num_bins=num_bins)
    target = BinnedConfiguration(tuple((w + 1) % WORKERS for w in initial.assignment))
    controller = MigrationController(
        runtime, cg, ticker, probe, AdaptiveSteps(initial, target, config=config)
    )
    controller.start_at(0.02)
    feed(runtime, dg, n_epochs)
    drain(runtime, ticker, controller)
    assert controller.done
    return controller, runtime, op, initial, target


def test_adaptive_controller_migrates_everything():
    controller, runtime, op, initial, target = run_adaptive(
        AdaptiveConfig(initial_batch=1, target_step_s=0.01)
    )
    assert controller.result.strategy == "adaptive"
    moved = sum(s.moves for s in controller.result.steps)
    assert moved == len(initial.moved_bins(target))
    for worker in range(WORKERS):
        store = op.store(runtime, worker)
        assert sorted(store.resident_bins()) == sorted(target.bins_of(worker))


def test_adaptive_controller_grows_batches_when_cheap():
    controller, *_ = run_adaptive(AdaptiveConfig(initial_batch=1, target_step_s=1.0))
    # Cheap steps: batch sizes must have grown.
    moves = [s.moves for s in controller.result.steps]
    assert moves[0] == 1
    assert max(moves) > 1


# Captured from the separate adaptive controller at the commit before it was
# folded into MigrationController (64 bins, 120 epochs): moves per step, chosen
# batch per step, migration duration, total simulator events.  The 1 ms
# target sits on the step durations (0.99-1.01 ms), so the grow/hold/shrink
# sequence pins the *exact* duration the sizing policy is fed.
ADAPTIVE_SNAPSHOTS = {
    0.002: ([1, 2, 4, 8, 16, 32, 1], [1, 2, 4, 8, 16, 32, 64], 0.00602355, 4920),
    0.001: ([1, 2, 2] + [1] * 59, [1, 2, 2] + [1] * 59, 0.06102355, 5727),
}


@pytest.mark.parametrize("target_step_s", sorted(ADAPTIVE_SNAPSHOTS))
def test_adaptive_behaviour_matches_pre_merge_snapshot(target_step_s):
    moves, batches, duration, sim_events = ADAPTIVE_SNAPSHOTS[target_step_s]
    controller, runtime, *_ = run_adaptive(
        AdaptiveConfig(initial_batch=1, target_step_s=target_step_s),
        num_bins=64, n_epochs=120,
    )
    assert [s.moves for s in controller.result.steps] == moves
    assert controller.result.batch_sizes == batches
    assert controller.result.duration == pytest.approx(duration, abs=1e-9)
    assert runtime.sim.events_processed == sim_events


def test_pace_s_with_adaptive_steps_is_rejected():
    df, runtime, cg, dg, probe, op, initial, ticker = build()
    with pytest.raises(ValueError, match="completion pacing"):
        MigrationController(
            runtime, cg, ticker, probe, AdaptiveSteps(initial, initial), pace_s=0.01
        )


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
