"""End-to-end tests of the Megaphone mechanism (paper §3.2 properties)."""

import pytest

from repro.megaphone.control import BinnedConfiguration, bin_of, stable_hash
from repro.runtime_events.events import BinStateExtracted
from tests.megaphone.driver import drive_wordcount, expected_counts

PARAMS = dict(num_workers=4, n_epochs=40, records_per_epoch_per_worker=5, n_keys=20)


def _recording(events):
    """An ``instrument=`` hook collecting the run's migration-topic events."""

    def instrument(runtime):
        runtime.sim.trace.subscribe(events.append, topics=("migration",))

    return instrument


def _extracted_bytes(events) -> float:
    return sum(e.size_bytes for e in events if type(e) is BinStateExtracted)


def test_wordcount_without_migration_is_correct():
    run = drive_wordcount(strategy=None, **PARAMS)
    assert run.final_counts() == expected_counts(run, 4, 40, 5, 20)
    assert run.runtime.idle()


@pytest.mark.parametrize("strategy", ["all-at-once", "fluid", "batched", "optimized"])
def test_correctness_property_under_migration(strategy):
    """Paper Property 1: outputs equal the timestamp-ordered per-key
    application, regardless of migration strategy."""
    run = drive_wordcount(strategy=strategy, **PARAMS)
    assert run.final_counts() == expected_counts(run, 4, 40, 5, 20)


@pytest.mark.parametrize("strategy", ["all-at-once", "fluid", "batched"])
def test_completion_property_under_migration(strategy):
    """Paper Property 3: once inputs and control close, the computation
    drains completely."""
    run = drive_wordcount(strategy=strategy, **PARAMS)
    assert run.runtime.idle()
    assert run.result is not None
    assert run.result.completed_at is not None


@pytest.mark.parametrize("strategy", ["all-at-once", "fluid", "batched", "optimized"])
def test_migration_property_updates_at_configured_worker(strategy):
    """Paper Property 2: every update to a key at time t is performed at
    configuration(t, key)."""
    run = drive_wordcount(strategy=strategy, **PARAMS)
    num_bins = run.op.config.num_bins

    # Reconstruct configuration(time, bin) from the issued steps.
    step_times = [(s.time, s) for s in run.result.steps]

    def config_at(time):
        cfg = run.initial
        for t, step in step_times:
            if t <= time:
                insts = run.plan.steps[[s for _, s in step_times].index(step)].insts
                cfg = cfg.apply(list(insts))
        return cfg

    assert run.applications, "no applications recorded"
    for time, worker, key, _val in run.applications:
        bin_id = bin_of(stable_hash(key), num_bins)
        assert config_at(time).worker_of(bin_id) == worker, (
            f"key {key} (bin {bin_id}) applied at worker {worker} at time "
            f"{time}, expected {config_at(time).worker_of(bin_id)}"
        )


def test_migration_actually_moves_bins():
    events = []
    run = drive_wordcount(strategy="all-at-once", instrument=_recording(events), **PARAMS)
    # After the imbalanced migration, workers 0/1 own half their bins and
    # workers 2/3 own the rest.
    final_config = run.initial
    for step in run.plan.steps:
        final_config = final_config.apply(list(step.insts))
    for worker in range(4):
        store = run.op.store(run.runtime, worker)
        assert sorted(store.resident_bins()) == sorted(final_config.bins_of(worker))
    assert _extracted_bytes(events) > 0


def test_fluid_migration_has_one_move_per_step():
    run = drive_wordcount(strategy="fluid", **PARAMS)
    assert all(s.moves == 1 for s in run.result.steps)
    # Steps complete strictly in sequence.
    for earlier, later in zip(run.result.steps, run.result.steps[1:]):
        assert earlier.completed_at is not None
        assert earlier.completed_at <= later.issued_at


def test_all_at_once_has_single_step_with_all_moves():
    run = drive_wordcount(strategy="all-at-once", **PARAMS)
    assert len(run.result.steps) == 1
    assert run.result.steps[0].moves == run.plan.total_moves


def test_gap_delays_next_step():
    fast = drive_wordcount(strategy="fluid", gap_s=0.0, **PARAMS)
    slow = drive_wordcount(strategy="fluid", gap_s=0.005, **PARAMS)
    assert slow.result.duration > fast.result.duration


def test_migration_memory_accounting_balances():
    events = []
    run = drive_wordcount(strategy="all-at-once", instrument=_recording(events), **PARAMS)
    cluster = run.runtime.cluster
    # After the run: send queues drained, retained (serialized) copies
    # released, and a transient spike was recorded on migrating processes.
    for process in cluster.processes:
        assert process.memory.send_queue_bytes == pytest.approx(0.0)
        assert process.memory.retained_bytes == pytest.approx(0.0)
    assert _extracted_bytes(events) > 0
    sender_peak = max(p.memory.peak_bytes for p in cluster.processes)
    assert sender_peak > 0


def test_scheduled_records_survive_migration():
    """Post-dated records (the extended notificator) migrate with bins and
    replay at the destination."""
    from repro.megaphone.operators import build_migrateable
    from repro.megaphone.controller import EpochTicker, MigrationController
    from repro.megaphone.migration import plan_all_at_once
    from tests.helpers import make_dataflow

    df = make_dataflow(num_workers=2, workers_per_process=2)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")
    initial = BinnedConfiguration.round_robin(4, 2)
    applied = []

    def applier(app):
        for tag, record in app.entries:
            if record == "schedule":
                # Post-date a reminder 20 ms into the future.
                app.schedule(app.time + 20, ("reminder", app.time))
            else:
                applied.append((app.time, app.worker, record))

    op = build_migrateable(
        control, [data], [lambda r: 7], applier, num_bins=4,
        name="sched", initial=initial,
    )
    probe = df.probe(op.output)
    runtime = df.build()
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()

    target = BinnedConfiguration(tuple((w + 1) % 2 for w in initial.assignment))
    controller = MigrationController(
        runtime, control_group, ticker, probe, plan_all_at_once(initial, target)
    )

    def feed(epoch, payload):
        def tick():
            for handle in data_group.handles():
                if handle is data_group.handle(0):
                    handle.send(epoch, [payload])
                handle.advance_to(epoch + 1)

        return tick

    runtime.sim.schedule_at(0.000, feed(0, "schedule"))
    controller.start_at(0.004)
    for e in range(1, 40):
        runtime.sim.schedule_at(e * 0.001, feed(e, f"noise{e}"))
    runtime.sim.schedule_at(0.040, data_group.close_all)
    runtime.run(until=0.060)
    assert controller.done
    ticker.stop()
    runtime.run_to_quiescence()

    reminders = [a for a in applied if isinstance(a[2], tuple)]
    assert reminders == [(20, reminders[0][1], ("reminder", 0))]
    # The reminder applied at the bin's post-migration owner.
    migration_time = controller.result.steps[0].time
    assert migration_time < 20
    bin_id = bin_of(7, 4)
    assert reminders[0][1] == target.worker_of(bin_id)
