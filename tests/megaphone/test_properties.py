"""Property-based tests: random workloads and migration schedules must
preserve the paper's three guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.megaphone.control import BinnedConfiguration, bin_of, stable_hash
from repro.megaphone.controller import EpochTicker, MigrationController
from repro.megaphone.migration import make_plan
from repro.megaphone.operators import build_migrateable
from tests.helpers import make_dataflow

WORKERS = 3
BINS = 8


@st.composite
def workloads(draw):
    n_epochs = draw(st.integers(8, 20))
    events = []
    for epoch in range(n_epochs):
        n = draw(st.integers(0, 4))
        batch = [
            (draw(st.integers(0, 9)), draw(st.integers(1, 5))) for _ in range(n)
        ]
        events.append(batch)
    migrate_epoch = draw(st.integers(1, max(1, n_epochs - 3)))
    strategy = draw(st.sampled_from(["all-at-once", "fluid", "batched", "optimized"]))
    scramble = draw(st.integers(1, WORKERS - 1))
    return events, migrate_epoch, strategy, scramble


@given(workloads())
@settings(max_examples=15, deadline=None)
def test_random_migrations_preserve_all_three_properties(workload):
    events, migrate_epoch, strategy, scramble = workload
    initial = BinnedConfiguration.round_robin(BINS, WORKERS)
    target = BinnedConfiguration(
        tuple((w + scramble) % WORKERS for w in initial.assignment)
    )
    plan = make_plan(strategy, initial, target, batch_size=2)

    df = make_dataflow(num_workers=WORKERS, workers_per_process=2)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")
    applications = []

    def applier(app):
        state = app.state
        for _tag, (key, val) in app.entries:
            state[key] = state.get(key, 0) + val
            applications.append((app.time, app.worker, key, val))

    op = build_migrateable(
        control, [data], [lambda record: stable_hash(record[0])],
        applier, num_bins=BINS, name="prop", initial=initial,
    )
    probe = df.probe(op.output)
    runtime = df.build()
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    controller = MigrationController(runtime, control_group, probe, initial)
    result = controller.submit(lambda _current: plan, at_s=migrate_epoch * 0.001)

    def make_tick(epoch, batch):
        def tick():
            for i, handle in enumerate(data_group.handles()):
                part = [r for j, r in enumerate(batch) if j % WORKERS == i]
                if part:
                    handle.send(epoch, part)
                handle.advance_to(epoch + 1)

        return tick

    for epoch, batch in enumerate(events):
        runtime.sim.schedule_at(epoch * 0.001, make_tick(epoch, batch))
    runtime.sim.schedule_at(len(events) * 0.001, data_group.close_all)

    runtime.run(until=(len(events) + 5) * 0.001)
    guard = 0
    while not controller.done:
        runtime.sim.run(max_events=10_000)
        guard += 1
        assert guard < 500, "migration stalled (liveness violation)"
    ticker.stop()
    runtime.run_to_quiescence()

    # Completion: everything drained.
    assert runtime.idle()

    # Correctness: per-key totals match a sequential reference.
    expected: dict = {}
    for batch in events:
        for key, val in batch:
            expected[key] = expected.get(key, 0) + val
    observed: dict = {}
    for _t, _w, key, val in applications:
        observed[key] = observed.get(key, 0) + val
    assert observed == expected

    # Correctness: per-key applications happen in timestamp order.
    per_key_times: dict = {}
    for t, _w, key, _v in applications:
        per_key_times.setdefault(key, []).append(t)
    for times in per_key_times.values():
        assert times == sorted(times)

    # Migration: updates at configuration(time, key).
    step_times = [s.time for s in result.steps]

    def config_at(time):
        cfg = initial
        for step_time, step in zip(step_times, plan.steps):
            if step_time <= time:
                cfg = cfg.apply(list(step.insts))
        return cfg

    for time, worker, key, _val in applications:
        assert config_at(time).worker_of(bin_of(stable_hash(key), BINS)) == worker
