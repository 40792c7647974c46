"""Test driver: a migrating word-count dataflow exercised end to end."""

from dataclasses import dataclass, field

from repro.megaphone.control import BinnedConfiguration, stable_hash
from repro.megaphone.controller import EpochTicker, MigrationController
from repro.megaphone.migration import imbalanced_target, make_plan
from repro.megaphone.operators import ApplicationContext, build_migrateable
from tests.helpers import make_dataflow


@dataclass
class WordCountRun:
    """Everything a test needs to assert on after a run."""

    outputs: list = field(default_factory=list)
    applications: list = field(default_factory=list)  # (time, worker, key, val)
    result: object = None
    runtime: object = None
    controller: object = None
    op: object = None
    plan: object = None
    initial: BinnedConfiguration = None

    def final_counts(self) -> dict:
        counts: dict = {}
        for time, batch in self.outputs:
            for key, value in batch:
                counts[key] = value
        return counts


def drive_wordcount(
    strategy=None,
    num_workers=4,
    num_bins=8,
    n_epochs=40,
    migrate_epoch=10,
    batch_size=2,
    gap_s=0.0,
    epoch_ms=1,
    records_per_epoch_per_worker=5,
    n_keys=20,
    target_fn=imbalanced_target,
    instrument=None,
    state_backend="dict",
    backend_options=None,
    delta_migration=False,
    faults=None,
):
    """Run word count under an optional migration strategy.

    Returns a :class:`WordCountRun`.  The workload is deterministic: every
    epoch, every worker sends ``records_per_epoch_per_worker`` increments
    cycling over ``n_keys`` keys.  ``instrument``, if given, is called with
    the built runtime before anything runs (e.g. to attach trace
    subscribers).  ``faults`` is the controller's optional
    :class:`~repro.megaphone.controller.FaultHandling` bundle.
    """
    run = WordCountRun()
    df = make_dataflow(num_workers=num_workers, workers_per_process=2)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")

    initial = BinnedConfiguration.round_robin(num_bins, num_workers)
    run.initial = initial

    def applier(app: ApplicationContext) -> None:
        state = app.state
        out = []
        for _tag, (key, val) in app.entries:
            state[key] = state.get(key, 0) + val
            out.append((key, state[key]))
            run.applications.append((app.time, app.worker, key, val))
        app.emit(out)

    op = build_migrateable(
        control,
        [data],
        [lambda record: stable_hash(record[0])],
        applier,
        num_bins=num_bins,
        name="wordcount",
        initial=initial,
        state_backend=state_backend,
        backend_options=backend_options,
        delta_migration=delta_migration,
    )
    run.op = op
    op.output.sink(lambda w, t, recs: run.outputs.append((t, list(recs))))
    out_probe = df.probe(op.output)
    runtime = df.build()
    run.runtime = runtime
    if instrument is not None:
        instrument(runtime)
    sim = runtime.sim
    tick_s = epoch_ms / 1000.0

    ticker = EpochTicker(runtime, control_group, granularity_ms=epoch_ms)
    ticker.start()

    keys = [f"key{i}" for i in range(n_keys)]
    counter = {"i": 0}

    def make_tick(epoch):
        def tick():
            t_ms = epoch * epoch_ms
            for handle in data_group.handles():
                batch = []
                for _ in range(records_per_epoch_per_worker):
                    batch.append((keys[counter["i"] % n_keys], 1))
                    counter["i"] += 1
                handle.send(t_ms, batch)
                handle.advance_to(t_ms + epoch_ms)

        return tick

    for epoch in range(n_epochs):
        sim.schedule_at(epoch * tick_s, make_tick(epoch))
    sim.schedule_at(n_epochs * tick_s, data_group.close_all)

    controller = None
    if strategy is not None:
        target = target_fn(initial)
        run.plan = make_plan(strategy, initial, target, batch_size=batch_size)
        controller = MigrationController(
            runtime, control_group, out_probe, initial, faults=faults
        )
        controller.submit(
            lambda _current: run.plan, at_s=migrate_epoch * tick_s, gap_s=gap_s
        )

    # Run the scripted part, then let any outstanding migration finish
    # before closing the control stream.
    runtime.run(until=(n_epochs + 2) * tick_s)
    guard = 0
    while controller is not None and not controller.done:
        runtime.sim.run(max_events=10_000)
        guard += 1
        if guard > 1000:
            raise AssertionError("migration did not complete")
    ticker.stop()
    runtime.run_to_quiescence()
    if controller is not None:
        (run.result,) = controller.results
        run.controller = controller
    return run


def expected_counts(run: WordCountRun, num_workers, n_epochs, per_worker, n_keys):
    total = num_workers * n_epochs * per_worker
    counts: dict = {}
    for i in range(total):
        key = f"key{i % n_keys}"
        counts[key] = counts.get(key, 0) + 1
    return counts
