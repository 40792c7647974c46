"""Unit tests for the EpochTicker and MigrationController."""

import pytest

from repro.megaphone.control import BinnedConfiguration
from repro.chaos.recovery import cluster_fingerprint
from repro.megaphone.controller import (
    EpochTicker,
    FaultHandling,
    MigrationController,
    StepResult,
)
from repro.megaphone.migration import make_plan
from repro.megaphone.operators import build_migrateable
from repro.runtime_events.events import MigrationStepOutcome
from tests.helpers import make_dataflow
from tests.megaphone.driver import drive_wordcount


def build_counting(num_workers=2, num_bins=4):
    df = make_dataflow(num_workers=num_workers, workers_per_process=2)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")
    initial = BinnedConfiguration.round_robin(num_bins, num_workers)

    def applier(app):
        state = app.state
        for _tag, (key, val) in app.entries:
            state[key] = state.get(key, 0) + val

    op = build_migrateable(
        control, [data], [lambda r: hash(r[0]) & 0xFFFF], applier,
        num_bins=num_bins, name="ctl", initial=initial,
    )
    probe = df.probe(op.output)
    runtime = df.build()
    return runtime, control_group, data_group, probe, op, initial


def feed_steadily(runtime, data_group, n_epochs, epoch_ms=1):
    def make(e):
        def tick():
            for handle in data_group.handles():
                handle.send(e, [(f"k{e % 5}", 1)])
                handle.advance_to(e + 1)

        return tick

    for e in range(n_epochs):
        runtime.sim.schedule_at(e * epoch_ms / 1000.0, make(e))
    runtime.sim.schedule_at(n_epochs * epoch_ms / 1000.0, data_group.close_all)


def test_ticker_advances_epochs_with_time():
    runtime, control_group, data_group, probe, op, initial = build_counting()
    ticker = EpochTicker(runtime, control_group, granularity_ms=5)
    ticker.start()
    feed_steadily(runtime, data_group, 20)
    runtime.run(until=0.032)
    epochs = {h.epoch for h in control_group.handles()}
    assert epochs == {35}  # 30ms quantized + one tick ahead
    ticker.stop()
    runtime.run_to_quiescence()
    assert all(h.epoch is None for h in control_group.handles())


def test_ticker_dilation_scales_epochs():
    runtime, control_group, data_group, probe, op, initial = build_counting()
    ticker = EpochTicker(runtime, control_group, granularity_ms=5, dilation=10)
    assert ticker.current_epoch() == 0
    ticker.start()
    feed_steadily(runtime, data_group, 10)
    runtime.run(until=0.012)
    assert ticker.current_epoch() == 100  # 10ms * dilation
    ticker.stop()
    runtime.run_to_quiescence()


def test_controller_records_step_timings():
    runtime, control_group, data_group, probe, op, initial = build_counting()
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    target = BinnedConfiguration(tuple((w + 1) % 2 for w in initial.assignment))
    plan = make_plan("fluid", initial, target)
    done_results = []
    controller = MigrationController(runtime, control_group, probe, initial)
    result = controller.submit(
        lambda _current: plan, at_s=0.005, on_done=done_results.append
    )
    feed_steadily(runtime, data_group, 50)
    runtime.run(until=0.08)
    assert controller.done
    ticker.stop()
    runtime.run_to_quiescence()
    assert done_results == [result] and done_results[0] is result
    assert len(result.steps) == plan.total_moves
    for step in result.steps:
        assert step.completed_at is not None
        assert step.completed_at >= step.issued_at
    # Steps are strictly sequential under completion pacing.
    for a, b in zip(result.steps, result.steps[1:]):
        assert a.completed_at <= b.issued_at
    assert result.duration == pytest.approx(
        result.completed_at - result.started_at
    )


def test_timer_paced_controller_overlaps_steps():
    runtime, control_group, data_group, probe, op, initial = build_counting(
        num_workers=2, num_bins=8
    )
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    target = BinnedConfiguration(tuple((w + 1) % 2 for w in initial.assignment))
    plan = make_plan("fluid", initial, target)
    controller = MigrationController(runtime, control_group, probe, initial)
    result = controller.submit(lambda _current: plan, at_s=0.005, pace_s=0.001)
    feed_steadily(runtime, data_group, 60)
    runtime.run(until=0.1)
    assert controller.done
    ticker.stop()
    runtime.run_to_quiescence()
    issued = [s.issued_at for s in result.steps]
    # Timer pacing: issues spaced by the pace, independent of completion.
    for a, b in zip(issued, issued[1:]):
        assert b - a == pytest.approx(0.001, abs=2e-4)


def test_timer_paced_on_done_waits_for_the_last_completion():
    # The pacing timer runs off the end of the plan while steps are still
    # awaiting; on_done must not fire until the last of them completes.
    runtime, control_group, data_group, probe, op, initial = build_counting(
        num_workers=2, num_bins=8
    )
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    target = BinnedConfiguration(tuple((w + 1) % 2 for w in initial.assignment))
    plan = make_plan("fluid", initial, target)
    seen = []

    def on_done(result):
        seen.append((runtime.sim.now, controller.done, [s.completed_at for s in result.steps]))

    controller = MigrationController(runtime, control_group, probe, initial)
    result = controller.submit(
        lambda _current: plan, at_s=0.005, pace_s=0.0001, on_done=on_done
    )
    feed_steadily(runtime, data_group, 60)
    runtime.run(until=0.1)
    ticker.stop()
    runtime.run_to_quiescence()
    assert len(seen) == 1
    at, done, completions = seen[0]
    assert done and None not in completions
    assert at == max(completions)
    # The timer had walked off the plan's end well before that.
    assert at > result.steps[-1].issued_at + 0.0001


def test_empty_plan_completes_immediately():
    runtime, control_group, data_group, probe, op, initial = build_counting()
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    plan = make_plan("all-at-once", initial, initial)
    controller = MigrationController(runtime, control_group, probe, initial)
    result = controller.submit(lambda _current: plan, at_s=0.002)
    feed_steadily(runtime, data_group, 10)
    runtime.run(until=0.02)
    assert controller.done
    assert result.steps == []
    ticker.stop()
    runtime.run_to_quiescence()


def test_step_outcomes_published_on_trace_bus():
    runtime, control_group, data_group, probe, op, initial = build_counting(
        num_workers=2, num_bins=8
    )
    outcomes = []
    runtime.sim.trace.subscribe(
        lambda e: outcomes.append(e) if isinstance(e, MigrationStepOutcome) else None,
        topics=("migration",),
    )
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    target = BinnedConfiguration(tuple((w + 1) % 2 for w in initial.assignment))
    plan = make_plan("batched", initial, target, batch_size=3)
    controller = MigrationController(runtime, control_group, probe, initial)
    result = controller.submit(lambda _current: plan, at_s=0.005)
    feed_steadily(runtime, data_group, 60)
    runtime.run(until=0.1)
    assert controller.done
    ticker.stop()
    runtime.run_to_quiescence()
    # One outcome per step, mirroring the result's accounting.
    assert len(outcomes) == len(result.steps) == len(plan.steps)
    assert [o.moves for o in outcomes] == [s.moves for s in result.steps]
    assert result.total_attempts == sum(o.attempts for o in outcomes)
    assert not any(o.abandoned for o in outcomes)
    for outcome, step in zip(outcomes, result.steps):
        assert outcome.duration_s == pytest.approx(step.duration)


# -- one controller: intents queue, plan from ``current`` -------------------------


def _swapped(config):
    return BinnedConfiguration(tuple((w + 1) % 2 for w in config.assignment))


def test_current_follows_every_step_sent():
    runtime, control_group, data_group, probe, op, initial = build_counting(
        num_workers=2, num_bins=8
    )
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    controller = MigrationController(runtime, control_group, probe, initial)
    assert controller.current is initial
    target = _swapped(initial)
    seen = []

    def on_done(result):
        seen.append(controller.current)

    result = controller.submit(
        lambda current: make_plan("fluid", current, target), at_s=0.005, on_done=on_done
    )
    feed_steadily(runtime, data_group, 60)
    runtime.run(until=0.1)
    assert controller.done
    ticker.stop()
    runtime.run_to_quiescence()
    assert len(result.steps) == 8
    assert seen == [target]
    assert controller.current.bins_of(1) == target.bins_of(1)


def test_intents_run_one_at_a_time_from_the_current_assignment():
    # Two intents ready at the same time: the second waits for the first to
    # finish, and its plan is built from where the first left the bins.
    runtime, control_group, data_group, probe, op, initial = build_counting(
        num_workers=2, num_bins=8
    )
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    controller = MigrationController(runtime, control_group, probe, initial)
    planned_from = []

    def swap_all(current):
        planned_from.append(current)
        return make_plan("batched", current, _swapped(current), batch_size=3)

    first = controller.submit(swap_all, at_s=0.005)
    second = controller.submit(swap_all, at_s=0.005)
    feed_steadily(runtime, data_group, 80)
    runtime.run(until=0.12)
    assert controller.done
    ticker.stop()
    runtime.run_to_quiescence()
    assert controller.results == [first, second]
    assert planned_from == [initial, _swapped(initial)]
    assert first.strategy == second.strategy == "batched"
    assert second.started_at >= first.completed_at
    # Both plans moved every bin; the second moved them back.
    assert sum(s.moves for s in first.steps) == sum(s.moves for s in second.steps) == 8
    assert controller.current == initial


def test_recover_joins_the_running_intent_or_runs_its_own():
    from repro.megaphone.control import ControlInst

    runtime, control_group, data_group, probe, op, initial = build_counting(
        num_workers=2, num_bins=8
    )
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()
    controller = MigrationController(runtime, control_group, probe, initial)
    target = _swapped(initial)
    migration = controller.submit(
        lambda current: make_plan("fluid", current, target), at_s=0.005
    )
    sent = {}
    # Mid-migration: one more step of the running intent.
    runtime.sim.schedule_at(
        0.006, lambda: sent.update(mid=controller.recover([ControlInst(bin=7, worker=0)]))
    )
    feed_steadily(runtime, data_group, 80)
    runtime.run(until=0.1)
    assert controller.done
    # Idle: a recovery intent of its own.
    assert controller.current.worker_of(0) == 1
    sent["idle"] = controller.recover([ControlInst(bin=0, worker=0)])
    runtime.run(until=0.12)
    ticker.stop()
    runtime.run_to_quiescence()
    assert sent["mid"] in migration.steps
    migration_result, recovery = controller.results
    assert migration_result is migration
    assert recovery.strategy == "recovery" and recovery.steps == [sent["idle"]]
    assert recovery.completed_at is not None
    assert controller.current.worker_of(0) == 0
    # Closed control input: nothing is sent or reported.
    assert controller.recover([ControlInst(bin=1, worker=0)]) is None
    assert len(controller.results) == 2


# -- fault handling is a parameter, not a subclass --------------------------------


def _spy_on_timeouts(armed):
    """An ``instrument=`` hook recording every timeout event the sim is handed."""

    def instrument(runtime):
        schedule = runtime.sim.schedule

        def spying_schedule(delay, callback):
            # Timeouts are partial(controller._on_timeout, step).
            target = getattr(callback, "func", None)
            if getattr(target, "__func__", None) is MigrationController._on_timeout:
                armed.append(delay)
            return schedule(delay, callback)

        runtime.sim.schedule = spying_schedule

    return instrument


def test_controller_without_fault_handling_arms_no_timeouts():
    plain, bundled = [], []
    run = drive_wordcount(strategy="fluid", instrument=_spy_on_timeouts(plain))
    assert run.controller.done and len(run.result.steps) > 1
    assert plain == []
    # Positive control: the same run with the bundle arms one per step.
    run = drive_wordcount(
        strategy="fluid", instrument=_spy_on_timeouts(bundled), faults=FaultHandling()
    )
    assert bundled == [FaultHandling().retry.timeout_s] * len(run.result.steps)


@pytest.mark.parametrize("strategy", ["fluid", "batched", "all-at-once"])
def test_fault_handling_that_never_fires_changes_nothing(strategy):
    def observed(run):
        steps = [
            (s.time, s.moves, s.issued_at, s.completed_at, s.insts, s.attempts)
            for s in run.result.steps
        ]
        stores = [store for _w, store in run.op.stores(run.runtime)]
        return steps, cluster_fingerprint(stores), run.outputs

    plain = drive_wordcount(strategy=strategy)
    bundled = drive_wordcount(strategy=strategy, faults=FaultHandling())
    assert bundled.controller.abandoned == []
    assert observed(bundled) == observed(plain)


def test_step_results_compare_by_identity():
    a = StepResult(time=5, moves=1, issued_at=0.1)
    b = StepResult(time=5, moves=1, issued_at=0.1)
    assert a != b and a == a
    assert len({a, b}) == 2
