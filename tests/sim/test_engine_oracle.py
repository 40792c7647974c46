"""The grouping engine fires exactly what the one-entry-per-callback engine fires.

``Simulator`` lets callbacks due at one instant share a heap entry;
``tests/sim/reference_engine.py`` is the engine before that change, with
one entry per callback.  Random programs run on both: callbacks at tied
times, zero-delay chains scheduled from inside callbacks, cancellable
events at tied times cancelled before and after other callbacks join that
time, ``run(until=...)`` then resume, ``step()`` and ``peek_time()``,
the last also from inside callbacks.  Both engines must fire the same
callbacks in the same order at the same ``now`` and peek the same times.

The grouping engine's ``callbacks_fired`` must equal the reference's
``events_processed``, which counts one entry per callback.  Only the
grouping engine's ``events_processed`` differs: it counts heap entries.
So does ``run(max_events=...)``, which therefore ends a slice of a run at
a different callback than the reference does; it is left out of the
programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from tests.sim.reference_engine import ReferenceSimulator

# Few distinct delays, so most callbacks tie with others.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])

_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 7))

_PEEK = st.tuples(st.just("peek"))


def _schedule(body):
    return st.tuples(
        st.sampled_from(["fast", "fast_at", "event", "event_at"]),
        _DELAYS,
        st.lists(body, max_size=3),
    )


# A callback's body: what it schedules, cancels or peeks when it fires.
_BODY = st.recursive(_CANCEL | _PEEK, _schedule, max_leaves=12)

_OPS = st.one_of(
    _schedule(_BODY),
    _CANCEL,
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("step")),
    _PEEK,
)


def _execute(sim, program):
    """Run ``program`` on ``sim``; return what was observed."""
    fired = []  # (callback id, now)
    peeks = []  # (callbacks fired so far, peek_time())
    events = []
    ids = iter(range(1_000_000))

    def act(action):
        kind = action[0]
        if kind == "cancel":
            if events:
                events[action[1] % len(events)].cancel()
            return
        if kind == "peek":
            peeks.append((len(fired), sim.peek_time()))
            return
        _, delay, body = action
        callback = make_callback(next(ids), body)
        if kind == "fast":
            sim.schedule_fast(delay, callback)
        elif kind == "fast_at":
            sim.schedule_fast_at(sim.now + delay, callback)
        elif kind == "event":
            events.append(sim.schedule(delay, callback))
        else:
            events.append(sim.schedule_at(sim.now + delay, callback))

    def make_callback(ident, body):
        def callback():
            fired.append((ident, sim.now))
            for action in body:
                act(action)

        return callback

    for op in program:
        kind = op[0]
        if kind == "run_until":
            sim.run(until=sim.now + op[1])
        elif kind == "step":
            sim.step()
        else:
            act(op)
    sim.run()
    return fired, peeks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_OPS, min_size=1, max_size=25))
def test_grouping_fires_the_same_callbacks_in_the_same_order(program):
    grouped = Simulator()
    reference = ReferenceSimulator()
    fired, peeks = _execute(grouped, program)
    expected, expected_peeks = _execute(reference, program)
    assert fired == expected
    assert grouped.now == reference.now
    assert grouped.callbacks_fired == reference.events_processed == len(fired)
    assert grouped.events_processed <= reference.events_processed
    assert peeks == expected_peeks
    # Drained: no instant is left taken and no cancellation left pending.
    assert grouped._pending_at == {}
    assert grouped._cancelled == 0


def test_callbacks_at_one_instant_share_a_heap_entry():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule_fast(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(5))
    assert (sim.callbacks_fired, sim.events_processed) == (5, 1)


def test_an_event_splits_the_instant_it_is_scheduled_at():
    sim = Simulator()
    fired = []
    sim.schedule_fast(1.0, lambda: fired.append("a"))
    sim.schedule(1.0, lambda: fired.append("event"))
    sim.schedule_fast(1.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "event", "b"]
    assert (sim.callbacks_fired, sim.events_processed) == (3, 3)


def test_a_firing_group_takes_the_callbacks_it_schedules_at_its_instant():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule_fast(0.0, lambda: fired.append("chained"))

    sim.schedule_fast(1.0, first)
    sim.schedule_fast(1.0, lambda: fired.append("second"))
    sim.run()
    # The chained callback sorts after everything pending at its instant,
    # which is the end of the firing group.
    assert fired == ["first", "second", "chained"]
    assert (sim.callbacks_fired, sim.events_processed) == (3, 1)
    assert sim._pending_at == {}


def test_a_firing_event_opens_a_group_while_it_is_the_newest_entry():
    sim = Simulator()
    fired = []

    def event():
        fired.append("event")
        sim.schedule_fast(0.0, lambda: fired.append("a"))
        sim.schedule_fast(0.0, lambda: fired.append("b"))

    sim.schedule(1.0, event)
    sim.run()
    assert fired == ["event", "a", "b"]
    assert (sim.callbacks_fired, sim.events_processed) == (3, 1)


def test_a_firing_event_behind_a_newer_entry_does_not_open_a_group():
    sim = Simulator()
    fired = []

    def event():
        fired.append("event")
        sim.schedule_fast(0.0, lambda: fired.append("chained"))

    sim.schedule(1.0, event)
    sim.schedule_fast(1.0, lambda: fired.append("later"))
    sim.run()
    # "later" was scheduled before "chained", so it fires first: "chained"
    # joins the group behind the event instead of one of its own.
    assert fired == ["event", "later", "chained"]
    assert (sim.callbacks_fired, sim.events_processed) == (3, 2)


def test_peek_from_a_callback_sees_the_rest_of_its_group():
    sim = Simulator()
    peeks = []
    sim.schedule_fast(1.0, lambda: peeks.append(sim.peek_time()))
    sim.schedule_fast(1.0, lambda: None)
    sim.schedule_fast(2.0, lambda: None)
    sim.run()
    assert peeks == [1.0]
    assert (sim.callbacks_fired, sim.events_processed) == (3, 2)


def test_a_raising_callback_does_not_leave_its_instant_taken():
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule_fast(1.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim._pending_at == {}
    sim.schedule_fast(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]
    # The raising callback's entry fired, but no callback completed in it.
    assert (sim.callbacks_fired, sim.events_processed) == (1, 2)


def test_cancelled_events_leave_no_instant_taken():
    sim = Simulator()
    sim.schedule(1.0, lambda: None).cancel()
    assert sim.peek_time() is None
    sim.schedule(1.0, lambda: None).cancel()
    assert not sim.step()
    sim.schedule(1.0, lambda: None).cancel()
    sim.run()
    assert sim._pending_at == {}
    assert (sim.callbacks_fired, sim.events_processed) == (0, 0)
    # Compaction drops cancelled events from the heap without popping them.
    for event in [sim.schedule(2.0 + i, lambda: None) for i in range(100)]:
        event.cancel()
    assert 0 < len(sim._heap) < 100
    assert sorted(sim._pending_at) == [entry[0] for entry in sorted(sim._heap)]
    sim.run()
    assert sim._pending_at == {}


def test_run_below_counts_each_callback_of_a_group():
    sim = Simulator()
    for _ in range(3):
        sim.schedule_fast(1.0, lambda: None)
    sim.schedule(1.5, lambda: None)
    sim.schedule_fast(2.0, lambda: None)
    assert sim.run_below(2.0) == 2
    assert (sim.callbacks_fired, sim.events_processed) == (4, 2)
