"""The grouping engine fires exactly what the one-entry-per-callback engine fires.

``Simulator`` lets callbacks due at one instant share a heap entry;
``tests/sim/reference_engine.py`` is the engine before that change, with
one entry per callback.  Random programs run on both: callbacks at tied
times, zero-delay chains scheduled from inside callbacks, cancellable
events at tied times cancelled before and after other callbacks join that
time, ``run(until=...)`` then resume, ``step()`` and ``peek_time()``.
Both engines must fire the same callbacks in the same order at the same
``now``.

Only ``events_processed`` differs: it counts heap entries.  So does
``run(max_events=...)``, which therefore ends a slice of a run at a
different callback than the reference does; it is left out of the
programs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from tests.sim.reference_engine import ReferenceSimulator

# Few distinct delays, so most callbacks tie with others.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])

_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 7))


def _schedule(body):
    return st.tuples(
        st.sampled_from(["fast", "fast_at", "event", "event_at"]),
        _DELAYS,
        st.lists(body, max_size=3),
    )


# A callback's body: what it schedules or cancels when it fires.
_BODY = st.recursive(_CANCEL, _schedule, max_leaves=12)

_OPS = st.one_of(
    _schedule(_BODY),
    _CANCEL,
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
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
        elif kind == "peek":
            peeks.append((len(fired), sim.peek_time()))
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
    assert grouped.events_processed <= reference.events_processed
    assert peeks == expected_peeks


def test_callbacks_at_one_instant_share_a_heap_entry():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule_fast(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(5))
    assert sim.events_processed == 1


def test_an_event_splits_the_instant_it_is_scheduled_at():
    sim = Simulator()
    fired = []
    sim.schedule_fast(1.0, lambda: fired.append("a"))
    sim.schedule(1.0, lambda: fired.append("event"))
    sim.schedule_fast(1.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "event", "b"]
    assert sim.events_processed == 3


def test_a_firing_group_does_not_grow():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule_fast(0.0, lambda: fired.append("chained"))

    sim.schedule_fast(1.0, first)
    sim.schedule_fast(1.0, lambda: fired.append("second"))
    sim.run()
    # The chained callback sorts after everything pending at its instant.
    assert fired == ["first", "second", "chained"]
    assert sim.events_processed == 2
