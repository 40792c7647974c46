"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: fired.append("early"))
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 2.0


def test_ties_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def test_negative_delay_clamps_to_now():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    fired = []
    sim.schedule(-1.0, lambda: fired.append(True))
    sim.run()
    assert fired == [True]
    assert sim.now == 5.0


def test_schedule_at_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_nan_time_is_refused_and_leaves_the_clock_alone():
    sim = Simulator()
    fired = []
    sim.schedule_fast(0.5, lambda: fired.append(sim.now))
    nan = float("nan")
    for schedule in (
        sim.schedule,
        sim.schedule_at,
        sim.schedule_fast,
        sim.schedule_fast_at,
    ):
        with pytest.raises(ValueError):
            schedule(nan, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.5]
    assert sim.now == 0.5
    with pytest.raises(ValueError):
        sim.schedule_at(0.25, lambda: None)


def test_cancelling_a_fired_event_is_not_a_pending_cancellation():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(50)]
    sim.run()
    events += [sim.schedule(60.0 + i, lambda: None) for i in range(50)]
    while sim.step():
        pass
    for event in events:
        event.cancel()
    assert all(event.cancelled for event in events)
    assert sim._cancelled == 0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("cancelled"))
    sim.schedule(2.0, lambda: fired.append("kept"))
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(3.0, lambda: fired.append(3))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 3]


def test_run_until_advances_clock_when_heap_empty():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_events_scheduled_during_execution_fire():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 2.0


def test_zero_delay_event_fires_at_same_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [1.0]


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.peek_time() == 2.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_fires_in_nondecreasing_time(delays):
    sim = Simulator()
    observed = []
    for d in delays:
        sim.schedule(d, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.integers(0, 99)),
        min_size=1,
        max_size=40,
    )
)
def test_property_equal_times_preserve_fifo(items):
    sim = Simulator()
    observed = []
    for time, tag in items:
        sim.schedule(time, lambda t=time, g=tag: observed.append((t, g)))
    sim.run()
    # Stable sort by time must equal the observed order, because ties fire
    # in scheduling order.
    assert observed == sorted(items, key=lambda x: x[0])


def test_heap_compaction_drops_cancelled_events():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(300)]
    for event in events[:200]:
        event.cancel()
    # Compaction triggers once cancellations dominate the heap, so the
    # cancelled prefix must not linger until pop time.
    assert len(sim._heap) <= 150
    sim.run()
    assert sim.events_processed == 100
    assert sim.now == 299.0


def test_double_cancel_counts_once():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim._cancelled == 1
    sim.run()
    assert sim.events_processed == 0


def test_compaction_preserves_firing_order():
    sim = Simulator()
    fired = []
    keep = []
    for i in range(300):
        event = sim.schedule(1.0, lambda i=i: fired.append(i))
        if i % 3 == 0:
            keep.append(i)
        else:
            event.cancel()
    sim.run()
    # Ties fire in scheduling order even after the heap was rebuilt.
    assert fired == keep
