"""The one-entry-per-callback event engine, kept as a test oracle.

This is :class:`repro.sim.engine.Simulator` as it was before callbacks due
at the same simulated time started sharing one heap entry: every callback
gets its own ``(time, seq, callback)`` entry and fires in ``(time, seq)``
order.  ``tests/sim/test_engine_oracle.py`` runs random programs on both
engines and requires the same callbacks to fire in the same order at the
same ``now``.  Only ``events_processed`` differs: here it counts callbacks.
(The sharded engine's ``run_below`` and the trace bus are left out; the
oracle does not use them.)
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

# Lazy deletion keeps cancellation O(1), but workloads that re-arm timers
# (notificators, pacing controllers) can leave the heap dominated by dead
# entries.  Once more than half the heap is cancelled (and the heap is big
# enough for the sweep to matter) we rebuild it from the live events.
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class Event:
    """A scheduled callback.

    Heap entries are ``(time, seq, event)`` tuples, so ordering is decided
    by C-level tuple comparison — ``seq`` is unique, so the comparison never
    reaches the event object itself.  ``cancelled`` events stay in the heap
    but are skipped when popped (lazy deletion), which keeps cancellation
    O(1); the owning simulator compacts the heap when cancelled entries
    outnumber live ones.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        owner: Optional["ReferenceSimulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.owner = owner

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Prevent this event from firing."""
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancelled()


class ReferenceSimulator:
    """Event heap with a deterministic execution order, one entry per callback.

    >>> sim = ReferenceSimulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, lambda: fired.append("a"))
    >>> _ = sim.schedule(0.5, lambda: fired.append("b"))
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # (time, seq, Event) triples: the heap orders by C-level tuple
        # comparison without ever invoking Python comparison methods.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._cancelled: int = 0

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative delays are clamped to zero: an event can never fire in the
        simulated past.
        """
        return self.schedule_at(self.now + max(delay, 0.0), callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time!r}: simulated time is already {self.now!r}"
            )
        seq = self._seq + 1
        self._seq = seq
        event = Event(time, seq, callback, False, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_fast(self, delay: float, callback: Callable[[], None]) -> None:
        """Like :meth:`schedule` but without a handle: the callback cannot be
        cancelled, so no :class:`Event` is allocated.  Ordering is identical
        (same sequence counter)."""
        delay = 0.0 if delay < 0.0 else delay
        self.schedule_fast_at(self.now + delay, callback)

    def schedule_fast_at(self, time: float, callback: Callable[[], None]) -> None:
        """Like :meth:`schedule_at` but without a handle (not cancellable).

        The heap entry carries the bare callable — the hot activation path
        schedules hundreds of thousands of these, and skipping the Event
        allocation is a measurable win.  Fire order is identical to
        :meth:`schedule_at` because both draw from the same ``seq`` counter.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time!r}: simulated time is already {self.now!r}"
            )
        seq = self._seq + 1
        self._seq = seq
        heapq.heappush(self._heap, (time, seq, callback))

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled > len(self._heap) // 2
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live events.

        Safe at any point: ``(time, seq)`` keys form a unique total order, so
        the rebuilt heap pops in exactly the same sequence as the old one.
        """
        # In-place (slice assignment): ``run`` holds a local alias to the
        # heap list across callbacks, so the list's identity must not change.
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[2].__class__ is not Event or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if the heap is empty."""
        while self._heap:
            ev = self._heap[0][2]
            if ev.__class__ is Event and ev.cancelled:
                heapq.heappop(self._heap)
                self._cancelled -= 1
                continue
            return self._heap[0][0]
        return None

    def step(self) -> bool:
        """Fire the next event.  Returns False when no events remain."""
        while self._heap:
            time, _seq, event = heapq.heappop(self._heap)
            if event.__class__ is Event:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                callback = event.callback
            else:
                callback = event
            self.now = time
            self._events_processed += 1
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.

        When stopping at ``until``, the clock is advanced to ``until`` so a
        subsequent ``run`` resumes from there.
        """
        # The drain loop is the single hottest function in the simulator, so
        # it inlines ``peek_time`` + ``step`` to touch the heap once per
        # event, compares each event against one float limit, and counts
        # fired events in a local written back on exit.  ``_compact``
        # rebuilds the heap in place, so the local alias stays valid across
        # callbacks.
        heap = self._heap
        pop = heapq.heappop
        event_cls = Event
        limit = _INF if until is None else until
        stop = -1 if max_events is None else max(max_events, 0)
        fired = 0
        try:
            while heap:
                if fired == stop:
                    return
                entry = heap[0]
                ev = entry[2]
                if ev.__class__ is event_cls:
                    if ev.cancelled:
                        pop(heap)
                        self._cancelled -= 1
                        continue
                    callback = ev.callback
                else:
                    callback = ev
                time = entry[0]
                if time > limit:
                    self.now = until
                    return
                pop(heap)
                self.now = time
                fired += 1
                callback()
        finally:
            self._events_processed += fired
        if until is not None and until > self.now:
            self.now = until
