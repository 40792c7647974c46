"""Deterministic discrete-event simulation engine.

The engine keeps a single binary heap of pending events.  Events scheduled at
the same simulated time fire in the order they were scheduled (a per-entry
sequence number breaks ties), which makes every simulation run fully
deterministic and therefore reproducible and debuggable.

Callbacks due at one instant share a heap entry.  With one entry per
callback, a new callback would take the next ``seq`` and so sort after every
callback still due at its time; appending it to the newest entry for that
time gives it exactly that position.  The newest entry at an instant,
pending or firing, takes that instant's fast callbacks: a firing group
appends them to the list it is iterating, so a callback scheduled at
``now`` fires in the same pass, after everything already in the group.  A
cancellable :class:`Event` gets its own entry and becomes the newest at its
time, so fast callbacks scheduled after it start a new entry that sorts
after it; an Event that fires while it is still the newest entry at its
time opens a group for the callbacks it schedules at ``now``.  Every
callback therefore fires in the same order, at the same ``now``, as with one
entry per callback; ``events_processed`` counts heap entries.  (A callback
that raises takes the rest of its group with it; nothing resumes a
simulator after a raise.)

The simulator also carries the process-wide :class:`~repro.runtime_events.bus.TraceBus`
(as ``sim.trace``): every layer of the runtime holds a simulator reference, so
the bus placed here is reachable from workers, the network, the progress pump,
and the Megaphone operators without any extra plumbing.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.runtime_events.bus import TraceBus

# Lazy deletion keeps cancellation O(1), but workloads that re-arm timers
# (notificators, pacing controllers) can leave the heap dominated by dead
# entries.  Once more than half the heap is cancelled (and the heap is big
# enough for the sweep to matter) we rebuild it from the live events.
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class Event:
    """A scheduled callback.

    Heap entries are ``[time, seq, item]`` lists, so ordering is decided
    by C-level list comparison — ``seq`` is unique, so the comparison never
    reaches the item itself.  ``cancelled`` events stay in the heap
    but are skipped when popped (lazy deletion), which keeps cancellation
    O(1); the owning simulator compacts the heap when cancelled entries
    outnumber live ones.  An event that fires is detached from its
    simulator, so cancelling it afterwards only sets the flag.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        owner: Optional["Simulator"] = None,
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


class Simulator:
    """Event heap with a deterministic execution order.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, lambda: fired.append("a"))
    >>> _ = sim.schedule(0.5, lambda: fired.append("b"))
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.trace: TraceBus = TraceBus()
        # [time, seq, item] entries, where item is an Event or a plain list
        # of the callbacks due at that instant (no callback is a list;
        # DomainSimulator's tuple entries hold a bare callable): the heap
        # orders by C-level list comparison without ever invoking Python
        # comparison methods.
        self._heap: list[list] = []
        # time -> the newest entry at that time, pending or firing: a fast
        # callback at that time joins it if it is a group.  An Event's entry
        # is recorded too, so callbacks scheduled after it start a new entry.
        # Dropped when the entry has fired or is popped cancelled.
        self._pending_at: dict[float, list] = {}
        # Iterator over the group ``run`` is firing: ``peek_time`` reports
        # ``now`` while callbacks remain in it.
        self._firing = None
        self._seq: int = 0
        self._events_processed: int = 0
        self._cancelled: int = 0

    @property
    def events_processed(self) -> int:
        """Number of heap entries that have fired so far."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative delays are clamped to zero: an event can never fire in the
        simulated past.
        """
        return self.schedule_at(self.now + max(delay, 0.0), callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        # Negated so that NaN, which compares false to everything, is refused.
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at {time!r}: simulated time is already {self.now!r}"
            )
        seq = self._seq + 1
        self._seq = seq
        event = Event(time, seq, callback, False, self)
        entry = [time, seq, event]
        heapq.heappush(self._heap, entry)
        self._pending_at[time] = entry
        return event

    def schedule_fast(self, delay: float, callback: Callable[[], None]) -> None:
        """Like :meth:`schedule` but without a handle: the callback cannot be
        cancelled, so no :class:`Event` is allocated.  Ordering is identical
        (same sequence counter)."""
        delay = 0.0 if delay < 0.0 else delay
        self.schedule_fast_at(self.now + delay, callback)

    def schedule_fast_at(self, time: float, callback: Callable[[], None]) -> None:
        """Like :meth:`schedule_at` but without a handle (not cancellable).

        The hot activation path schedules hundreds of thousands of these,
        so no Event is allocated: the callback joins the newest entry for
        ``time`` if that is a group, pending or firing, and otherwise starts
        a new group entry.
        """
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at {time!r}: simulated time is already {self.now!r}"
            )
        entry = self._pending_at.get(time)
        if entry is not None:
            group = entry[2]
            if group.__class__ is list:
                group.append(callback)
                return
            # An Event not yet fired: the callback must sort after it.
        seq = self._seq + 1
        self._seq = seq
        entry = [time, seq, [callback]]
        heapq.heappush(self._heap, entry)
        self._pending_at[time] = entry

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
        the rebuilt heap pops in exactly the same sequence as the old one,
        and the groups ``_pending_at`` points at are kept as they are.
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
        # In place as well: ``run`` holds a local alias to this dict too.
        pending = self._pending_at
        for time in [
            time
            for time, entry in pending.items()
            if entry[2].__class__ is Event and entry[2].cancelled
        ]:
            del pending[time]

    def _drop_pending(self, entry: list) -> None:
        if self._pending_at.get(entry[0]) is entry:
            del self._pending_at[entry[0]]

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if none remain.

        Called from a callback, this is ``now`` while callbacks of the
        firing group are still due.
        """
        firing = self._firing
        if firing is not None and firing.__length_hint__() > 0:
            return self.now
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[2]
            if ev.__class__ is Event and ev.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                self._drop_pending(entry)
                continue
            return entry[0]
        return None

    def step(self) -> bool:
        """Fire the next callback.  Returns False when none remain.

        A group fires one callback per step: the rest stay pending in the
        same entry, so stepping fires callbacks one at a time in the order
        :meth:`run` fires them.  The entry counts as processed when its
        last callback fires.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            time, _seq, item = entry
            cls = item.__class__
            if cls is list and len(item) > 1:
                callback = item.pop(0)  # the entry's heap key is unchanged
            else:
                heapq.heappop(heap)
                self._drop_pending(entry)
                if cls is Event:
                    if item.cancelled:
                        self._cancelled -= 1
                        continue
                    item.owner = None  # fired: a later cancel() only flags it
                    callback = item.callback
                else:
                    callback = item[0] if cls is list else item
                self._events_processed += 1
            self.now = time
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` heap entries have fired.

        When stopping at ``until``, the clock is advanced to ``until`` so a
        subsequent ``run`` resumes from there.
        """
        # The drain loop is the single hottest function in the simulator, so
        # it inlines ``peek_time`` + ``step`` to touch the heap once per
        # entry, compares each entry against one float limit, and counts
        # fired entries in a local written back on exit.  ``_compact``
        # rebuilds the heap in place, so the local alias stays valid across
        # callbacks.
        heap = self._heap
        pending = self._pending_at
        pop = heapq.heappop
        event_cls = Event
        list_cls = list
        limit = _INF if until is None else until
        stop = -1 if max_events is None else max(max_events, 0)
        fired = 0
        try:
            while heap:
                if fired == stop:
                    return
                entry = heap[0]
                item = entry[2]
                cls = item.__class__
                time = entry[0]
                if cls is event_cls and item.cancelled:
                    pop(heap)
                    self._cancelled -= 1
                    if pending.get(time) is entry:
                        del pending[time]
                    continue
                if time > limit:
                    self.now = until
                    return
                pop(heap)
                self.now = time
                fired += 1
                if cls is event_cls:
                    item.owner = None  # fired: a later cancel() only flags it
                    if pending.get(time) is not entry:
                        item.callback()
                        continue
                    # Still the newest entry at ``now``: it becomes a group
                    # that takes the callbacks it schedules there.
                    item = entry[2] = [item.callback]
                elif cls is not list_cls:
                    item()  # a bare callable: DomainSimulator never groups
                    continue
                # The entry stays in ``pending`` while it fires, so callbacks
                # scheduled at ``now`` join the list this loop iterates.
                callbacks = iter(item)
                self._firing = callbacks
                try:
                    for callback in callbacks:
                        callback()
                finally:
                    self._firing = None
                    if pending.get(time) is entry:
                        del pending[time]
        finally:
            self._events_processed += fired
        if until is not None and until > self.now:
            self.now = until

    def run_below(self, bound: float, max_events: Optional[int] = None) -> int:
        """Fire every pending event with time **strictly less than** ``bound``.

        Unlike :meth:`run`, the clock is *not* advanced to ``bound`` when the
        heap drains or the next event lies at/after the bound: the caller (a
        conservative parallel-DES window loop) may later be granted a smaller
        next bound by its neighbors, and advancing the clock past that grant
        would make remote injections appear in the simulated past.  Returns
        the number of heap entries fired.
        """
        heap = self._heap
        pending = self._pending_at
        pop = heapq.heappop
        event_cls = Event
        list_cls = list
        stop = -1 if max_events is None else max(max_events, 0)
        fired = 0
        try:
            while heap:
                if fired == stop:
                    break
                entry = heap[0]
                item = entry[2]
                cls = item.__class__
                if cls is event_cls and item.cancelled:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time >= bound:
                    break
                pop(heap)
                if pending.get(time) is entry:
                    del pending[time]
                self.now = time
                fired += 1
                if cls is list_cls:
                    for callback in item:
                        callback()
                elif cls is event_cls:
                    item.owner = None  # fired: a later cancel() only flags it
                    item.callback()
                else:
                    item()
        finally:
            self._events_processed += fired
        return fired
