"""Pending-work helpers: timely's Notificator idiom and Megaphone's
extended, data-carrying variant.

Timely dataflow's ``Notificator`` lets an operator ask to be woken when the
input frontier passes a time, but does not remember which keys, values, or
records prompted the request.  Megaphone extends the idiom (paper §4.3,
"Capturing timely idioms"): future ``(time, key, val)`` triples are buffered
in a priority queue and replayed once the frontier permits, which both
relieves operators of side bookkeeping and surfaces pending records for
migration.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Optional

from repro.timely.timestamp import Timestamp, order_key


class PendingQueue:
    """A priority queue of ``(time, item)`` pairs drained in time order.

    The queue is the migration unit for pending work: Megaphone serializes
    and ships it together with bin state.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: Timestamp, item: object) -> None:
        """Buffer ``item`` for replay at ``time``."""
        self._seq += 1
        heapq.heappush(self._heap, (order_key(time), self._seq, time, item))

    def peek_time(self) -> Optional[Timestamp]:
        """Earliest buffered time, or None when empty."""
        if not self._heap:
            return None
        return self._heap[0][2]

    def pop_ready(self, ready: Callable[[Timestamp], bool]) -> list[tuple[Timestamp, object]]:
        """Pop all entries whose time satisfies ``ready``, earliest first.

        ``ready`` is typically "the frontier has passed this time".  Stops at
        the first entry that is not ready (entries are time-ordered).
        """
        out: list[tuple[Timestamp, object]] = []
        while self._heap and ready(self._heap[0][2]):
            _, _, time, item = heapq.heappop(self._heap)
            out.append((time, item))
        return out

    def drain(self) -> list[tuple[Timestamp, object]]:
        """Remove and return everything, earliest first (used by migration)."""
        out = []
        while self._heap:
            _, _, time, item = heapq.heappop(self._heap)
            out.append((time, item))
        return out

    def extend(self, entries: Iterable[tuple[Timestamp, object]]) -> None:
        """Install entries (used when receiving migrated pending work)."""
        for time, item in entries:
            self.push(time, item)

    def times(self) -> list[Timestamp]:
        """Distinct buffered times."""
        return sorted({entry[2] for entry in self._heap}, key=order_key)

    def __bool__(self) -> bool:
        return bool(self._heap)
