"""Antichains and counted (mutable) antichains.

A frontier (paper Definition 1) is an antichain: a set of mutually
incomparable timestamps such that every message still in flight is in advance
of some element.  ``Antichain`` is the immutable-ish set; ``MutableAntichain``
tracks a multiset of timestamps with occurrence counts and incrementally
maintains the antichain of its minimal elements, which is how progress
tracking represents capabilities and in-flight message times.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.timely.timestamp import Timestamp, less_equal, less_than


class Antichain:
    """A minimal set of mutually incomparable timestamps.

    The empty antichain means "nothing can ever arrive" (a closed frontier).
    """

    __slots__ = ("_elements",)

    def __init__(self, elements: Iterable[Timestamp] = ()) -> None:
        self._elements: list[Timestamp] = []
        for element in elements:
            self.insert(element)

    def insert(self, time: Timestamp) -> bool:
        """Insert ``time`` unless an existing element is <= it.

        Removes any existing elements dominated by ``time``.  Returns True
        when the element was inserted.
        """
        if type(time) is int:
            # Integers are totally ordered, so an integer antichain holds at
            # most one element: keep the smaller of it and ``time``.
            elements = self._elements
            if not elements:
                self._elements = [time]
                return True
            if len(elements) == 1 and type(elements[0]) is int:
                if elements[0] <= time:
                    return False
                self._elements = [time]
                return True
        for existing in self._elements:
            if less_equal(existing, time):
                return False
        self._elements = [e for e in self._elements if not less_equal(time, e)]
        self._elements.append(time)
        return True

    def less_equal(self, time: Timestamp) -> bool:
        """Is ``time`` in advance of this frontier (some element <= time)?"""
        elements = self._elements
        if len(elements) == 1 and type(time) is int and type(elements[0]) is int:
            return elements[0] <= time
        return any(less_equal(e, time) for e in elements)

    def less_than(self, time: Timestamp) -> bool:
        """Is some element strictly less than ``time``?"""
        elements = self._elements
        if len(elements) == 1 and type(time) is int and type(elements[0]) is int:
            return elements[0] < time
        return any(less_than(e, time) for e in elements)

    def dominates(self, other: "Antichain") -> bool:
        """True when every element of ``other`` is in advance of self."""
        return all(self.less_equal(t) for t in other)

    def elements(self) -> list[Timestamp]:
        """The antichain's elements (copy)."""
        return list(self._elements)

    def is_empty(self) -> bool:
        """True when the frontier is closed (no timestamps remain)."""
        return not self._elements

    def __iter__(self) -> Iterator[Timestamp]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, time: Timestamp) -> bool:
        return time in self._elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Antichain):
            return NotImplemented
        mine, theirs = self._elements, other._elements
        if len(mine) != len(theirs):
            return False
        if not mine:
            return True
        if len(mine) == 1:
            return mine[0] == theirs[0]
        return sorted(map(repr, mine)) == sorted(map(repr, theirs))

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key in hot paths
        return hash(tuple(sorted(map(repr, self._elements))))

    def __repr__(self) -> str:
        return f"Antichain({sorted(map(repr, self._elements))})"


def minimal_antichain(antichains: list, previous: Antichain) -> Antichain:
    """The antichain of the minimal elements of ``antichains``, inserted in
    their order.

    Integer times are totally ordered, so their antichain is their minimum:
    found without building a set, and answered with ``previous`` itself when
    that minimum is unchanged.  Other times build a new antichain, which the
    caller compares with ``previous``.
    """
    times: list = []
    for antichain in antichains:
        times += antichain._elements
    for time in times:
        if type(time) is not int:
            return Antichain(times)
    old = previous._elements
    if not times:
        return previous if not old else Antichain()
    low = min(times)
    if len(old) == 1 and type(old[0]) is int and old[0] == low:
        return previous
    return Antichain((low,))


class MutableAntichain:
    """A multiset of timestamps exposing the antichain of its minima.

    ``update`` adjusts occurrence counts; the ``frontier`` is recomputed
    from live elements when counts change at or below it.  Counts must never
    go negative — that indicates a progress-tracking accounting bug, and we
    fail loudly.
    """

    __slots__ = ("_counts", "_frontier")

    def __init__(self) -> None:
        self._counts: dict[Timestamp, int] = {}
        self._frontier: Optional[Antichain] = Antichain()

    def update(self, time: Timestamp, delta: int) -> bool:
        """Adjust the count of ``time`` by ``delta``.

        Returns True when the frontier may have changed (callers may then
        re-read ``frontier()``).  When the count merely moves between two
        positive values the set of live timestamps — and therefore the
        frontier — is unchanged, so the cached frontier is kept and False
        is returned.
        """
        if delta == 0:
            return False
        counts = self._counts
        old_count = counts.get(time, 0)
        new_count = old_count + delta
        if new_count < 0:
            raise ValueError(
                f"count for {time!r} would become negative ({new_count}); "
                "progress accounting is corrupted"
            )
        if new_count == 0:
            del counts[time]
        else:
            counts[time] = new_count
            if old_count > 0:
                return False
        self._frontier = None
        return True

    def frontier(self) -> Antichain:
        """Antichain of minimal live timestamps."""
        if self._frontier is None:
            frontier = Antichain()
            for time in self._counts:
                frontier.insert(time)
            self._frontier = frontier
        return self._frontier

    def count(self, time: Timestamp) -> int:
        """Occurrence count of ``time``."""
        return self._counts.get(time, 0)

    def is_empty(self) -> bool:
        """True when no timestamps are live."""
        return not self._counts

    def total(self) -> int:
        """Total number of live occurrences."""
        return sum(self._counts.values())

    def times(self) -> list[Timestamp]:
        """All live timestamps (unordered copy)."""
        return list(self._counts)

    def __repr__(self) -> str:
        return f"MutableAntichain({self._counts!r})"
