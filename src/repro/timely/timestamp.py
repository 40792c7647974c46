"""Logical timestamps.

Timely dataflow timestamps form a partially ordered set.  This reproduction
supports two concrete kinds:

* plain integers (the common case: event-time milliseconds or epochs), which
  are totally ordered; and
* tuples of timestamps (``Product`` timestamps in timely parlance), compared
  component-wise, which are only partially ordered.

The paper's Definition 2 ("in advance of") is ``t' <= t`` for timestamps and
``exists f in F: f <= t`` for frontiers; both are implemented here.
"""

from __future__ import annotations

from typing import Iterable, Union

Timestamp = Union[int, tuple]


def less_equal(a: Timestamp, b: Timestamp) -> bool:
    """Partial-order comparison: is ``a`` <= ``b``?

    Integers compare numerically; tuples compare component-wise (all
    components must be <=).  Mixed or mismatched shapes are programming
    errors and raise ``TypeError``.
    """
    if type(a) is int and type(b) is int:
        return a <= b
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            raise TypeError(f"mismatched timestamp arity: {a!r} vs {b!r}")
        return all(less_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, tuple) or isinstance(b, tuple):
        raise TypeError(f"cannot compare {a!r} with {b!r}")
    return a <= b


def less_than(a: Timestamp, b: Timestamp) -> bool:
    """Strict partial-order comparison: ``a <= b`` and ``a != b``."""
    return a != b and less_equal(a, b)


def in_advance_of(t: Timestamp, other: Timestamp) -> bool:
    """Paper Definition 2(1): ``t`` is in advance of ``other`` iff t >= other."""
    return less_equal(other, t)


def join(a: Timestamp, b: Timestamp) -> Timestamp:
    """Least upper bound of two timestamps."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            raise TypeError(f"mismatched timestamp arity: {a!r} vs {b!r}")
        return tuple(join(x, y) for x, y in zip(a, b))
    if isinstance(a, tuple) or isinstance(b, tuple):
        raise TypeError(f"cannot join {a!r} with {b!r}")
    return max(a, b)


def meet(a: Timestamp, b: Timestamp) -> Timestamp:
    """Greatest lower bound of two timestamps."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            raise TypeError(f"mismatched timestamp arity: {a!r} vs {b!r}")
        return tuple(meet(x, y) for x, y in zip(a, b))
    if isinstance(a, tuple) or isinstance(b, tuple):
        raise TypeError(f"cannot meet {a!r} with {b!r}")
    return min(a, b)


def minimum_like(t: Timestamp) -> Timestamp:
    """The minimum timestamp of the same shape as ``t``.

    Integer timestamps in this reproduction start at 0; product timestamps
    start at the component-wise minimum.
    """
    if isinstance(t, tuple):
        return tuple(minimum_like(x) for x in t)
    return 0


def totally_ordered(times: Iterable[Timestamp]) -> bool:
    """True when every pair of the given timestamps is comparable."""
    seq = list(times)
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if not (less_equal(a, b) or less_equal(b, a)):
                return False
    return True
