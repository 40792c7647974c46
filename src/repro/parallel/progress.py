"""Per-domain progress-tracker views with broadcast remote updates.

The serial runtime uses one centralized zero-latency :class:`ProgressTracker`.
That cannot be sharded byte-identically — a remote worker's capability
drop cannot be visible in the same simulated instant without a global
synchronization per event — so sharded runs (``--parallel 0``) give each
domain its own tracker **view**: local accounting applies immediately, and
is simultaneously logged for broadcast to every other domain, where it is
applied after one delivery quantum of simulated latency.

Updates are net-coalesced per quantum per ``(kind, index, time)`` and each
quantum's batch is applied atomically at the receiver, so a view never
observes a torn prefix of another domain's activation.  Per-source batches
are delivered in generation order (delivery time is monotone in the quantum
id), which preserves the standard distributed-Naiad conservatism argument:
any outstanding work at ``t`` is justified by some visible ``+1`` whose
``-1`` cannot arrive earlier than the work's own accounting.

One asymmetry survives: a third-party view may apply a *consume* (``-1``)
before the matching *send* (``+1``) from a different source domain, driving
a channel's in-flight count transiently negative.  :class:`SlackAntichain`
tolerates that (negative counts are kept but masked from the frontier);
the base :class:`MutableAntichain` would raise.  Capabilities never go
negative per-view — every worker only drops capabilities it itself holds,
so per-source prefixes are non-negative and sums of non-negative prefixes
stay non-negative.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from repro.timely.antichain import Antichain, MutableAntichain
from repro.timely.graph import GraphBuilder
from repro.timely.progress import ProgressTracker
from repro.timely.timestamp import Timestamp

# Update kinds (ints: fast to compare).
CAP = 0  # capability_update(op, time, delta)
MSG = 1  # in-flight update(channel, time, delta); delta<0 == consumed

#: One broadcastable accounting update: (kind, index, time, delta).
Update = tuple[int, int, Timestamp, int]


class SlackAntichain(MutableAntichain):
    """A counted antichain that tolerates transiently negative counts.

    ``frontier()`` reflects only positive counts; ``update`` returns True
    exactly when the set of positive-count timestamps may have changed.
    """

    def update(self, time: Timestamp, delta: int) -> bool:
        if delta == 0:
            return False
        old_count = self._counts.get(time, 0)
        new_count = old_count + delta
        if new_count == 0:
            del self._counts[time]
        else:
            self._counts[time] = new_count
        if (old_count > 0) == (new_count > 0):
            return False
        self._frontier = None
        return True

    def frontier(self) -> Antichain:
        if self._frontier is None:
            frontier = Antichain()
            for time, count in self._counts.items():
                if count > 0:
                    frontier.insert(time)
            self._frontier = frontier
        return self._frontier

    def is_empty(self) -> bool:
        return not any(count > 0 for count in self._counts.values())

    def total(self) -> int:
        return sum(count for count in self._counts.values() if count > 0)

    def __repr__(self) -> str:
        return f"SlackAntichain({dict(self._counts)!r})"


class DomainTracker(ProgressTracker):
    """A domain's view of global progress.

    Local accounting calls behave exactly like the base tracker *and* append
    ``(gen, kind, index, time, delta)`` to an update log (``gen`` is the
    domain clock at call time).  :meth:`take_update_batches` drains the log
    into quantized delivery batches for broadcast; :meth:`apply_remote`
    applies a received batch without re-logging it.
    """

    def __init__(self, graph: GraphBuilder, clock: Callable[[], float]) -> None:
        super().__init__(graph)
        # In-flight views may dip negative (see module docstring).
        self._in_flight = [SlackAntichain() for _ in graph.channels]
        self._clock = clock
        self._log: list[tuple[float, int, int, Timestamp, int]] = []

    # -- logged local accounting ------------------------------------------

    def capability_update(self, op: int, time: Timestamp, delta: int) -> None:
        if delta:
            self._log.append((self._clock(), CAP, op, time, delta))
        super().capability_update(op, time, delta)

    def message_sent(self, channel: int, time: Timestamp, count: int = 1) -> None:
        if count:
            self._log.append((self._clock(), MSG, channel, time, count))
        super().message_sent(channel, time, count)

    def message_consumed(self, channel: int, time: Timestamp, count: int = 1) -> None:
        if count:
            self._log.append((self._clock(), MSG, channel, time, -count))
        super().message_consumed(channel, time, count)

    # -- broadcast plumbing ------------------------------------------------

    def seed_capability(self, op: int, time: Timestamp, delta: int) -> None:
        """Apply a setup-time capability without logging it for broadcast.

        Used for source seeding: every domain seeds the *full* worker set's
        source capabilities locally and identically, so the global t=0 view
        is consistent without any messages.
        """
        super().capability_update(op, time, delta)

    def take_update_batches(
        self, quantum: float
    ) -> list[tuple[float, tuple[Update, ...]]]:
        """Drain the local log into ``(delivery_time, batch)`` pairs.

        Updates are bucketed by delivery quantum (``ceil((gen + q) / q)``
        with ``q`` = the lookahead), net-coalesced per ``(kind, index,
        time)`` within a bucket (first-appearance order — deterministic),
        and stamped ``delivery = max(qid * q, max_gen + q)`` — the clamp
        guards against an ulp of float rounding ever violating the
        ``delivery >= gen + lookahead`` conservatism bound.  Delivery times
        are monotone in quantum id, so per-source FIFO order is preserved.
        """
        log = self._log
        if not log:
            return []
        self._log = []
        buckets: dict[int, tuple[float, dict[tuple[int, int, Timestamp], int]]] = {}
        for gen, kind, index, time, delta in log:
            qid = math.ceil((gen + quantum) / quantum)
            entry = buckets.get(qid)
            if entry is None:
                buckets[qid] = (gen, {(kind, index, time): delta})
                continue
            max_gen, nets = entry
            if gen > max_gen:
                buckets[qid] = (gen, nets)
            key = (kind, index, time)
            nets[key] = nets.get(key, 0) + delta
        batches: list[tuple[float, tuple[Update, ...]]] = []
        for qid in sorted(buckets):
            max_gen, nets = buckets[qid]
            batch = tuple(
                (kind, index, time, delta)
                for (kind, index, time), delta in nets.items()
                if delta != 0
            )
            if batch:
                delivery = max(qid * quantum, max_gen + quantum)
                batches.append((delivery, batch))
        return batches

    def apply_remote(self, batch: Iterable[Update]) -> None:
        """Apply one received batch atomically, without re-logging it."""
        cap = ProgressTracker.capability_update
        msg = ProgressTracker.message_sent
        for kind, index, time, delta in batch:
            if kind == CAP:
                cap(self, index, time, delta)
            else:
                msg(self, index, time, delta)
