"""Per-domain event loop for the sharded simulation.

:class:`DomainSimulator` is a :class:`~repro.sim.engine.Simulator` whose heap
keys are *uniformly* tuples, so locally-scheduled events and remotely-injected
events never mix ``int`` and ``tuple`` sequence numbers in one comparison:

* local events carry seq ``(1, 0, n)`` with ``n`` drawn from the ordinary
  monotone counter;
* remote injections carry seq ``(0, src_domain, src_seq)`` where ``src_seq``
  is assigned by the *sender* in creation order.

At equal times, remote injections therefore fire before local events, and
remote injections from different senders fire in ``(src_domain, src_seq)``
order — both total orders are functions of the (deterministic) message
streams alone, so every run replays the same event sequence.
"""

from __future__ import annotations

from typing import Callable

import heapq

from repro.sim.engine import Event, Simulator


class DomainSimulator(Simulator):
    """Simulator whose heap keys admit deterministic remote injection."""

    #: seq prefix for locally scheduled events (sorts after remote = 0).
    _LOCAL = 1
    #: seq prefix for remotely injected events (sorts before local = 1).
    _REMOTE = 0

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time!r}: simulated time is already {self.now!r}"
            )
        n = self._seq + 1
        self._seq = n
        seq = (self._LOCAL, 0, n)
        event = Event(time, seq, callback, False, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_fast_at(self, time: float, callback: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time!r}: simulated time is already {self.now!r}"
            )
        n = self._seq + 1
        self._seq = n
        heapq.heappush(self._heap, (time, (self._LOCAL, 0, n), callback))

    def inject_remote(
        self,
        time: float,
        src_domain: int,
        src_seq: int,
        callback: Callable[[], None],
    ) -> None:
        """Inject a cross-domain delivery at ``time``.

        ``src_seq`` is the sender-assigned creation-order sequence; together
        with ``src_domain`` it gives remote injections a machine-independent
        total order at equal times.  Injection in the simulated past is a
        protocol violation (the conservative window bound should make it
        impossible) and raises.
        """
        if time < self.now:
            raise ValueError(
                f"remote injection at {time!r} violates lookahead: "
                f"domain clock is already {self.now!r}"
            )
        heapq.heappush(self._heap, (time, (self._REMOTE, src_domain, src_seq), callback))
