"""Probes: passive observation of timestamp progress at a dataflow point.

Timely dataflow probes let any party — downstream operators, external
controllers, test harnesses — observe how far a stream's frontier has
advanced without interrupting execution (paper §4.3, "Monitoring output
frontiers").  A probe on a stream reports the output frontier of the
operator that produces it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.timely.antichain import Antichain
from repro.timely.timestamp import Timestamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.timely.dataflow import Runtime


class Probe:
    """Observes the output frontier of one operator."""

    def __init__(self, runtime: "Runtime", op_index: int) -> None:
        self._runtime = runtime
        self.op_index = op_index
        self._callbacks: list[Callable[[Antichain], None]] = []

    def frontier(self) -> Antichain:
        """The probed stream's current frontier."""
        return self._runtime.tracker.output_frontier(self.op_index)

    def pending(self, time: Timestamp) -> bool:
        """True when records with timestamp <= ``time`` may still appear."""
        return self.frontier().less_equal(time)

    def passed(self, time: Timestamp) -> bool:
        """True when the frontier has advanced beyond ``time``.

        This is the paper's migration trigger: once ``time`` can no longer
        appear at the probed point, all earlier updates have been absorbed.
        """
        return not self.pending(time)

    def reached(self, time: Timestamp) -> bool:
        """True when ``time`` itself is present in or beyond the frontier.

        Matches the paper's phrasing "F initiates a migration once time is
        present in the output frontier of S": equivalent to no *strictly
        smaller* timestamp remaining.
        """
        frontier = self.frontier()
        return not frontier.less_than(time)

    def done(self) -> bool:
        """True when the frontier is closed (the stream is complete)."""
        return self.frontier().is_empty()

    def on_advance(
        self, callback: Callable[[Antichain], None], first: bool = False
    ) -> None:
        """Register ``callback(frontier)`` for every frontier change, after
        the callbacks already registered or, with ``first``, before them."""
        self._callbacks.insert(0 if first else len(self._callbacks), callback)

    def _fire(self, frontier: Antichain) -> None:
        for callback in self._callbacks:
            callback(frontier)
