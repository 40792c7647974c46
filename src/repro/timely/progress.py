"""Progress tracking: capabilities, in-flight messages, frontier propagation.

This is an exact, centralized implementation of the Naiad progress-tracking
protocol for acyclic dataflows.  The real system distributes the protocol by
broadcasting count updates between workers; because correctness only needs
the *conservative* property (a frontier never advances past a timestamp that
may still appear), a centralized exact tracker is a faithful stand-in and is
what lets the reproduction make hard guarantees in tests.

Accounting:

* Every operator holds a multiset of **capabilities** (timestamps at which
  it may still produce output).  Sources hold a capability at their current
  epoch; notificators hold capabilities at requested times; Megaphone's F
  operator holds capabilities at pending migration times.
* Every channel holds a multiset of **in-flight** message timestamps,
  incremented when a batch is sent and decremented when the receiving
  operator instance has fully consumed it (delivery alone is not enough —
  queued batches still hold the frontier back, which is exactly what creates
  observable latency under backlog).

Frontiers:

* ``output_frontier(op)`` = minimal elements of (op's capabilities ∪ all of
  op's input frontiers) — the identity path summary of an acyclic graph.
* ``input_frontier(op, port)`` = minimal elements over incoming channels of
  (channel in-flight times ∪ upstream output frontier).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.timely.antichain import Antichain, MutableAntichain, minimal_antichain
from repro.timely.graph import GraphBuilder
from repro.timely.timestamp import Timestamp


@dataclass(frozen=True)
class FrontierChange:
    """One observed input-frontier change."""

    op: int
    port: int
    frontier: Antichain


@dataclass(frozen=True)
class ProgressChanges:
    """Frontier changes produced by one propagation pass."""

    inputs: tuple[FrontierChange, ...]
    outputs: tuple[int, ...]  # operator indices whose output frontier changed

    def __bool__(self) -> bool:
        return bool(self.inputs or self.outputs)


_NO_CHANGES = ProgressChanges(inputs=(), outputs=())


class ProgressTracker:
    """Exact frontier computation over an acyclic dataflow graph."""

    def __init__(self, graph: GraphBuilder) -> None:
        self._graph = graph
        self._topo = graph.topological_order()
        self._capabilities: list[MutableAntichain] = [
            MutableAntichain() for _ in graph.operators
        ]
        self._in_flight: list[MutableAntichain] = [
            MutableAntichain() for _ in graph.channels
        ]
        self._inputs_of = [graph.inputs_of(op.index) for op in graph.operators]
        self._input_frontiers: dict[tuple[int, int], Antichain] = {}
        self._output_frontiers: list[Antichain] = [
            Antichain() for _ in graph.operators
        ]
        for op in graph.operators:
            for port in range(op.n_inputs):
                self._input_frontiers[(op.index, port)] = Antichain()
        # Incremental propagation: only operators whose capabilities, input
        # channels, or upstream output frontiers changed since the last pass
        # need recomputation.  ``_channel_dst`` maps channel index -> dst op;
        # ``_downstream`` maps op -> ops fed by its output channels.
        self._channel_dst: list[int] = [ch.dst_op for ch in graph.channels]
        downstream: list[list[int]] = [[] for _ in graph.operators]
        for ch in graph.channels:
            if ch.dst_op not in downstream[ch.src_op]:
                downstream[ch.src_op].append(ch.dst_op)
        self._downstream: list[list[int]] = downstream
        self._dirty = True
        self._dirty_ops: set[int] = set(self._topo)
        self._pending_inputs: list[FrontierChange] = []
        self._pending_outputs: list[int] = []

    # -- accounting updates ------------------------------------------------

    def capability_update(self, op: int, time: Timestamp, delta: int) -> None:
        """Adjust operator ``op``'s capability count at ``time``."""
        if self._capabilities[op].update(time, delta):
            self._dirty = True
            self._dirty_ops.add(op)

    def message_sent(self, channel: int, time: Timestamp, count: int = 1) -> None:
        """Record ``count`` batches sent on ``channel`` at ``time``."""
        if self._in_flight[channel].update(time, count):
            self._dirty = True
            self._dirty_ops.add(self._channel_dst[channel])

    def message_consumed(self, channel: int, time: Timestamp, count: int = 1) -> None:
        """Record ``count`` batches consumed from ``channel`` at ``time``."""
        if self._in_flight[channel].update(time, -count):
            self._dirty = True
            self._dirty_ops.add(self._channel_dst[channel])

    # -- frontier queries ----------------------------------------------------

    def input_frontier(self, op: int, port: int) -> Antichain:
        """Current frontier of input ``port`` of operator ``op``."""
        if self._dirty:
            self.propagate()
        return self._input_frontiers[(op, port)]

    def output_frontier(self, op: int) -> Antichain:
        """Current output frontier of operator ``op``."""
        if self._dirty:
            self.propagate()
        return self._output_frontiers[op]

    def capabilities(self, op: int) -> MutableAntichain:
        """Operator ``op``'s capability multiset (for assertions/tests)."""
        return self._capabilities[op]

    def in_flight(self, channel: int) -> MutableAntichain:
        """Channel in-flight multiset (for assertions/tests)."""
        return self._in_flight[channel]

    def idle(self) -> bool:
        """True when no capabilities and no in-flight messages remain."""
        return all(c.is_empty() for c in self._capabilities) and all(
            f.is_empty() for f in self._in_flight
        )

    # -- propagation ---------------------------------------------------------

    def propagate(self) -> None:
        """Recompute dirty frontiers; accumulate changes for draining.

        Only operators touched by an accounting update — or fed by an
        operator whose output frontier changed this pass — are recomputed;
        every other operator's frontiers are provably unchanged.  Changes
        survive until ``drain_changes`` is called, so frontier queries issued
        from inside operator callbacks never swallow change notifications
        intended for the runtime.
        """
        if not self._dirty:
            return
        self._dirty = False
        dirty_ops = self._dirty_ops
        self._dirty_ops = set()
        input_changes = self._pending_inputs
        output_changes = self._pending_outputs
        in_flight = self._in_flight
        output_frontiers = self._output_frontiers
        input_frontiers_of = self._input_frontiers
        for op_index in self._topo:
            if op_index not in dirty_ops:
                continue
            # The output frontier's sources, in insertion order:
            # capabilities, then each input port's frontier.
            sources = [self._capabilities[op_index].frontier()]
            for port, channels in enumerate(self._inputs_of[op_index]):
                feeding = []
                for channel in channels:
                    feeding.append(in_flight[channel.index].frontier())
                    feeding.append(output_frontiers[channel.src_op])
                key = (op_index, port)
                previous = input_frontiers_of[key]
                frontier = minimal_antichain(feeding, previous)
                if frontier is not previous and frontier != previous:
                    input_frontiers_of[key] = frontier
                    input_changes.append(
                        FrontierChange(op=op_index, port=port, frontier=frontier)
                    )
                sources.append(frontier)
            previous = output_frontiers[op_index]
            output = minimal_antichain(sources, previous)
            if output is not previous and output != previous:
                output_changes.append(op_index)
                output_frontiers[op_index] = output
                # A changed output frontier can move downstream input
                # frontiers; those ops come later in topological order,
                # so marking them here reaches them within this pass.
                dirty_ops.update(self._downstream[op_index])

    def drain_changes(self) -> ProgressChanges:
        """Propagate and hand back all accumulated frontier changes."""
        self.propagate()
        if not self._pending_inputs and not self._pending_outputs:
            return _NO_CHANGES
        changes = ProgressChanges(
            inputs=tuple(self._pending_inputs),
            outputs=tuple(dict.fromkeys(self._pending_outputs)),
        )
        self._pending_inputs = []
        self._pending_outputs = []
        return changes

    @property
    def dirty(self) -> bool:
        """True when an update has not yet been propagated."""
        return self._dirty

    @property
    def has_updates(self) -> bool:
        """True when propagation or undrained changes are outstanding."""
        return self._dirty or bool(self._pending_inputs) or bool(self._pending_outputs)
