"""Dataflow graph description: operators, ports, channels, exchange pacts.

The graph is a build-time description shared by all workers.  Every operator
is instantiated once per worker; channels describe how records move between
operator instances (within a worker, or exchanged/broadcast across workers).
The graph must be acyclic — Megaphone needs no feedback edges, and acyclicity
lets progress tracking propagate frontiers in one topological pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence


class Pact:
    """Parallelization contract: how a channel partitions records."""

    def route(self, record: object, num_workers: int, src_worker: int) -> Sequence[int]:
        """Destination worker ids for ``record``."""
        raise NotImplementedError


class Pipeline(Pact):
    """Records stay on the worker that produced them."""

    def route(self, record: object, num_workers: int, src_worker: int) -> Sequence[int]:
        return (src_worker,)

    def __repr__(self) -> str:
        return "Pipeline()"


class Exchange(Pact):
    """Records are routed by a key function modulo the worker count."""

    def __init__(self, key_fn: Callable[[object], int]) -> None:
        self.key_fn = key_fn

    def route(self, record: object, num_workers: int, src_worker: int) -> Sequence[int]:
        return (self.key_fn(record) % num_workers,)

    def __repr__(self) -> str:
        return f"Exchange({self.key_fn!r})"


class Broadcast(Pact):
    """Every worker receives a copy of every record."""

    def route(self, record: object, num_workers: int, src_worker: int) -> Sequence[int]:
        return range(num_workers)

    def __repr__(self) -> str:
        return "Broadcast()"


class GroupedExchange(Pact):
    """Records are destination-grouped batches that carry their own target.

    Used by Megaphone's F→S data channel: each record is a
    :class:`repro.runtime_events.items.DestinationBatch` whose ``dst`` field
    names the receiving worker, so partitioning costs one attribute read per
    *group* instead of one key hash per record.
    """

    def route(self, record: object, num_workers: int, src_worker: int) -> Sequence[int]:
        return (record.dst % num_workers,)

    def __repr__(self) -> str:
        return "GroupedExchange()"


@dataclass
class ChannelDesc:
    """A directed edge from an operator output port to an input port."""

    index: int
    src_op: int
    src_port: int
    dst_op: int
    dst_port: int
    pact: Pact
    label: str = ""


@dataclass
class OperatorDesc:
    """A vertex of the dataflow graph.

    ``logic_factory`` builds one logic instance per worker.  ``is_source``
    operators have no input ports and are driven by input handles.
    """

    index: int
    name: str
    n_inputs: int
    n_outputs: int
    logic_factory: Callable[[int], object]
    is_source: bool = False
    initial_timestamp: object = 0


class GraphBuilder:
    """Accumulates operator and channel descriptions for a dataflow."""

    def __init__(self) -> None:
        self.operators: list[OperatorDesc] = []
        self.channels: list[ChannelDesc] = []

    def add_operator(
        self,
        name: str,
        n_inputs: int,
        n_outputs: int,
        logic_factory: Callable[[int], object],
        is_source: bool = False,
        initial_timestamp: object = 0,
    ) -> OperatorDesc:
        """Register an operator and return its description."""
        desc = OperatorDesc(
            index=len(self.operators),
            name=name,
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            logic_factory=logic_factory,
            is_source=is_source,
            initial_timestamp=initial_timestamp,
        )
        self.operators.append(desc)
        return desc

    def connect(
        self,
        src_op: int,
        src_port: int,
        dst_op: int,
        dst_port: int,
        pact: Pact,
        label: str = "",
    ) -> ChannelDesc:
        """Register a channel between two ports, validating port bounds."""
        src = self.operators[src_op]
        dst = self.operators[dst_op]
        if not 0 <= src_port < src.n_outputs:
            raise ValueError(f"{src.name} has no output port {src_port}")
        if not 0 <= dst_port < dst.n_inputs:
            raise ValueError(f"{dst.name} has no input port {dst_port}")
        channel = ChannelDesc(
            index=len(self.channels),
            src_op=src_op,
            src_port=src_port,
            dst_op=dst_op,
            dst_port=dst_port,
            pact=pact,
            label=label or f"{src.name}:{src_port}->{dst.name}:{dst_port}",
        )
        self.channels.append(channel)
        return channel

    def inputs_of(self, op: int) -> list[list[ChannelDesc]]:
        """Channels arriving at each input port of ``op``."""
        by_port: list[list[ChannelDesc]] = [[] for _ in range(self.operators[op].n_inputs)]
        for channel in self.channels:
            if channel.dst_op == op:
                by_port[channel.dst_port].append(channel)
        return by_port

    def topological_order(self) -> list[int]:
        """Operator indices in topological order; raises on cycles."""
        indegree = [0] * len(self.operators)
        successors: list[set[int]] = [set() for _ in self.operators]
        edge_seen: set[tuple[int, int]] = set()
        for channel in self.channels:
            edge = (channel.src_op, channel.dst_op)
            if edge not in edge_seen and channel.src_op != channel.dst_op:
                edge_seen.add(edge)
                successors[channel.src_op].add(channel.dst_op)
                indegree[channel.dst_op] += 1
            elif channel.src_op == channel.dst_op:
                raise ValueError(f"self-loop at operator {channel.src_op}")
        ready = [i for i, deg in enumerate(indegree) if deg == 0]
        order: list[int] = []
        while ready:
            op = ready.pop(0)
            order.append(op)
            for succ in sorted(successors[op]):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.operators):
            raise ValueError("dataflow graph contains a cycle")
        return order
