"""Cluster and network model.

The simulated cluster mirrors the paper's testbed topology: workers (threads)
are grouped into processes, processes are connected by network links with
finite bandwidth and non-zero latency, and messages between workers of the
same process bypass the network.

Links serialize transmissions: a message must wait for the link to drain the
bytes queued ahead of it.  Bytes sitting in a link's send queue are charged
to the sending process's memory model, and a message's ``retained_bytes``
(sender-side memory pinned until the bytes leave, e.g. serialized migration
state) are released at transmit-complete — which is what produces the
all-at-once migration memory spikes of Figure 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.runtime_events.events import (
    AccountingClamped,
    MessageDropped,
    MessageEnqueued,
    MessageTransmitted,
)
from repro.sim.cost import CostModel
from repro.sim.engine import Simulator
from repro.sim.memory import MemoryModel


@dataclass(slots=True)
class NetworkMessage:
    """A payload in flight between two workers.

    ``retained_bytes`` is sender-side memory that must stay resident until
    the bytes have left the sender's queue; the cluster releases it from the
    sending process's ``retained`` pool at transmit-complete.

    ``on_dropped`` (when set) is invoked instead of delivery if fault
    injection loses the message, so the sender can compensate progress
    accounting for the payload.
    """

    src_worker: int
    dst_worker: int
    size_bytes: float
    payload: object
    retained_bytes: float = 0.0
    on_dropped: Optional[Callable[["NetworkMessage"], None]] = None


class Link:
    """A directed, bandwidth-limited channel between two processes."""

    __slots__ = (
        "_sim",
        "bandwidth",
        "latency",
        "src_process",
        "dst_process",
        "chaos",
        "_busy_until",
        "queued_bytes",
        "_sent_cb",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_s: float,
        latency_s: float,
        src_process: int = -1,
        dst_process: int = -1,
    ) -> None:
        self._sim = sim
        self.bandwidth = bandwidth_bytes_per_s
        self.latency = latency_s
        self.src_process = src_process
        self.dst_process = dst_process
        self.chaos = None
        self._busy_until = 0.0
        self.queued_bytes = 0.0
        self._sent_cb = self._sent

    def transmit(
        self,
        message: NetworkMessage,
        on_delivered: Optional[Callable[[NetworkMessage], None]],
        on_sent: Optional[Callable[[NetworkMessage], None]] = None,
    ) -> float:
        """Queue ``message`` for transmission.

        ``on_sent`` fires when the last byte leaves the send queue;
        ``on_delivered`` fires one propagation latency later at the receiver.
        Returns the delivery time.  An active chaos degradation window
        scales the effective bandwidth and adds propagation latency.

        ``on_delivered=None`` performs sender-side accounting only (queueing,
        bandwidth, ``on_sent``) and schedules no local delivery: the sharded
        cluster uses this to route cross-shard deliveries through the shard
        outbox instead of the local event heap, at the returned time.
        """
        bandwidth = self.bandwidth
        latency = self.latency
        if self.chaos is not None:
            factor, extra = self.chaos.link_degradation(
                self.src_process, self.dst_process
            )
            bandwidth *= factor
            latency += extra
        start = max(self._sim.now, self._busy_until)
        transmit_time = message.size_bytes / bandwidth if bandwidth else 0.0
        done = start + transmit_time
        self._busy_until = done
        self.queued_bytes += message.size_bytes
        sim = self._sim
        sim.schedule_fast_at(done, partial(self._sent_cb, message, on_sent))
        delivery = done + latency
        if on_delivered is not None:
            sim.schedule_fast_at(delivery, partial(on_delivered, message))
        return delivery

    def _sent(
        self,
        message: NetworkMessage,
        on_sent: Optional[Callable[[NetworkMessage], None]],
    ) -> None:
        """Transmit-complete: the message's last byte left the send queue."""
        queued = self.queued_bytes - message.size_bytes
        if queued < 0.0:
            trace = self._sim.trace
            if trace.wants_faults and queued < -1e-6:
                trace.publish(
                    AccountingClamped(
                        owner=f"link[{self.src_process}->{self.dst_process}]",
                        pool="queued_bytes",
                        value=queued,
                        at=self._sim.now,
                    )
                )
            queued = 0.0
        self.queued_bytes = queued
        if on_sent is not None:
            on_sent(message)

    @property
    def busy_until(self) -> float:
        """Simulated time at which the link's send queue drains."""
        return self._busy_until


@dataclass
class Process:
    """An OS process hosting a contiguous range of workers."""

    index: int
    worker_ids: list[int]
    memory: MemoryModel = field(default_factory=MemoryModel)


class Cluster:
    """Topology: workers grouped into processes, links between processes.

    Delivery semantics:
      * same worker: immediate (the caller pays CPU cost separately);
      * same process, different worker: fixed ``intra_process_latency``;
      * different processes: the directed link between the processes.
    """

    def __init__(
        self,
        sim: Simulator,
        num_workers: int,
        workers_per_process: int = 4,
        bandwidth_bytes_per_s: float = 1.25e9,
        network_latency_s: float = 40e-6,
        intra_process_latency_s: float = 2e-6,
        cost: Optional[CostModel] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if workers_per_process <= 0:
            raise ValueError("workers_per_process must be positive")
        self.sim = sim
        self.num_workers = num_workers
        self.workers_per_process = workers_per_process
        self.cost = cost if cost is not None else CostModel()
        self.intra_process_latency = intra_process_latency_s

        # The physical partition: the same worker -> process-group map the
        # parallel engine shards on and the chaos layer fate-shares on.
        from repro.parallel.partition import ShardPartition

        self.partition = ShardPartition(num_workers, workers_per_process)
        num_processes = self.partition.num_domains
        self.processes: list[Process] = []
        for p in range(num_processes):
            workers = self.partition.workers_of(p)
            process = Process(index=p, worker_ids=list(workers))
            process.memory.attach_trace(sim, f"process[{p}]")
            self.processes.append(process)

        self.chaos = None
        self._link_sent_cb = self._link_sent
        # worker id -> hosting Process, resolved once (``process_of`` sits
        # on the per-message hot path).
        self._worker_process: list[Process] = [
            self.processes[self.partition.domain_of(w)]
            for w in range(num_workers)
        ]
        self._links: dict[tuple[int, int], Link] = {}
        for src in range(num_processes):
            for dst in range(num_processes):
                if src != dst:
                    self._links[(src, dst)] = Link(
                        sim,
                        bandwidth_bytes_per_s,
                        network_latency_s,
                        src_process=src,
                        dst_process=dst,
                    )

    def install_chaos(self, injector) -> None:
        """Attach a chaos injector to this cluster and all its links."""
        self.chaos = injector
        for link in self._links.values():
            link.chaos = injector

    def process_of(self, worker: int) -> Process:
        """Process hosting ``worker``."""
        return self._worker_process[worker]

    def link(self, src_process: int, dst_process: int) -> Link:
        """The directed link between two distinct processes."""
        return self._links[(src_process, dst_process)]

    def min_cross_latency(self) -> float:
        """Minimum propagation latency over all cross-process links.

        This is the conservative-parallel-DES lookahead: no event executed in
        one simulated process can affect another simulated process sooner
        than this, so shards may safely run ahead of each other by exactly
        this margin between synchronizations.
        """
        if not self._links:
            return self.intra_process_latency
        return min(link.latency for link in self._links.values())

    def send(
        self,
        message: NetworkMessage,
        on_delivered: Callable[[NetworkMessage], None],
    ) -> float:
        """Route ``message`` from its source to its destination worker.

        Returns the simulated delivery time.  Cross-process sends charge the
        bytes to the sender's send-queue memory until transmitted; any
        ``retained_bytes`` are released from the sender's retained pool when
        the bytes leave the queue.
        """
        trace = self.sim.trace
        if trace.wants_network:
            trace.publish(
                MessageEnqueued(
                    src_worker=message.src_worker,
                    dst_worker=message.dst_worker,
                    size_bytes=message.size_bytes,
                    at=self.sim.now,
                )
            )
        src_proc = self.process_of(message.src_worker)
        dst_proc = self.process_of(message.dst_worker)
        if self.chaos is not None:
            reason = self.chaos.drop_reason(src_proc.index, dst_proc.index)
            if reason is not None:
                return self._drop(message, reason)
        if src_proc.index == dst_proc.index:
            # In-process: no send queue — the bytes "leave" immediately.
            self._mark_transmitted(src_proc, message)
            delivery = self.sim.now
            if message.src_worker != message.dst_worker:
                delivery += self.intra_process_latency
            self.sim.schedule_fast_at(delivery, partial(on_delivered, message))
            return delivery

        src_proc.memory.add_send_queue(message.size_bytes)
        return self._links[(src_proc.index, dst_proc.index)].transmit(
            message, on_delivered, self._link_sent_cb
        )

    def _link_sent(self, message: NetworkMessage) -> None:
        """A cross-process message left its link's send queue."""
        src_proc = self._worker_process[message.src_worker]
        src_proc.memory.add_send_queue(-message.size_bytes)
        self._mark_transmitted(src_proc, message)

    def _drop(self, message: NetworkMessage, reason: str) -> float:
        """Lose ``message`` to an injected fault.

        The sender's retained bytes are released immediately (the payload is
        gone, not queued), the loss is traced, and the message's
        ``on_dropped`` compensator runs so progress accounting does not wait
        forever for a delivery that will never happen.
        """
        src_proc = self.process_of(message.src_worker)
        if message.retained_bytes:
            src_proc.memory.add_retained(-message.retained_bytes)
        trace = self.sim.trace
        if trace.wants_faults:
            trace.publish(
                MessageDropped(
                    src_worker=message.src_worker,
                    dst_worker=message.dst_worker,
                    size_bytes=message.size_bytes,
                    reason=reason,
                    at=self.sim.now,
                )
            )
        if message.on_dropped is not None:
            self.sim.schedule(0.0, lambda: message.on_dropped(message))
        return self.sim.now

    def _mark_transmitted(self, src_proc: Process, message: NetworkMessage) -> None:
        """The message's last byte left the sender: release retained memory."""
        if message.retained_bytes:
            src_proc.memory.add_retained(-message.retained_bytes)
        trace = self.sim.trace
        if trace.wants_network:
            trace.publish(
                MessageTransmitted(
                    src_worker=message.src_worker,
                    dst_worker=message.dst_worker,
                    size_bytes=message.size_bytes,
                    at=self.sim.now,
                )
            )
