"""One shard of the sharded simulation: a domain and everything it hosts.

A :class:`DomainHost` owns a complete, independently-constructed replica of
the experiment — simulator, cluster, dataflow graph, operator instances for
its *resident* workers, open-loop source and epoch ticker filtered to those
workers — plus the shard-facing surface the window protocol drives:
``run_window(grant, inbox) -> (next_time, outbox)``.

Division of labor per domain:

* every domain builds the identical graph and seeds identical source
  capabilities, so all views agree at t=0 without messages;
* resident workers get real :class:`WorkerRuntime` instances; non-resident
  slots get :class:`RemoteWorkerStub` (progress noted remotely, never
  activated locally);
* cross-domain dataflow messages keep the *exact* legacy sender-side link
  timing (queueing, bandwidth, retained-byte release) — only the delivery
  is rerouted into the shard outbox instead of the local event heap;
* domain 0 additionally hosts the latency recorder, timeline, and the
  migration controller (the control stream is driven through worker 0's
  handle, which is resident there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.harness.latency import EpochLatencyRecorder, LatencyTimeline
from repro.harness.openloop import OpenLoopSource
from repro.megaphone.controller import EpochTicker, MigrationController
from repro.parallel.engine import DomainSimulator
from repro.parallel.partition import ShardPartition
from repro.parallel.progress import DomainTracker
from repro.runtime_events.items import MessageWork
from repro.sim.network import Cluster, NetworkMessage
from repro.timely.dataflow import Dataflow, Runtime
from repro.timely.progress import ProgressTracker
from repro.timely.worker import WorkerRuntime

_INF = math.inf


@dataclass(slots=True)
class RemoteData:
    """A cross-domain dataflow message awaiting injection at its shard."""

    dst_domain: int
    delivery: float
    src_seq: int
    src_domain: int
    channel_index: int
    time: object
    records: object
    size_bytes: float
    src_worker: int
    dst_worker: int


@dataclass(slots=True)
class RemoteProgress:
    """One quantized progress-update batch bound for another domain."""

    dst_domain: int
    delivery: float
    src_seq: int
    src_domain: int
    batch: tuple


class RemoteWorkerStub:
    """Stand-in for a worker resident in another shard.

    Satisfies exactly the surface the runtime touches for every worker:
    frontier notes are dropped (the owning shard gets them through its own
    view), pending-work queries say no, and any attempt to hand it actual
    work is a routing bug that fails loudly.
    """

    __slots__ = ("worker_id", "shared", "alive")

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.shared: dict = {}
        self.alive = True

    @property
    def busy_until(self) -> float:
        return 0.0

    def note_frontier(self, op_index: int) -> None:
        pass

    def has_pending_work(self) -> bool:
        return False

    def enqueue_message(self, work) -> None:
        raise RuntimeError(
            f"worker {self.worker_id} is not resident in this shard; "
            "a message was misrouted past the shard cluster"
        )

    def enqueue_source(self, op_index, time, records) -> None:
        raise RuntimeError(
            f"worker {self.worker_id} is not resident in this shard; "
            "a source injection was not filtered to residents"
        )


class ShardCluster(Cluster):
    """A cluster whose cross-domain deliveries go to the shard outbox.

    Sender-side accounting (send-queue memory, link serialization,
    bandwidth, retained-byte release at transmit-complete) is inherited
    unchanged, so link clocks evolve exactly as in the serial engine; only
    the delivery callback is suppressed (``on_delivered=None``) and the
    computed delivery time handed to ``on_remote`` instead.
    """

    def __init__(self, *args, partition: ShardPartition, domain: int,
                 on_remote: Callable[[float, NetworkMessage], None], **kwargs):
        super().__init__(*args, **kwargs)
        self._partition = partition
        self._domain = domain
        self._on_remote = on_remote

    def install_chaos(self, injector) -> None:
        raise RuntimeError("chaos injection is not supported in sharded mode")

    def send(self, message: NetworkMessage, on_delivered) -> float:
        if self._partition.domain_of(message.dst_worker) == self._domain:
            return super().send(message, on_delivered)
        delivery = super().send(message, None)
        self._on_remote(delivery, message)
        return delivery


class ShardRuntime(Runtime):
    """A :class:`Runtime` hosting one domain's resident workers.

    The tracker is a :class:`DomainTracker` view; operator logics are
    instantiated for residents only (every domain has at least one resident,
    so the structurally-identical ``frontier_interested`` set is still
    discovered identically everywhere); source capabilities are seeded for
    the *full* worker set, unlogged — each domain seeds the same global
    t=0 state, so no broadcast is needed to agree on it.
    """

    def __init__(self, dataflow: Dataflow, batches_per_activation: int,
                 partition: ShardPartition, domain: int) -> None:
        self.partition = partition
        self.domain = domain
        self.resident = partition.workers_of(domain)
        super().__init__(dataflow, batches_per_activation)

    def _make_tracker(self) -> ProgressTracker:
        sim = self.sim
        return DomainTracker(self.graph, clock=lambda: sim.now)

    def _make_worker(self, worker_id: int):
        if worker_id in self.resident:
            return WorkerRuntime(self, worker_id)
        return RemoteWorkerStub(worker_id)

    def _install_operators(self) -> None:
        stub = RemoteWorkerStub
        for desc in self.graph.operators:
            for worker in self.workers:
                if type(worker) is stub:
                    continue
                logic = desc.logic_factory(worker.worker_id)
                worker.install(desc, logic)
                if hasattr(logic, "on_frontier") or hasattr(logic, "on_notify"):
                    self._frontier_interested.add(desc.index)
            if desc.is_source:
                for w in range(self.num_workers):
                    self.tracker.seed_capability(
                        desc.index, desc.initial_timestamp, +1
                    )


class DomainHost:
    """Builds and drives one shard of a sharded count experiment."""

    def __init__(self, cfg, partition: ShardPartition, domain: int) -> None:
        # Imported here: harness.experiment imports the parallel runner,
        # which imports this module.
        from repro.harness.experiment import _build_megaphone_count, schedule_migrations

        self.partition = partition
        self.domain = domain
        self.resident = list(partition.workers_of(domain))
        self._outbox: list = []
        self._out_seq = 0

        self.sim = DomainSimulator()
        self.cluster = ShardCluster(
            self.sim,
            num_workers=cfg.num_workers,
            workers_per_process=cfg.workers_per_process,
            bandwidth_bytes_per_s=cfg.bandwidth_bytes_per_s,
            network_latency_s=cfg.network_latency_s,
            cost=cfg.resolved_cost(),
            partition=partition,
            domain=domain,
            on_remote=self._note_remote,
        )
        self.lookahead = self.cluster.min_cross_latency()
        df = Dataflow(self.cluster)
        control, control_group = df.new_input("control")
        data, data_group = df.new_input("data")
        probe_stream, op, _state_bytes_fn = _build_megaphone_count(
            df, control, data, cfg
        )
        self.op = op
        probe = df.probe(probe_stream)
        self.runtime = df.build(
            runtime_factory=lambda d, bpa: ShardRuntime(
                d, bpa, partition=partition, domain=domain
            )
        )
        self.timeline: Optional[LatencyTimeline] = None
        recorder = None
        if domain == 0:
            self.timeline = LatencyTimeline()
            recorder = EpochLatencyRecorder(
                self.runtime, probe, cfg.granularity_ms, self.timeline,
                dilation=cfg.dilation,
            )
        workload = cfg.make_workload()
        self.source = OpenLoopSource(
            self.runtime,
            data_group,
            workload.make_generator(),
            rate=cfg.rate,
            duration_s=cfg.duration_s,
            granularity_ms=cfg.granularity_ms,
            recorder=recorder,
            dilation=cfg.dilation,
            workers=self.resident,
        )
        # The parallel ticker stops at a *config-derived* time (the legacy
        # serial driver stops it only after migrations drain, which no
        # single shard can observe).  Migrations must therefore complete
        # before ``duration_s + 1.0`` — the stock schedules (migrate at
        # 40% of the run) finish far earlier; a late migration surfaces as
        # the standard "control input closed" error.
        self.ticker = EpochTicker(
            self.runtime,
            control_group,
            granularity_ms=cfg.granularity_ms,
            dilation=cfg.dilation,
            until_s=cfg.duration_s + 1.0,
            workers=self.resident,
        )
        self.controller: Optional[MigrationController] = None
        if domain == 0 and op is not None and cfg.migrate_at_s:
            self.controller = MigrationController(
                self.runtime, control_group, probe, op.config.initial
            )
            schedule_migrations(self.controller, cfg)
        self.ticker.start()
        self.source.start()

    # -- shard surface -----------------------------------------------------

    def _note_remote(self, delivery: float, message: NetworkMessage) -> None:
        payload = message.payload
        self._out_seq += 1
        self._outbox.append(
            RemoteData(
                dst_domain=self.partition.domain_of(message.dst_worker),
                delivery=delivery,
                src_seq=self._out_seq,
                src_domain=self.domain,
                channel_index=payload.channel.index,
                time=payload.time,
                records=payload.records,
                size_bytes=message.size_bytes,
                src_worker=message.src_worker,
                dst_worker=message.dst_worker,
            )
        )

    @property
    def next_time(self) -> float:
        """Time of the next local event (inf when the heap is empty)."""
        peeked = self.sim.peek_time()
        return _INF if peeked is None else peeked

    def inject(self, entry) -> None:
        """Schedule one received cross-domain entry on the local heap."""
        if type(entry) is RemoteProgress:
            tracker = self.runtime.tracker
            runtime = self.runtime
            batch = entry.batch

            def apply() -> None:
                tracker.apply_remote(batch)
                runtime.mark_progress()

            self.sim.inject_remote(entry.delivery, entry.src_domain, entry.src_seq, apply)
            return
        work = MessageWork(
            self.runtime.graph.channels[entry.channel_index],
            entry.time,
            entry.records,
            entry.size_bytes,
        )
        deliver = partial(self.runtime.workers[entry.dst_worker].enqueue_message, work)
        self.sim.inject_remote(entry.delivery, entry.src_domain, entry.src_seq, deliver)

    def run_window(self, grant: float, inbox: list) -> tuple[float, list]:
        """Inject ``inbox``, fire every local event strictly below ``grant``,
        then flush the window's progress log; returns ``(next_time, outbox)``.
        """
        for entry in inbox:
            self.inject(entry)
        self.sim.run_below(grant)
        outbox = self._outbox
        self._outbox = []
        batches = self.runtime.tracker.take_update_batches(self.lookahead)
        if batches:
            my_domain = self.domain
            for delivery, batch in batches:
                self._out_seq += 1
                seq = self._out_seq
                for dst in self.partition.domains():
                    if dst != my_domain:
                        outbox.append(
                            RemoteProgress(
                                dst_domain=dst,
                                delivery=delivery,
                                src_seq=seq,
                                src_domain=my_domain,
                                batch=batch,
                            )
                        )
        return self.next_time, outbox

    def finalize(self) -> dict:
        """End-of-run shard report: counts, fingerprints, domain-0 extras."""
        from repro.megaphone.bins import store_fingerprint

        fingerprints: dict[int, str] = {}
        if self.op is not None:
            fingerprints = {
                w: store_fingerprint(store)
                for w, store in self.op.stores(self.runtime, self.resident)
            }
        report = {
            "domain": self.domain,
            "records_injected": self.source.records_injected,
            "sim_callbacks": self.sim.callbacks_fired,
            "sim_events": self.sim.events_processed,
            "fingerprints": fingerprints,
            "controllers_done": self.controller is None or self.controller.done,
            "pending_steps": (
                len(self.controller._awaiting) if self.controller is not None else 0
            ),
            "now": self.sim.now,
        }
        if self.domain == 0:
            report["timeline"] = self.timeline
            report["migrations"] = (
                self.controller.results if self.controller is not None else []
            )
        return report
