"""High-level dataflow construction and the runtime coordinator.

``Dataflow`` is the user-facing builder: create inputs, derive streams with
operators, attach probes, then ``build()`` a ``Runtime`` and drive the
simulation.  The ``Runtime`` owns the progress tracker, the per-worker
runtimes, probes, and the watch table that lets Megaphone's F operators react
to the output frontier of their S operators.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime_events.events import FrontierAdvanced
from repro.sim.engine import Simulator
from repro.sim.network import Cluster, NetworkMessage
from repro.timely.graph import ChannelDesc, GraphBuilder, Pact
from repro.timely.probe import Probe
from repro.timely.progress import ProgressTracker
from repro.timely.timestamp import Timestamp, less_equal
from repro.timely.worker import WorkerRuntime


class Stream:
    """A logical stream of timestamped records: one operator output port."""

    def __init__(self, dataflow: "Dataflow", op_index: int, port: int = 0) -> None:
        self.dataflow = dataflow
        self.op_index = op_index
        self.port = port

    # Operator-attaching helpers live in repro.timely.operators and are
    # grafted onto Stream at import time to avoid a circular import; see
    # that module for map/filter/exchange/unary/binary/... combinators.


class InputHandle:
    """One worker's handle to a source operator.

    The open-loop harness drives these: ``send`` injects a batch at a
    timestamp, ``advance_to`` downgrades the source capability (the promise
    about the smallest future timestamp), ``close`` drops it.
    """

    def __init__(
        self,
        runtime: "Runtime",
        op_index: int,
        worker_id: int,
        initial_timestamp: Timestamp = 0,
    ) -> None:
        self._runtime = runtime
        self._op_index = op_index
        self._worker_id = worker_id
        self.epoch: Optional[Timestamp] = initial_timestamp

    def send(self, time: Timestamp, records: list) -> None:
        """Inject ``records`` at ``time`` (must be >= the current epoch)."""
        if self.epoch is None:
            raise RuntimeError("input already closed")
        if not less_equal(self.epoch, time):
            raise ValueError(
                f"cannot send at {time!r}: epoch already advanced to {self.epoch!r}"
            )
        tracker = self._runtime.tracker
        tracker.capability_update(self._op_index, time, +1)
        self._runtime.workers[self._worker_id].enqueue_source(
            self._op_index, time, records
        )
        self._runtime.mark_progress()

    def advance_to(self, time: Timestamp) -> None:
        """Promise that no future record will carry a timestamp < ``time``."""
        if self.epoch is None:
            raise RuntimeError("input already closed")
        if not less_equal(self.epoch, time):
            raise ValueError(
                f"cannot advance to {time!r}: epoch already at {self.epoch!r}"
            )
        if time == self.epoch:
            return
        tracker = self._runtime.tracker
        tracker.capability_update(self._op_index, time, +1)
        tracker.capability_update(self._op_index, self.epoch, -1)
        self.epoch = time
        self._runtime.mark_progress()

    def close(self) -> None:
        """Drop the source capability; the stream will drain and complete."""
        if self.epoch is None:
            return
        self._runtime.tracker.capability_update(self._op_index, self.epoch, -1)
        self.epoch = None
        self._runtime.mark_progress()


class _SourceLogic:
    """Placeholder logic for source operators (driven by InputHandle)."""


class Dataflow:
    """Builder for a simulated timely dataflow computation."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.graph = GraphBuilder()
        self._input_groups: list["InputGroup"] = []
        self._probe_requests: list["ProbeHandle"] = []
        self._pending_watches: list[tuple[int, int]] = []
        self._runtime: Optional["Runtime"] = None

    @property
    def num_workers(self) -> int:
        """Workers in the underlying cluster."""
        return self.cluster.num_workers

    def new_input(
        self, name: str = "input", initial_timestamp: Timestamp = 0
    ) -> tuple[Stream, "InputGroup"]:
        """Create a source operator; returns its stream and input handles.

        ``initial_timestamp`` sets the timestamp shape: pass a tuple minimum
        (e.g. ``(0, 0)``) for product-timestamp streams.
        """
        desc = self.graph.add_operator(
            name=name,
            n_inputs=0,
            n_outputs=1,
            logic_factory=lambda worker_id: _SourceLogic(),
            is_source=True,
            initial_timestamp=initial_timestamp,
        )
        group = InputGroup(desc.index)
        self._input_groups.append(group)
        return Stream(self, desc.index, 0), group

    def add_operator(
        self,
        name: str,
        inputs: list[tuple[Stream, Pact]],
        n_outputs: int,
        logic_factory: Callable[[int], object],
    ) -> list[Stream]:
        """Attach an operator consuming ``inputs``; returns its output streams."""
        desc = self.graph.add_operator(
            name=name,
            n_inputs=len(inputs),
            n_outputs=n_outputs,
            logic_factory=logic_factory,
        )
        for port, (stream, pact) in enumerate(inputs):
            self.graph.connect(
                stream.op_index, stream.port, desc.index, port, pact
            )
        return [Stream(self, desc.index, p) for p in range(n_outputs)]

    def probe(self, stream: Stream) -> "ProbeHandle":
        """Request a probe on ``stream`` (resolved at build time)."""
        handle = ProbeHandle(stream.op_index)
        self._probe_requests.append(handle)
        return handle

    def watch_output(self, watched_op: int, dependent_op: int) -> None:
        """Arrange frontier callbacks for ``dependent_op`` whenever
        ``watched_op``'s output frontier changes (registered at build)."""
        self._pending_watches.append((watched_op, dependent_op))

    def build(
        self,
        batches_per_activation: int = 1,
        runtime_factory: Optional[Callable[..., "Runtime"]] = None,
    ) -> "Runtime":
        """Freeze the graph and construct the runtime.

        ``runtime_factory`` (a :class:`Runtime` subclass, e.g. the sharded
        domain runtime) substitutes the coordinator implementation without
        changing the graph.
        """
        if self._runtime is not None:
            raise RuntimeError("dataflow already built")
        factory = runtime_factory if runtime_factory is not None else Runtime
        runtime = factory(self, batches_per_activation)
        self._runtime = runtime
        for handle in self._probe_requests:
            handle._resolve(runtime.register_probe(handle.op_index))
        return runtime


class InputGroup:
    """All workers' input handles for one source operator."""

    def __init__(self, op_index: int) -> None:
        self.op_index = op_index
        self._handles: Optional[list[InputHandle]] = None

    def _resolve(self, runtime: "Runtime") -> None:
        initial = runtime.graph.operators[self.op_index].initial_timestamp
        self._handles = [
            InputHandle(runtime, self.op_index, w, initial_timestamp=initial)
            for w in range(runtime.num_workers)
        ]

    def handle(self, worker_id: int) -> InputHandle:
        """The handle owned by ``worker_id``."""
        if self._handles is None:
            raise RuntimeError("dataflow not built yet")
        return self._handles[worker_id]

    def handles(self) -> list[InputHandle]:
        """All per-worker handles."""
        if self._handles is None:
            raise RuntimeError("dataflow not built yet")
        return list(self._handles)

    def advance_all(self, time: Timestamp) -> None:
        """Advance every worker's epoch to ``time``."""
        for handle in self.handles():
            handle.advance_to(time)

    def close_all(self) -> None:
        """Close every worker's handle."""
        for handle in self.handles():
            handle.close()


class ProbeHandle:
    """Deferred probe: usable once the dataflow is built."""

    def __init__(self, op_index: int) -> None:
        self.op_index = op_index
        self._probe: Optional[Probe] = None

    def _resolve(self, probe: Probe) -> None:
        self._probe = probe

    def __getattr__(self, item):
        if self._probe is None:
            raise RuntimeError("dataflow not built yet")
        return getattr(self._probe, item)


class Runtime:
    """Executes a built dataflow on the simulated cluster."""

    def __init__(self, dataflow: Dataflow, batches_per_activation: int = 1) -> None:
        self.dataflow = dataflow
        self.cluster = dataflow.cluster
        self.sim: Simulator = dataflow.cluster.sim
        self.graph = dataflow.graph
        self.num_workers = dataflow.cluster.num_workers
        self.batches_per_activation = batches_per_activation
        self.tracker = self._make_tracker()
        # Bound once: every network message carries these two callbacks, and
        # the progress pump schedules the third.
        self.deliver = self._deliver
        self.compensate_drop = self._compensate_drop
        self._progress_cb = self._progress_step
        self.workers: list[WorkerRuntime] = [
            self._make_worker(w) for w in range(self.num_workers)
        ]
        self._channels_from: dict[tuple[int, int], list[ChannelDesc]] = {}
        for channel in self.graph.channels:
            self._channels_from.setdefault(
                (channel.src_op, channel.src_port), []
            ).append(channel)
        self._probes: dict[int, list[Probe]] = {}
        self._watches: dict[int, set[int]] = {}
        self._frontier_interested: set[int] = set()
        self._progress_scheduled = False

        self._install_operators()

        for group in dataflow._input_groups:
            group._resolve(self)
        for watched_op, dependent_op in dataflow._pending_watches:
            self.watch_output(watched_op, dependent_op)

    # -- construction hooks (overridden by the sharded domain runtime) -------

    def _make_tracker(self) -> ProgressTracker:
        return ProgressTracker(self.graph)

    def _make_worker(self, worker_id: int) -> WorkerRuntime:
        return WorkerRuntime(self, worker_id)

    def _install_operators(self) -> None:
        for desc in self.graph.operators:
            for worker in self.workers:
                logic = desc.logic_factory(worker.worker_id)
                worker.install(desc, logic)
                if hasattr(logic, "on_frontier") or hasattr(logic, "on_notify"):
                    self._frontier_interested.add(desc.index)
            if desc.is_source:
                for worker in self.workers:
                    self.tracker.capability_update(
                        desc.index, desc.initial_timestamp, +1
                    )

    # -- registration --------------------------------------------------------

    def register_probe(self, op_index: int) -> Probe:
        """Create a probe on ``op_index``'s output frontier."""
        probe = Probe(self, op_index)
        self._probes.setdefault(op_index, []).append(probe)
        return probe

    def watch_output(self, watched_op: int, dependent_op: int) -> None:
        """Deliver frontier callbacks to ``dependent_op`` whenever
        ``watched_op``'s output frontier changes (Megaphone F watching S)."""
        self._watches.setdefault(watched_op, set()).add(dependent_op)
        self._frontier_interested.add(dependent_op)

    def channels_from(self, op_index: int, port: int) -> list[ChannelDesc]:
        """Outgoing channels of an output port."""
        return self._channels_from.get((op_index, port), [])

    def logic_of(self, worker_id: int, op_index: int):
        """The logic instance of an operator on a worker (for tests/bins)."""
        return self.workers[worker_id].logics[op_index]

    # -- network callbacks -----------------------------------------------------

    def _deliver(self, message: NetworkMessage) -> None:
        """A message arrived: its payload joins the destination's inbox."""
        self.workers[message.dst_worker].enqueue_message(message.payload)

    def _compensate_drop(self, message: NetworkMessage) -> None:
        """A fault lost ``message``: consume the in-flight count it carried,
        or the channel frontier would wait forever for it."""
        work = message.payload
        self.tracker.message_consumed(work.channel.index, work.time)
        self.mark_progress()

    # -- progress pump ---------------------------------------------------------

    def mark_progress(self) -> None:
        """Schedule a progress propagation step if updates are outstanding."""
        if self._progress_scheduled:
            return
        tracker = self.tracker
        # ``tracker.has_updates`` inlined: this guard runs several times per
        # activation and the property call was measurable.
        if not (
            tracker._dirty or tracker._pending_inputs or tracker._pending_outputs
        ):
            return
        self._progress_scheduled = True
        sim = self.sim
        sim.schedule_fast_at(sim.now, self._progress_cb)

    def _progress_step(self) -> None:
        self._progress_scheduled = False
        changes = self.tracker.drain_changes()
        if not changes:
            return
        to_note: set[int] = set()
        for change in changes.inputs:
            if change.op in self._frontier_interested:
                to_note.add(change.op)
        for op_index in changes.outputs:
            for dependent in self._watches.get(op_index, ()):
                to_note.add(dependent)
        for op_index in to_note:
            for worker in self.workers:
                worker.note_frontier(op_index)
        trace = self.sim.trace
        for op_index in changes.outputs:
            frontier = self.tracker.output_frontier(op_index)
            if trace.wants_frontier:
                trace.publish(
                    FrontierAdvanced(op=op_index, frontier=frontier, at=self.sim.now)
                )
            for probe in self._probes.get(op_index, ()):
                probe._fire(frontier)
        # Callbacks (probe controllers) may have injected new updates.
        self.mark_progress()

    # -- driving ----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (and the dataflow with it)."""
        self.sim.run(until=until)

    def run_to_quiescence(self, max_events: int = 50_000_000) -> None:
        """Run until no events remain; asserts the dataflow drained."""
        self.sim.run(max_events=max_events)
        if self.sim.peek_time() is not None:
            raise RuntimeError("simulation did not quiesce within max_events")

    def idle(self) -> bool:
        """True when no progress or queued work remains anywhere."""
        return self.tracker.idle() and not any(
            w.has_pending_work() for w in self.workers
        )
