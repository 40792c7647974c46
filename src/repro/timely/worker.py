"""Per-worker execution: activations, queues, operator contexts.

Each worker is a simulated thread.  It keeps a FIFO of deliverable work
(message batches and source emissions), a set of operators whose frontiers
changed since their last activation, and a ``busy_until`` clock.  An
*activation* is one simulated scheduling quantum: the worker delivers
frontier callbacks and due notifications, processes a bounded number of
queued batches, charges the modeled CPU cost, and emits any buffered sends
at the activation's completion time.

Progress-accounting discipline (what makes frontiers conservative and
therefore correct):

* in-flight counts are incremented the moment an operator *decides* to send
  (even though bytes leave later), and decremented only once the receiving
  activation's CPU work has completed (``busy_until``) — so backlog holds
  frontiers back and is visible as latency;
* notification requests and held capabilities are registered while the
  triggering batch is still counted, so a published frontier can never
  regress;
* a transient "send guard" capability covers each buffered send until the
  flush has charged its in-flight counts, closing the window between a
  send decision and its accounting.

Work items and buffered sends are the typed carriers from
:mod:`repro.runtime_events.items`.  A flushed batch is one
:class:`~repro.runtime_events.items.MessageWork` from flush to inbox: it
rides as the payload of a :class:`~repro.sim.network.NetworkMessage` and the
receiver queues it unchanged.  The callbacks the hot path schedules —
activation, completion, delivery, drop compensation — are bound once per
worker (or runtime); a completion's per-activation state travels in its own
heap entry as a ``functools.partial``, so completions fire in heap order
even after a restart moves ``busy_until`` backwards.  Scheduling quanta,
batch deliveries, send flushes, and capability movements publish structured
trace events when the simulator's bus has subscribers for the matching
topics.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.runtime_events.events import (
    ActivationBegin,
    ActivationEnd,
    BatchDelivered,
    CapabilityDropped,
    CapabilityHeld,
    MessageDropped,
    SendFlushed,
)
from repro.runtime_events.items import (
    BufferedSend,
    MessageWork,
    SourceWork,
    batch_record_count,
)
from repro.sim.network import NetworkMessage
from repro.timely.antichain import Antichain
from repro.timely.graph import (
    Broadcast,
    ChannelDesc,
    GroupedExchange,
    OperatorDesc,
    Pipeline,
)
from repro.timely.timestamp import Timestamp, less_equal, order_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.timely.dataflow import Runtime


class OpContext:
    """The handle an operator's logic uses to interact with the runtime.

    One context exists per (worker, operator) pair and lives for the whole
    computation.
    """

    __slots__ = (
        "_runtime",
        "_worker",
        "_desc",
        "_send_buffer",
        "_notify_heap",
        "_notify_pending",
        "_held_capabilities",
        "_current_batch_time",
        "_extra_cost",
    )

    def __init__(self, runtime: "Runtime", worker: "WorkerRuntime", desc: OperatorDesc):
        self._runtime = runtime
        self._worker = worker
        self._desc = desc
        self._send_buffer: list[BufferedSend] = []
        self._notify_heap: list[tuple] = []
        self._notify_pending: set[Timestamp] = set()
        self._held_capabilities: dict[Timestamp, int] = {}
        self._current_batch_time: Optional[Timestamp] = None
        self._extra_cost = 0.0

    # -- identity ----------------------------------------------------------

    @property
    def worker_id(self) -> int:
        """Id of the worker executing this operator instance."""
        return self._worker.worker_id

    @property
    def num_workers(self) -> int:
        """Total workers in the cluster."""
        return self._runtime.num_workers

    @property
    def op_index(self) -> int:
        """Index of this operator in the dataflow graph."""
        return self._desc.index

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._runtime.sim.now

    @property
    def cost(self):
        """The cluster's cost model."""
        return self._runtime.cluster.cost

    @property
    def memory(self):
        """Memory model of the process hosting this worker."""
        return self._runtime.cluster.process_of(self.worker_id).memory

    @property
    def trace(self):
        """The simulator's trace bus (for operator-level publishers)."""
        return self._runtime.sim.trace

    @property
    def shared(self) -> dict:
        """Per-worker dictionary shared by all operators on this worker.

        Megaphone's F and S exchange a pointer to the bin state through this
        (paper §4.2: "F can obtain a reference to bins by means of a shared
        pointer", possible because both run on the same worker).
        """
        return self._worker.shared

    # -- output ------------------------------------------------------------

    def send(
        self,
        port: int,
        time: Timestamp,
        records: list,
        size_bytes: Optional[float] = None,
        retained_bytes: float = 0.0,
    ) -> None:
        """Emit ``records`` at ``time`` on output ``port``.

        The send must be justified by a held capability, the batch currently
        being processed, or the operator's output frontier; otherwise the
        operator could violate its published progress statements, and we
        fail loudly instead.

        ``retained_bytes`` is sender memory pinned until the network drains
        the message (the cluster releases it from the process's retained
        pool at transmit-complete).
        """
        if not self._can_send_at(time):
            raise RuntimeError(
                f"operator {self._desc.name!r} (worker {self.worker_id}) "
                f"attempted to send at {time!r} without a justifying capability"
            )
        # Guard the send with a transient capability until the flush has
        # charged the in-flight counts; otherwise releasing the justifying
        # capability between the send decision and the flush could let the
        # frontier advance past the outgoing batch.
        self._runtime.tracker.capability_update(self._desc.index, time, +1)
        self._send_buffer.append(
            BufferedSend(
                port=port,
                time=time,
                records=records,
                size_bytes=size_bytes,
                retained_bytes=retained_bytes,
            )
        )

    def _can_send_at(self, time: Timestamp) -> bool:
        if self._current_batch_time is not None and less_equal(
            self._current_batch_time, time
        ):
            return True
        for held in self._held_capabilities:
            if less_equal(held, time):
                return True
        return self._runtime.tracker.output_frontier(self._desc.index).less_equal(time)

    # -- notifications and capabilities -------------------------------------

    def notify_at(self, time: Timestamp) -> None:
        """Request a notification once the input frontiers pass ``time``.

        Holds a capability at ``time`` so downstream frontiers cannot
        overtake the pending work.  Duplicate requests coalesce.
        """
        if time in self._notify_pending:
            return
        if not self._can_send_at(time):
            raise RuntimeError(
                f"operator {self._desc.name!r} cannot request notification at "
                f"{time!r}: time already passed"
            )
        self._notify_pending.add(time)
        heapq.heappush(self._notify_heap, (order_key(time), time))
        self._runtime.tracker.capability_update(self._desc.index, time, +1)
        # The request may already be satisfiable (e.g. registered from a
        # notification after the inputs closed); without another frontier
        # movement nobody would re-activate us, so ask for a delivery pass.
        self._worker.note_frontier(self._desc.index)

    def hold_capability(self, time: Timestamp) -> None:
        """Explicitly retain the right to send at ``time`` (and later)."""
        if not self._can_send_at(time):
            raise RuntimeError(
                f"operator {self._desc.name!r} cannot hold capability at "
                f"{time!r}: time already passed"
            )
        self._held_capabilities[time] = self._held_capabilities.get(time, 0) + 1
        self._runtime.tracker.capability_update(self._desc.index, time, +1)
        trace = self._runtime.sim.trace
        if trace.wants_capability:
            trace.publish(
                CapabilityHeld(
                    worker=self.worker_id,
                    op=self._desc.index,
                    time=time,
                    at=self._runtime.sim.now,
                )
            )

    def release_capability(self, time: Timestamp) -> None:
        """Release one previously held capability at ``time``."""
        count = self._held_capabilities.get(time, 0)
        if count <= 0:
            raise RuntimeError(
                f"operator {self._desc.name!r} released capability at {time!r} "
                "it does not hold"
            )
        if count == 1:
            del self._held_capabilities[time]
        else:
            self._held_capabilities[time] = count - 1
        self._runtime.tracker.capability_update(self._desc.index, time, -1)
        trace = self._runtime.sim.trace
        if trace.wants_capability:
            trace.publish(
                CapabilityDropped(
                    worker=self.worker_id,
                    op=self._desc.index,
                    time=time,
                    at=self._runtime.sim.now,
                )
            )

    def held_capabilities(self) -> list[Timestamp]:
        """Times at which this instance explicitly holds capabilities."""
        return list(self._held_capabilities)

    # -- frontier queries ----------------------------------------------------

    def input_frontier(self, port: int = 0) -> Antichain:
        """Frontier of this operator's input ``port``."""
        return self._runtime.tracker.input_frontier(self._desc.index, port)

    def output_frontier_of(self, op_index: int) -> Antichain:
        """Output frontier of an arbitrary operator (probe semantics)."""
        return self._runtime.tracker.output_frontier(op_index)

    def all_inputs_passed(self, time: Timestamp) -> bool:
        """True when no input can still deliver a message <= ``time``."""
        for port in range(self._desc.n_inputs):
            if self.input_frontier(port).less_equal(time):
                return False
        return True

    # -- cost ---------------------------------------------------------------

    def charge(self, seconds: float) -> None:
        """Charge extra CPU seconds to the current activation."""
        if seconds < 0:
            raise ValueError("cannot charge negative cost")
        self._extra_cost += seconds

    # -- used by the worker loop ---------------------------------------------

    def _pop_due_notification(self) -> Optional[Timestamp]:
        """Earliest deliverable notification, or None.

        Must be re-evaluated after every delivery: a callback may register
        an *earlier* (already due) time than the next pending one, and
        notifications must fire in time order.
        """
        if self._notify_heap:
            _, time = self._notify_heap[0]
            if self.all_inputs_passed(time):
                heapq.heappop(self._notify_heap)
                self._notify_pending.discard(time)
                return time
        return None

    def _take_sends(self) -> list[BufferedSend]:
        sends = self._send_buffer
        self._send_buffer = []
        return sends


class WorkerRuntime:
    """One simulated worker thread executing all operator instances."""

    __slots__ = (
        "_runtime",
        "worker_id",
        "shared",
        "contexts",
        "logics",
        "_on_input",
        "_on_frontier",
        "_on_notify",
        "_input_cost",
        "_work",
        "_frontier_pending",
        "_busy_until",
        "_activation_scheduled",
        "_activation_cb",
        "_complete_cb",
        "alive",
        "chaos",
    )

    def __init__(self, runtime: "Runtime", worker_id: int):
        self._runtime = runtime
        self.worker_id = worker_id
        self.shared: dict = {}
        self.contexts: list[OpContext] = []
        self.logics: list[object] = []
        # Hook tables populated once at install() — per-activation getattr
        # on logic objects is measurable on the hot path.
        self._on_input: list[Optional[Callable]] = []
        self._on_frontier: list[Optional[Callable]] = []
        self._on_notify: list[Optional[Callable]] = []
        self._input_cost: list[Optional[Callable]] = []
        self._work: deque = deque()
        self._frontier_pending: set[int] = set()
        self._busy_until = 0.0
        self._activation_scheduled = False
        # Bound once: every activation and completion schedules one of these
        # instead of allocating a fresh bound method or closure.
        self._activation_cb = self._run_activation
        self._complete_cb = self._complete
        # Fault injection: a dead worker drops arriving work (with progress
        # compensation) and never activates; ``chaos`` (set by the injector)
        # supplies stall windows and slowdown factors.  ``None`` means the
        # hooks cost nothing — the no-chaos path is bit-identical.
        self.alive = True
        self.chaos = None

    @property
    def busy_until(self) -> float:
        """Simulated time at which current CPU work completes."""
        return self._busy_until

    def install(self, desc: OperatorDesc, logic: object) -> OpContext:
        """Create the context for ``desc``, remember its logic, and cache
        its optional hook methods."""
        assert desc.index == len(self.contexts)
        ctx = OpContext(self._runtime, self, desc)
        self.contexts.append(ctx)
        self.logics.append(logic)
        self._on_input.append(getattr(logic, "on_input", None))
        self._on_frontier.append(getattr(logic, "on_frontier", None))
        self._on_notify.append(getattr(logic, "on_notify", None))
        self._input_cost.append(getattr(logic, "input_cost", None))
        return ctx

    # -- work intake -----------------------------------------------------------

    def enqueue_message(self, work: MessageWork) -> None:
        """A batch arrived for this worker; queue the carrier as it came.

        A dead (crashed) worker loses the batch: the channel's in-flight
        count is consumed immediately so the frontier does not wait forever
        on a delivery nobody will process.
        """
        if not self.alive:
            self._drop_arrival(
                work.channel.index, work.time, work.size_bytes, is_message=True
            )
            return
        self._work.append(work)
        self.activate()

    def enqueue_source(self, op_index: int, time: Timestamp, records: list) -> None:
        """The input handle of source ``op_index`` injected a batch."""
        if not self.alive:
            # Release the per-batch capability InputHandle.send registered.
            self._runtime.tracker.capability_update(op_index, time, -1)
            self._runtime.mark_progress()
            return
        self._work.append(SourceWork(op_index=op_index, time=time, records=records))
        self.activate()

    def _drop_arrival(
        self, channel_index: int, time: Timestamp, size_bytes: float, is_message: bool
    ) -> None:
        tracker = self._runtime.tracker
        if is_message:
            tracker.message_consumed(channel_index, time)
        trace = self._runtime.sim.trace
        if trace.wants_faults:
            trace.publish(
                MessageDropped(
                    src_worker=-1,
                    dst_worker=self.worker_id,
                    size_bytes=size_bytes,
                    reason="dead-worker",
                    at=self._runtime.sim.now,
                )
            )
        self._runtime.mark_progress()

    def note_frontier(self, op_index: int) -> None:
        """An input frontier of ``op_index`` changed; deliver on next activation."""
        if not self.alive:
            return
        self._frontier_pending.add(op_index)
        self.activate()

    def has_pending_work(self) -> bool:
        """True when batches or frontier callbacks await processing."""
        return bool(self._work) or bool(self._frontier_pending)

    # -- activation loop ---------------------------------------------------------

    def activate(self) -> None:
        """Ensure an activation is scheduled at the earliest legal time."""
        if self._activation_scheduled or not self.alive:
            return
        self._activation_scheduled = True
        sim = self._runtime.sim
        now = sim.now
        busy = self._busy_until
        sim.schedule_fast_at(now if now >= busy else busy, self._activation_cb)

    def _run_activation(self) -> None:
        self._activation_scheduled = False
        if not self.alive:
            return
        runtime = self._runtime
        sim = runtime.sim
        now = sim.now
        if self.chaos is not None:
            stalled_until = self.chaos.stalled_until(self.worker_id)
            if stalled_until > now:
                # Hard stall window: defer the whole activation to its end.
                self._activation_scheduled = True
                sim.schedule_fast_at(stalled_until, self._activation_cb)
                return
        trace = sim.trace
        if trace.wants_activation:
            trace.publish(ActivationBegin(worker=self.worker_id, at=now))
        busy = self._busy_until
        start = now if now >= busy else busy
        sends: list[tuple[OpContext, BufferedSend]] = []
        # Progress *decrements* (consumed messages, released capabilities)
        # take effect when the CPU work completes, not when it starts —
        # otherwise frontiers would advance before the cost of advancing
        # them was paid, and backlog would be invisible to latency.  Each
        # entry is a ``(is_message, index, time)`` triple rather than a
        # closure: ``_complete`` dispatches on the flag.
        deferred: list = []

        cost = (
            self._deliver_frontiers(sends, deferred) if self._frontier_pending else 0.0
        )

        work = self._work
        processed = 0
        if work:
            process_one = self._process_one
            for _ in range(runtime.batches_per_activation):
                if not work:
                    break
                cost += process_one(work.popleft(), sends, deferred)
                processed += 1

        if self.chaos is not None:
            cost *= self.chaos.cost_multiplier(self.worker_id)
        busy_until = start + cost
        self._busy_until = busy_until
        # One completion event covers both the network hand-off and the
        # deferred progress decrements (they fire back to back at
        # ``busy_until`` anyway); this halves the hot path's event volume.
        outgoing = self._flush_sends(sends) if sends else None
        if outgoing or deferred:
            sim.schedule_fast_at(
                busy_until, partial(self._complete_cb, outgoing, deferred)
            )
        if trace.wants_activation:
            trace.publish(
                ActivationEnd(
                    worker=self.worker_id,
                    start=start,
                    cost=cost,
                    busy_until=busy_until,
                    batches=processed,
                    at=now,
                )
            )
        if work or self._frontier_pending:
            self.activate()
        runtime.mark_progress()

    def _complete(self, outgoing: Optional[list], deferred: list) -> None:
        """An activation's CPU work is done: hand its messages to the
        network, then apply its deferred progress decrements."""
        if outgoing:
            self._dispatch(outgoing)
        if deferred:
            runtime = self._runtime
            tracker = runtime.tracker
            for is_message, index, t in deferred:
                if is_message:
                    tracker.message_consumed(index, t)
                else:
                    tracker.capability_update(index, t, -1)
            runtime.mark_progress()

    def _deliver_frontiers(self, sends: list, deferred: list) -> float:
        cost = 0.0
        pending = sorted(self._frontier_pending)
        self._frontier_pending.clear()
        cost_model = self._runtime.cluster.cost
        for op_index in pending:
            ctx = self.contexts[op_index]
            on_frontier = self._on_frontier[op_index]
            if on_frontier is not None:
                on_frontier(ctx)
                cost += cost_model.progress_update_cost
            on_notify = self._on_notify[op_index]
            while True:
                time = ctx._pop_due_notification()
                if time is None:
                    break
                ctx._current_batch_time = time
                try:
                    if on_notify is not None:
                        on_notify(ctx, time)
                finally:
                    ctx._current_batch_time = None
                deferred.append((0, op_index, time))
                cost += cost_model.progress_update_cost
            if ctx._extra_cost:
                cost += ctx._extra_cost
                ctx._extra_cost = 0.0
            buffered = ctx._send_buffer
            if buffered:
                ctx._send_buffer = []
                for item in buffered:
                    sends.append((ctx, item))
        return cost

    def _process_one(self, item, sends: list, deferred: list) -> float:
        cost_model = self._runtime.cluster.cost
        trace = self._runtime.sim.trace
        if type(item) is SourceWork:
            op_index = item.op_index
            time = item.time
            records = item.records
            ctx = self.contexts[op_index]
            cost = (
                cost_model.batch_overhead
                + len(records) * cost_model.ingest_record_cost
            )
            if trace.wants_batch:
                trace.publish(
                    BatchDelivered(
                        worker=self.worker_id,
                        op=op_index,
                        channel=None,
                        time=time,
                        records=len(records),
                        size_bytes=0.0,
                        at=self._runtime.sim.now,
                    )
                )
            ctx._current_batch_time = time
            try:
                ctx.send(0, time, records)
            finally:
                ctx._current_batch_time = None
            # Release the per-batch capability InputHandle.send registered.
            deferred.append((0, op_index, time))
        else:
            channel = item.channel
            time = item.time
            records = item.records
            op_index = channel.dst_op
            ctx = self.contexts[op_index]
            input_cost = self._input_cost[op_index]
            if input_cost is not None:
                cost = cost_model.batch_overhead + input_cost(
                    ctx, channel.dst_port, records, item.size_bytes
                )
            else:
                cost = (
                    cost_model.batch_overhead
                    + len(records) * cost_model.record_cost
                )
            if trace.wants_batch:
                trace.publish(
                    BatchDelivered(
                        worker=self.worker_id,
                        op=op_index,
                        channel=channel.index,
                        time=time,
                        records=batch_record_count(records),
                        size_bytes=item.size_bytes,
                        at=self._runtime.sim.now,
                    )
                )
            ctx._current_batch_time = time
            try:
                self._on_input[op_index](ctx, channel.dst_port, time, records)
            finally:
                ctx._current_batch_time = None
            deferred.append((1, channel.index, time))
        if ctx._extra_cost:
            cost += ctx._extra_cost
            ctx._extra_cost = 0.0
        buffered = ctx._send_buffer
        if buffered:
            ctx._send_buffer = []
            for send_item in buffered:
                sends.append((ctx, send_item))
        return cost

    def _flush_sends(self, sends: list) -> list[NetworkMessage]:
        """Partition buffered sends into the network messages that travel.

        In-flight counts are charged immediately (conservative frontier);
        the completion event hands the returned messages to the network at
        the activation's completion time, when the bytes start to travel.
        Each message's payload is the :class:`MessageWork` the receiving
        inbox will queue.  Record counts — CPU fractions, wire bytes, trace
        events — always reflect the *underlying* records, so grouped
        carriers cost exactly what their per-record equivalent would.
        """
        runtime = self._runtime
        cost_model = runtime.cluster.cost
        tracker = runtime.tracker
        trace = runtime.sim.trace
        wants_send = trace.wants_send
        worker_id = self.worker_id
        # Bound once on the runtime; it only fires if a fault loses the
        # message, and then consumes the in-flight count charged here.
        on_dropped = runtime.compensate_drop
        outgoing: list[NetworkMessage] = []
        for ctx, buffered in sends:
            records = buffered.records
            time = buffered.time
            total_count = batch_record_count(records)
            if wants_send:
                trace.publish(
                    SendFlushed(
                        worker=worker_id,
                        op=ctx.op_index,
                        port=buffered.port,
                        time=time,
                        records=total_count,
                        at=runtime.sim.now,
                    )
                )
            for channel in runtime.channels_from(ctx.op_index, buffered.port):
                parts = self._partition(channel, records)
                for dst_worker, batch in parts.items():
                    batch_count = (
                        total_count if batch is records else batch_record_count(batch)
                    )
                    if buffered.size_bytes is None:
                        bytes_ = batch_count * cost_model.message_bytes_per_record
                        retained = buffered.retained_bytes
                        if retained:
                            retained *= batch_count / (total_count or 1)
                    else:
                        # Explicit sizes (migrating state) are per-send,
                        # split proportionally if fanned out.
                        fraction = batch_count / (total_count or 1)
                        bytes_ = buffered.size_bytes * fraction
                        retained = buffered.retained_bytes * fraction
                    tracker.message_sent(channel.index, time)
                    outgoing.append(
                        NetworkMessage(
                            worker_id,
                            dst_worker,
                            bytes_,
                            MessageWork(channel, time, batch, bytes_),
                            retained,
                            on_dropped,
                        )
                    )
            # In-flight counts now cover the batch: drop the send guard.
            tracker.capability_update(ctx.op_index, time, -1)
        return outgoing

    def _dispatch(self, outgoing: list[NetworkMessage]) -> None:
        """Hand flushed messages to the network (completion time)."""
        runtime = self._runtime
        if not self.alive:
            # The sender crashed between the send decision and the network
            # hand-off: the batches are lost.  Consume their in-flight
            # counts and unpin the sender's retained bytes so the crash
            # cannot wedge frontiers or RSS accounting.
            memory = runtime.cluster.process_of(self.worker_id).memory
            trace = runtime.sim.trace
            for message in outgoing:
                work = message.payload
                runtime.tracker.message_consumed(work.channel.index, work.time)
                if message.retained_bytes:
                    memory.add_retained(-message.retained_bytes)
                if trace.wants_faults:
                    trace.publish(
                        MessageDropped(
                            src_worker=self.worker_id,
                            dst_worker=message.dst_worker,
                            size_bytes=message.size_bytes,
                            reason="crashed-sender",
                            at=runtime.sim.now,
                        )
                    )
            runtime.mark_progress()
            return
        send = runtime.cluster.send
        deliver = runtime.deliver
        for message in outgoing:
            send(message, deliver)

    # -- crash and restart (driven by the chaos injector) ----------------------

    def discard_pending_work(self) -> None:
        """Drop every queued batch and pending frontier note (crash path).

        Each dropped item's progress accounting is compensated: message
        batches consume their channel's in-flight count, source batches
        release the per-batch capability their ``InputHandle.send``
        registered.  Without this, a crash would freeze the frontier at the
        oldest undelivered batch forever.
        """
        tracker = self._runtime.tracker
        while self._work:
            item = self._work.popleft()
            if type(item) is SourceWork:
                tracker.capability_update(item.op_index, item.time, -1)
            else:
                tracker.message_consumed(item.channel.index, item.time)
        self._frontier_pending.clear()
        self._runtime.mark_progress()

    def release_all_capabilities(self) -> None:
        """Release every capability this worker's operators hold (crash path).

        Covers explicitly held capabilities, pending-notification
        capabilities, and send guards of batches buffered but not yet
        flushed.  Afterwards the worker holds no progress obligations and
        the rest of the cluster can advance past it.
        """
        tracker = self._runtime.tracker
        for ctx in self.contexts:
            op = ctx.op_index
            for time, count in list(ctx._held_capabilities.items()):
                tracker.capability_update(op, time, -count)
            ctx._held_capabilities.clear()
            for time in list(ctx._notify_pending):
                tracker.capability_update(op, time, -1)
            ctx._notify_pending.clear()
            ctx._notify_heap.clear()
            for buffered in ctx._take_sends():
                tracker.capability_update(op, buffered.time, -1)
        self._runtime.mark_progress()

    def reinstall_operators(self) -> None:
        """Rebuild every operator instance from the graph (restart path).

        The restarted process comes back with freshly constructed logics and
        empty contexts — all pre-crash operator state is gone, exactly like
        a real process restart.  Source capabilities are *not* re-added:
        those belong to the (closed) input handles.  Recovery may then
        reseed Megaphone bin state through the coordinator.
        """
        self.shared.clear()
        self.contexts.clear()
        self.logics.clear()
        self._on_input.clear()
        self._on_frontier.clear()
        self._on_notify.clear()
        self._input_cost.clear()
        for desc in self._runtime.graph.operators:
            logic = desc.logic_factory(self.worker_id)
            self.install(desc, logic)
        self._busy_until = self._runtime.sim.now
        self._activation_scheduled = False

    def _partition(self, channel: ChannelDesc, records: list) -> dict[int, list]:
        num_workers = self._runtime.num_workers
        pact = channel.pact
        pact_type = type(pact)
        # Fast paths for the pacts whose routing is known without consulting
        # the records (Pipeline, Broadcast) or one attribute per *group*
        # (GroupedExchange); the generic loop handles everything else.
        if pact_type is Pipeline:
            return {self.worker_id: records}
        if pact_type is GroupedExchange:
            parts: dict[int, list] = {}
            for batch in records:
                dst = batch.dst % num_workers
                existing = parts.get(dst)
                if existing is None:
                    parts[dst] = [batch]
                else:
                    existing.append(batch)
            return parts
        if pact_type is Broadcast:
            return {dst: list(records) for dst in range(num_workers)}
        parts = {}
        route = pact.route
        for record in records:
            for dst in route(record, num_workers, self.worker_id):
                parts.setdefault(dst, []).append(record)
        return parts
