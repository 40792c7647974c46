"""Accounting memory model.

The paper measures per-process resident set size (RSS) over time (Figure 20)
and attributes the all-at-once migration spike to serialized state waiting in
the network threads' send queues.  We reproduce that with an accounting
model: each process's modeled RSS is

    base + live state bytes + send-queue bytes + receive-buffer bytes

updated by the components that own each term (bins update state bytes, the
cluster updates send-queue bytes, operator S updates receive buffers while
installing state).

All pools are *integer* bytes: every delta is coerced at the pool boundary,
so fractional modeled sizes cannot accumulate drift, and a negative balance
is unambiguously an accounting bug (a double release or missed charge)
rather than float noise.  Tiered state backends additionally report
``spilled_state_bytes`` — cold-tier bytes that are *not* part of RSS but
ride along in every sample so Fig.-20-style plots can show the
resident/spilled breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.runtime_events.events import TOPIC_MEMORY, AccountingClamped, MemorySampled


def _as_int_bytes(value: float) -> int:
    """Coerce a modeled byte count to an integer at the pool boundary."""
    return int(round(value))


class MemoryModel:
    """Per-process integer byte accounting with a high-water mark.

    Every pool is guarded against going negative: a negative balance means
    a double release or a missed charge (fault paths are the usual
    culprits), so the model clamps back to zero and — when tracing is
    attached via :meth:`attach_trace` — publishes an
    :class:`~repro.runtime_events.events.AccountingClamped` warning instead
    of silently corrupting RSS metrics.
    """

    def __init__(self, base_bytes: float = 0) -> None:
        self.base_bytes = _as_int_bytes(base_bytes)
        self.state_bytes = 0
        self.send_queue_bytes = 0
        self.recv_buffer_bytes = 0
        self.retained_bytes = 0
        # Cold-tier bytes (spilling backends).  Deliberately NOT part of
        # rss_bytes: spilled state left RAM — that is the point of spilling.
        self.spilled_state_bytes = 0
        self.peak_bytes = self.base_bytes
        self._sim = None
        self._owner = ""

    def attach_trace(self, sim, owner: str) -> None:
        """Route clamp warnings through ``sim``'s trace bus as ``owner``."""
        self._sim = sim
        self._owner = owner

    def _clamp(self, pool: str, value: int) -> int:
        if value >= 0:
            return value
        if self._sim is not None:
            trace = self._sim.trace
            if trace.wants_faults:
                trace.publish(
                    AccountingClamped(
                        owner=self._owner,
                        pool=pool,
                        value=value,
                        at=self._sim.now,
                    )
                )
        return 0

    @property
    def rss_bytes(self) -> int:
        """Current modeled resident set size."""
        return (
            self.base_bytes
            + self.state_bytes
            + self.send_queue_bytes
            + self.recv_buffer_bytes
            + self.retained_bytes
        )

    def _note_peak(self) -> None:
        rss = self.rss_bytes
        if rss > self.peak_bytes:
            self.peak_bytes = rss

    # The ``add_*`` updates below call ``_clamp`` only on a negative
    # balance, and note the peak only when they grew a pool: a release (or
    # a clamp back to zero) cannot raise RSS past a peak that was already
    # noted when the bytes arrived.

    def set_state(self, resident: float, spilled: float = 0) -> None:
        """Refresh live operator-state bytes (sampler path).

        ``resident`` replaces the state pool wholesale; ``spilled`` records
        the backends' cold-tier bytes alongside (not in RSS).
        """
        self.state_bytes = self._clamp("state", _as_int_bytes(resident))
        self.spilled_state_bytes = self._clamp(
            "spilled_state", _as_int_bytes(spilled)
        )
        self._note_peak()

    def add_state(self, delta: float) -> None:
        """Adjust live operator-state bytes."""
        step = _as_int_bytes(delta)
        value = self.state_bytes + step
        self.state_bytes = value if value >= 0 else self._clamp("state", value)
        if step > 0:
            self._note_peak()

    def add_send_queue(self, delta: float) -> None:
        """Adjust bytes sitting in network send queues."""
        step = _as_int_bytes(delta)
        value = self.send_queue_bytes + step
        self.send_queue_bytes = (
            value if value >= 0 else self._clamp("send_queue", value)
        )
        if step > 0:
            self._note_peak()

    def add_recv_buffer(self, delta: float) -> None:
        """Adjust bytes buffered at the receiver pending installation."""
        step = _as_int_bytes(delta)
        value = self.recv_buffer_bytes + step
        self.recv_buffer_bytes = (
            value if value >= 0 else self._clamp("recv_buffer", value)
        )
        if step > 0:
            self._note_peak()

    def add_retained(self, delta: float) -> None:
        """Adjust allocator-retained bytes.

        Extracted-and-serialized state stays resident at the sender until
        the network has drained it (paper §5.3.5's explanation for the
        all-at-once RSS spike: extraction allocates serialized copies faster
        than the network threads can send them, and the originals are not
        returned to the OS in the meantime).
        """
        step = _as_int_bytes(delta)
        value = self.retained_bytes + step
        self.retained_bytes = value if value >= 0 else self._clamp("retained", value)
        if step > 0:
            self._note_peak()


@dataclass
class MemorySample:
    """One point of a process's RSS timeline.

    ``spilled_bytes`` is the cold-tier state reported by spilling backends
    at the same instant — zero for flat backends, and never part of
    ``rss_bytes``.  ``send_queue_bytes`` is the part of ``rss_bytes``
    waiting in network send queues.
    """

    time: float
    rss_bytes: int
    spilled_bytes: int = 0
    send_queue_bytes: int = 0


@dataclass
class MemoryTimeline:
    """Periodic samples of one process's modeled RSS."""

    process: int
    samples: list[MemorySample] = field(default_factory=list)

    def record(self, time: float, rss_bytes: int, spilled_bytes: int = 0) -> None:
        """Append one sample."""
        self.samples.append(
            MemorySample(
                time=time, rss_bytes=rss_bytes, spilled_bytes=spilled_bytes
            )
        )

    def peak(self) -> int:
        """Largest sampled RSS (0 when empty)."""
        return max((s.rss_bytes for s in self.samples), default=0)

    def peak_spilled(self) -> int:
        """Largest sampled cold-tier size (0 when empty or flat)."""
        return max((s.spilled_bytes for s in self.samples), default=0)

    def peak_send_queue(self) -> int:
        """Largest sampled send-queue backlog (0 when empty)."""
        return max((s.send_queue_bytes for s in self.samples), default=0)

    def at(self, time: float) -> int:
        """RSS of the latest sample at or before ``time`` (0 if none)."""
        best = 0
        for sample in self.samples:
            if sample.time <= time:
                best = sample.rss_bytes
            else:
                break
        return best


class MemoryTimelineRecorder:
    """Builds per-process RSS timelines from ``memory`` trace events.

    The experiment driver publishes a :class:`~repro.runtime_events.events.MemorySampled`
    event per process on every sampling tick; this recorder is the (purely
    observational) consumer that turns the event stream into the
    :class:`MemoryTimeline` objects reports and plots consume.
    """

    def __init__(self, bus, num_processes: int) -> None:
        self.timelines = [MemoryTimeline(process=p) for p in range(num_processes)]
        self._unsubscribe = bus.subscribe(self._on_event, topics=(TOPIC_MEMORY,))

    def close(self) -> None:
        """Detach from the bus."""
        self._unsubscribe()

    def _on_event(self, event) -> None:
        self.timelines[event.process].samples.append(
            MemorySample(event.at, event.rss_bytes, event.spilled_bytes, event.send_queue_bytes)
        )



def attach(run) -> SimpleNamespace:
    """The memory-sampling part of a run (``sample_memory``): every
    ``memory_sample_s``, refresh each live process's state bytes (from the
    operator's stores, else the builder's ``state_bytes_fn``) and publish a
    ``MemorySampled`` event, whether or not anyone subscribed."""
    cfg, sim, op = run.config, run.sim, run.op
    processes = run.runtime.cluster.processes
    recorder = MemoryTimelineRecorder(sim.trace, len(processes))

    def sample() -> None:
        for process in processes:
            workers, memory = process.worker_ids, process.memory
            if run.injector is None or not run.injector.is_dead(workers[0]):
                if run.state_bytes_fn is not None:
                    memory.set_state(sum(run.state_bytes_fn(w) for w in workers))
                elif op is not None:
                    resident = spilled = 0
                    for _w, store in op.stores(run.runtime, workers=workers):
                        resident += store.resident_state_size()
                        spilled += store.spilled_state_size()
                    memory.set_state(resident, spilled)
            sim.trace.publish(
                MemorySampled(
                    process=process.index,
                    rss_bytes=memory.rss_bytes,
                    at=sim.now,
                    spilled_bytes=memory.spilled_state_bytes,
                    send_queue_bytes=memory.send_queue_bytes,
                )
            )
        if sim.now < cfg.duration_s + 1.0:
            sim.schedule(cfg.memory_sample_s, sample)

    sim.schedule_at(0.0, sample)
    return SimpleNamespace(finish=lambda result: setattr(result, "memory", recorder.timelines))
