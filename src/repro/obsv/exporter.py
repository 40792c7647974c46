"""Telemetry export from the trace bus.

:class:`MetricsExporter` subscribes to bus topics and folds every event
into a small metrics registry — counters (monotone totals), gauges (last
value wins), and log-bucketed histograms — then streams periodic
snapshots as JSON lines.

Design constraints, in order:

1. **Zero cost detached.**  The exporter is an ordinary bus subscriber;
   when no exporter is attached, every publish site still pays only its
   ``wants_*`` flag read.  The bus invariant (subscribers never mutate
   runtime state) pins overhead *and* correctness: a run is byte-identical
   with or without an exporter.
2. **Deterministic in simulated time.**  JSON-line snapshots are cut when
   the *simulated* clock crosses a flush boundary, not on a wall-clock
   timer, so the exported file for a given run is reproducible.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional

from repro.runtime_events.bus import TraceBus
from repro.runtime_events.events import (
    AutoscaleDecision,
    BatchDelivered,
    BinStateExtracted,
    BinStateInstalled,
    MembershipEpoch,
    MemorySampled,
    MessageDropped,
    MessageEnqueued,
    MessageTransmitted,
    MigrationStepCompleted,
    MigrationStepIssued,
    MigrationStepOutcome,
    WorkerLoadSampled,
    WorkerStateChanged,
)

# Histogram bucket upper bounds (seconds or bytes, depending on series).
# Decade-spaced with a 3x midpoint: coarse, but stable across runs and
# cheap to update — one linear scan over 13 bounds per observation.
_BUCKETS = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 100.0, 1e6,
)


class Histogram:
    """Fixed-bucket histogram with cumulative (``le``-style) counts."""

    __slots__ = ("buckets", "counts", "total", "sum")

    def __init__(self, buckets: tuple = _BUCKETS) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.total += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs."""
        out = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        return out

    def to_dict(self) -> dict:
        return {
            "count": self.total,
            "sum": round(self.sum, 9),
            "buckets": {repr(b): c for (b, c) in self.cumulative() if c},
        }


def _label_str(labels: tuple) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


class MetricsExporter:
    """Aggregate bus events into exported metrics.

    ``jsonl`` may be a path, ``"-"`` for stdout, or an open text stream.
    ``topics=None`` subscribes to every topic; a narrower selection keeps
    unrelated publish sites on their zero-cost path.
    """

    def __init__(
        self,
        bus: TraceBus,
        topics: Optional[Iterable[str]] = None,
        jsonl=None,
        flush_every_s: float = 0.25,
    ) -> None:
        self._counters: dict[tuple[str, tuple], float] = {}
        self._gauges: dict[tuple[str, tuple], float] = {}
        self._histograms: dict[tuple[str, tuple], Histogram] = {}
        self._flush_every_s = flush_every_s
        self._next_flush_s = flush_every_s
        self._snapshots_written = 0
        self._last_at = 0.0
        self._stream: Optional[IO] = None
        self._owns_stream = False
        if jsonl == "-":
            import sys

            self._stream = sys.stdout
        elif isinstance(jsonl, str):
            self._stream = open(jsonl, "w", encoding="utf-8")
            self._owns_stream = True
        elif jsonl is not None:
            self._stream = jsonl
        self.topics = tuple(topics) if topics is not None else None
        self._unsubscribe = bus.subscribe(self._observe, topics=self.topics)

    # -- registry -----------------------------------------------------------

    def _count(self, name: str, labels: tuple = (), by: float = 1.0) -> None:
        key = (name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + by

    def _gauge(self, name: str, value: float, labels: tuple = ()) -> None:
        self._gauges[(name, labels)] = value

    def _observe_hist(self, name: str, value: float, labels: tuple = ()) -> None:
        key = (name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.observe(value)

    # -- event folding ------------------------------------------------------

    def _observe(self, event) -> None:
        self._fold(event)
        at = getattr(event, "at", None)
        if at is None:
            return
        if at > self._last_at:
            self._last_at = at
        if self._stream is not None and at >= self._next_flush_s:
            self._write_snapshot(at)
            while self._next_flush_s <= at:
                self._next_flush_s += self._flush_every_s

    def _fold(self, event) -> None:
        kind = type(event)
        self._count("repro_events_total", (("topic", event.topic),))
        if kind is BatchDelivered:
            self._count(
                "repro_records_total", (("worker", event.worker),), event.records
            )
        elif kind is MessageEnqueued:
            self._count("repro_messages_total", (("kind", "enqueued"),))
            self._count("repro_network_bytes_total", (), event.size_bytes)
            self._gauge(
                "repro_network_inflight_bytes",
                self._gauge_value("repro_network_inflight_bytes")
                + event.size_bytes,
            )
        elif kind is MessageTransmitted:
            self._count("repro_messages_total", (("kind", "transmitted"),))
            self._gauge(
                "repro_network_inflight_bytes",
                max(
                    self._gauge_value("repro_network_inflight_bytes")
                    - event.size_bytes,
                    0.0,
                ),
            )
        elif kind is MessageDropped:
            self._count(
                "repro_messages_dropped_total", (("reason", event.reason),)
            )
        elif kind is MigrationStepIssued:
            self._count("repro_migration_steps_total", (("phase", "issued"),))
        elif kind is MigrationStepCompleted:
            self._count(
                "repro_migration_steps_total", (("phase", "completed"),)
            )
        elif kind is MigrationStepOutcome:
            self._observe_hist("repro_migration_step_seconds", event.duration_s)
            if event.abandoned:
                self._count("repro_migration_steps_abandoned_total")
        elif kind is BinStateExtracted:
            self._count(
                "repro_bin_ship_bytes_total",
                (("kind", event.kind),),
                event.size_bytes,
            )
            self._observe_hist("repro_bin_serialize_seconds", event.serialize_s)
        elif kind is BinStateInstalled:
            self._count("repro_bins_installed_total", (("kind", event.kind),))
            self._observe_hist(
                "repro_bin_deserialize_seconds", event.deserialize_s
            )
        elif kind is MemorySampled:
            labels = (("process", event.process),)
            self._gauge("repro_process_rss_bytes", event.rss_bytes, labels)
            self._gauge(
                "repro_process_spilled_bytes", event.spilled_bytes, labels
            )
        elif kind is WorkerLoadSampled:
            labels = (("worker", event.worker),)
            self._gauge("repro_worker_load", event.load, labels)
            self._gauge("repro_worker_bins", event.bins, labels)
            self._gauge("repro_worker_state_bytes", event.state_bytes, labels)
        elif kind is WorkerStateChanged:
            self._count(
                "repro_membership_transitions_total",
                (("state", event.state),),
            )
        elif kind is MembershipEpoch:
            self._gauge("repro_active_workers", len(event.active))
            self._gauge("repro_draining_workers", len(event.draining))
            self._gauge("repro_membership_epoch", event.epoch)
        elif kind is AutoscaleDecision:
            self._count(
                "repro_autoscale_decisions_total",
                (("action", event.action), ("reason", event.reason)),
            )
        elif event.topic == "faults":
            self._count("repro_faults_total", (("fault", kind.__name__),))

    def _gauge_value(self, name: str, labels: tuple = ()) -> float:
        return self._gauges.get((name, labels), 0.0)

    # -- output -------------------------------------------------------------

    def snapshot(self, at: Optional[float] = None) -> dict:
        """The current registry as one JSON-compatible dict."""
        if at is None:
            at = self._last_at

        def flat(table: dict) -> dict:
            return {
                name + _label_str(labels): value
                for (name, labels), value in sorted(
                    table.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            }

        return {
            "at": round(at, 9),
            "counters": flat(self._counters),
            "gauges": flat(self._gauges),
            "histograms": {
                name + _label_str(labels): hist.to_dict()
                for (name, labels), hist in sorted(
                    self._histograms.items(),
                    key=lambda kv: (kv[0][0], str(kv[0][1])),
                )
            },
        }

    def _write_snapshot(self, at: float) -> None:
        json.dump(self.snapshot(at), self._stream, sort_keys=False)
        self._stream.write("\n")
        self._snapshots_written += 1

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Detach from the bus and write the final snapshot."""
        self._unsubscribe()
        if self._stream is not None:
            self._write_snapshot(self._last_at)
            if self._owns_stream:
                self._stream.close()
            self._stream = None
