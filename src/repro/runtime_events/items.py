"""Typed, slotted carriers for the runtime's hot-path values.

These replace the ad-hoc tuples the worker and network layers historically
threaded around: string-tagged work-item tuples and 5-element send-buffer
tuples.  Each class is a plain slotted dataclass — construction cost is
comparable to a tuple, but every field has a name, a type, and a single
definition the whole runtime shares.

A cross-worker batch is allocated once: the sending worker's flush builds
its :class:`MessageWork`, wraps it as the payload of one
:class:`repro.sim.network.NetworkMessage`, and the receiving worker's inbox
adopts that same object on delivery.

The ``channel`` fields hold :class:`repro.timely.graph.ChannelDesc`
instances; they are typed as ``object`` here because this package sits
below ``repro.timely`` and must not import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class SourceWork:
    """A batch injected by a source operator's input handle.

    Queued on the owning worker and processed during an activation, which
    charges ingest cost and forwards the records on output port 0.
    """

    op_index: int
    time: object
    records: list


@dataclass(slots=True)
class MessageWork:
    """A message batch on a channel: in flight, then awaiting processing.

    Built once per destination by the sender's flush, carried as the
    ``payload`` of the network message, and queued unchanged in the
    receiver's inbox.  ``size_bytes`` is the modeled wire size, used for
    input-cost hooks (e.g. state installation pays deserialization cost per
    byte).
    """

    channel: object
    time: object
    records: list
    size_bytes: float


@dataclass(slots=True)
class BufferedSend:
    """One ``OpContext.send`` awaiting the activation's flush.

    A transient send-guard capability covers the send until the flush has
    charged in-flight counts.  ``size_bytes`` is an explicit wire size
    (``None`` derives it from the record count); ``retained_bytes`` is
    sender memory that must stay resident until the network has drained
    the message (migrating state keeps its serialized copy allocated —
    the all-at-once RSS spike of paper §5.3.5).
    """

    port: int
    time: object
    records: list
    size_bytes: Optional[float]
    retained_bytes: float


@dataclass(slots=True)
class DestinationBatch:
    """Records pre-grouped for one destination worker.

    Megaphone's F operator routes a whole input batch at once and emits one
    ``DestinationBatch`` per destination instead of per-record
    ``(dst, bin, tag, record)`` tuples: the exchange channel routes the
    group with a single ``route`` call, the network ships it as one payload,
    and S stashes it untouched until notification.

    ``columns`` is a :class:`repro.runtime_events.columns.ColumnBatch`
    holding the destination's records in arrival order, ``bin_ids`` is the
    parallel bin-id column, and ``tag`` is the input-port tag shared by the
    whole batch.  ``count`` is the number of records, which every layer
    that models per-record cost (CPU charge, wire bytes, trace events) must
    use instead of ``len(records)``.
    """

    dst: int
    count: int
    bin_ids: object
    columns: object
    tag: int = 0


def batch_record_count(records) -> int:
    """Number of underlying records in a batch.

    Grouped carriers (``DestinationBatch``) report the records they carry;
    columnar batches report their column length; plain batches report their
    length.  Cost models and wire-size derivations must go through this so
    grouped, columnar, and per-record paths charge identically.
    """
    if type(records) is list and records and type(records[0]) is DestinationBatch:
        if len(records) == 1:
            return records[0].count
        return sum(batch.count for batch in records)
    return len(records)
