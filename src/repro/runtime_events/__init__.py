"""Typed runtime-event core.

This package is the structured substrate the rest of the runtime is built
on.  It has no dependency on any other ``repro`` package and provides three
things:

* :mod:`repro.runtime_events.items` — slotted dataclasses for the values
  the runtime moves around on its hot path (worker work items, which also
  ride inside network messages, and buffered operator sends).  These replace the string-tagged
  and anonymous tuples the runtime historically used.
* :mod:`repro.runtime_events.events` and :mod:`repro.runtime_events.bus` —
  structured trace events and the :class:`TraceBus` they travel on.  The bus
  is *observability only*: publishers guard every emission with a per-topic
  ``wants_*`` flag so that an idle bus costs one attribute read and no
  allocation, and subscribers must never mutate runtime state or schedule
  simulation events — attaching or detaching a subscriber can therefore
  never change a simulation's behaviour.
* :mod:`repro.runtime_events.analyze` — consumers that turn a recorded
  trace into derived artifacts, most importantly the per-bin migration
  phase breakdown (drain wait → extract → ship → install → catch-up).
"""

from repro.lazy import exports

__getattr__, __all__ = exports(__name__, {
    "analyze": ("PHASES", "BinPhases", "MigrationBreakdown", "MigrationTrace"),
    "bus": ("TraceBus", "TraceLog"),
    "events": (
        "TOPICS", "TOPIC_ACTIVATION", "TOPIC_BATCH", "TOPIC_CAPABILITY",
        "TOPIC_FRONTIER", "TOPIC_MEMORY", "TOPIC_MIGRATION", "TOPIC_NETWORK",
        "TOPIC_SEND", "ActivationBegin", "ActivationEnd", "BatchDelivered",
        "BinMigrationPlanned", "BinStateExtracted", "BinStateInstalled",
        "CapabilityDropped", "CapabilityHeld", "FrontierAdvanced", "MemorySampled",
        "MessageEnqueued", "MessageTransmitted", "MigrationStepCompleted",
        "MigrationStepIssued", "SendFlushed",
    ),
    "items": ("BufferedSend", "MessageWork", "SourceWork"),
})
