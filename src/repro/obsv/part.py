"""The observability part of a run: the migration trace, the metrics
exporter, the event-log recorder and the per-topic event counts.  All of
them are bus subscribers, so a run is byte-identical with or without them.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.obsv.eventlog import EventLogRecorder
from repro.obsv.exporter import MetricsExporter
from repro.runtime_events.analyze import MigrationTrace


def attach(run) -> SimpleNamespace:
    """Attach whatever the config asks to observe."""
    cfg = run.config
    bus = run.sim.trace
    trace = MigrationTrace(bus) if cfg.collect_trace else None
    exporter = MetricsExporter(bus, jsonl=cfg.export_metrics) if cfg.export_metrics else None
    event_log = EventLogRecorder(cfg, bus, cfg.record_log) if cfg.record_log else None
    counts: dict = {}
    if cfg.collect_topic_counts is not None:

        def count(event) -> None:
            counts[event.topic] = counts.get(event.topic, 0) + 1

        bus.subscribe(count, topics=cfg.collect_topic_counts or None)

    def finish(result) -> None:
        result.migration_trace = trace
        result.topic_counts = counts
        if exporter is not None:
            exporter.close()
        if event_log is not None:
            event_log.finalize(result)

    return SimpleNamespace(finish=finish)
