"""Tests for the metrics exporter (repro.obsv.exporter)."""

import io
import json

from repro.obsv.exporter import Histogram, MetricsExporter
from repro.runtime_events.bus import TraceBus
from repro.runtime_events.events import (
    TOPIC_FAULTS,
    TOPIC_MIGRATION,
    TOPIC_NETWORK,
    BatchDelivered,
    MessageDropped,
    MessageEnqueued,
    MessageTransmitted,
    MigrationStepOutcome,
)


def _enqueued(size=100.0, at=0.1):
    return MessageEnqueued(src_worker=0, dst_worker=1, size_bytes=size, at=at)


def _transmitted(size=100.0, at=0.2):
    return MessageTransmitted(src_worker=0, dst_worker=1, size_bytes=size, at=at)


def test_histogram_buckets_and_cumulative():
    hist = Histogram()
    hist.observe(2e-4)
    hist.observe(2e-4)
    hist.observe(5.0)
    assert hist.total == 3
    cumulative = dict(hist.cumulative())
    assert cumulative[3e-4] == 2  # both small values land below 3e-4
    assert cumulative[10.0] == 3  # the 5.0 outlier lands in (3, 10]
    assert hist.to_dict()["count"] == 3


def test_counters_and_inflight_gauge():
    bus = TraceBus()
    exporter = MetricsExporter(bus, topics=(TOPIC_NETWORK,))
    bus.publish(_enqueued(size=100.0, at=0.1))
    snap = exporter.snapshot()
    assert snap["counters"]['repro_messages_total{kind="enqueued"}'] == 1.0
    assert snap["gauges"]["repro_network_inflight_bytes"] == 100.0
    bus.publish(_transmitted(size=100.0, at=0.2))
    snap = exporter.snapshot()
    assert snap["gauges"]["repro_network_inflight_bytes"] == 0.0
    assert snap["counters"]["repro_network_bytes_total"] == 100.0
    exporter.close()


def test_dropped_messages_counted_by_reason():
    bus = TraceBus()
    exporter = MetricsExporter(bus, topics=(TOPIC_FAULTS,))
    bus.publish(
        MessageDropped(
            src_worker=0, dst_worker=1, size_bytes=1.0, reason="link", at=0.1
        )
    )
    snap = exporter.snapshot()
    assert snap["counters"]['repro_messages_dropped_total{reason="link"}'] == 1.0
    exporter.close()


def test_jsonl_snapshots_cut_on_simulated_time():
    bus = TraceBus()
    stream = io.StringIO()
    exporter = MetricsExporter(
        bus, topics=(TOPIC_NETWORK,), jsonl=stream, flush_every_s=0.5
    )
    # Events at 0.1 and 0.3 stay inside the first window; 0.6 crosses it.
    bus.publish(_enqueued(at=0.1))
    bus.publish(_enqueued(at=0.3))
    assert stream.getvalue() == ""
    bus.publish(_enqueued(at=0.6))
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert len(lines) == 1
    assert lines[0]["at"] == 0.6
    exporter.close()  # close() appends the final snapshot
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert len(lines) == 2


def test_unsubscribed_topics_stay_zero_cost():
    bus = TraceBus()
    exporter = MetricsExporter(bus, topics=(TOPIC_NETWORK,))
    assert bus.wants_network is True
    assert bus.wants_migration is False  # narrow subscription: other
    assert bus.wants_batch is False  # publish sites keep the flag path
    exporter.close()
    assert bus.wants_network is False


def test_migration_step_histogram_and_abandoned_counter():
    bus = TraceBus()
    exporter = MetricsExporter(bus, topics=(TOPIC_MIGRATION,))
    bus.publish(
        MigrationStepOutcome(
            time=1, moves=2, attempts=1,
            duration_s=0.02, abandoned=False, at=0.1,
        )
    )
    bus.publish(
        MigrationStepOutcome(
            time=2, moves=2, attempts=3,
            duration_s=0.5, abandoned=True, at=0.2,
        )
    )
    snap = exporter.snapshot()
    hist = snap["histograms"]["repro_migration_step_seconds"]
    assert hist["count"] == 2
    assert snap["counters"]["repro_migration_steps_abandoned_total"] == 1.0
    exporter.close()
