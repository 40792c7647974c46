"""Tests for the reporting helpers."""

from repro.harness.report import (
    format_bytes,
    format_duration,
    format_latency,
    print_table,
    print_timeline,
)
from repro.harness.latency import LatencyTimeline


def test_format_latency_ranges():
    assert format_latency(None) == "-"
    assert format_latency(0.250) == "250 ms"
    assert format_latency(0.0042) == "4.20 ms"
    assert format_latency(0.000123) == "0.123 ms"


def test_format_bytes():
    assert format_bytes(512) == "512.0 B"
    assert format_bytes(2048) == "2.0 KiB"
    assert format_bytes(3 * 1024**3) == "3.0 GiB"


def test_format_duration():
    assert format_duration(None) == "-"
    assert format_duration(2.5) == "2.50 s"
    assert format_duration(0.0042) == "4.2 ms"


def test_print_table_alignment():
    lines = []
    print_table("t", ["a", "long_header"], [("x", 1), ("yy", 22)], out=lines.append)
    assert lines[0] == "\n== t =="
    header = lines[1]
    assert "a" in header and "long_header" in header
    # All rows share the separator width.
    assert len(lines[2]) == len(header)


def test_print_timeline_smoke():
    timeline = LatencyTimeline()
    for i in range(10):
        timeline.record(i * 0.25, 0.001 * (i + 1))
    lines = []
    print_timeline("tl", timeline.series(), out=lines.append, every=2)
    assert any("time [s]" in line for line in lines)
