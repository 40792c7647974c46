"""Plain-text reporting used by the CLI and the benchmark scripts.

Tables print as aligned columns, figures print as the series a plotting
tool would consume (one row per point), so the shapes are inspectable in
CI logs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def format_latency(seconds: Optional[float]) -> str:
    """Human-friendly latency (ms with sensible precision)."""
    if seconds is None:
        return "-"
    ms = seconds * 1000.0
    if ms >= 100:
        return f"{ms:.0f} ms"
    if ms >= 1:
        return f"{ms:.2f} ms"
    return f"{ms:.3f} ms"


def format_bytes(num_bytes: float) -> str:
    """Human-friendly byte count."""
    units = ["B", "KiB", "MiB", "GiB", "TiB"]
    value = float(num_bytes)
    for unit in units:
        if abs(value) < 1024 or unit == units[-1]:
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{value:.1f} TiB"


def format_duration(seconds: Optional[float]) -> str:
    """Human-friendly duration."""
    if seconds is None:
        return "-"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000:.1f} ms"


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    out=print,
) -> None:
    """Print an aligned text table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out(f"\n== {title} ==")
    out("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    out("  ".join("-" * w for w in widths))
    for row in str_rows:
        out("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def print_timeline(title: str, series, out=print, every: int = 1) -> None:
    """Print a latency timeline (Figures 1, 5-12 style)."""
    rows = [
        (
            f"{s.start_s:.2f}",
            format_latency(s.max_s),
            format_latency(s.p99_s),
            format_latency(s.p50_s),
            format_latency(s.p25_s),
        )
        for i, s in enumerate(series)
        if i % every == 0
    ]
    print_table(title, ["time [s]", "max", "p99", "p50", "p25"], rows, out=out)


def print_phase_breakdown(
    title: str,
    breakdown,
    out=print,
    max_rows: int = 16,
) -> None:
    """Print a per-bin migration phase breakdown (``runtime_events.analyze``).

    One row per migrated bin: drain wait → extract → ship → install →
    catch-up, which partition the bin's step duration exactly.  Large
    migrations are truncated to ``max_rows`` bins; the step totals and the
    per-phase sums below always cover every bin.
    """
    rows = []
    for phases in breakdown.rows[:max_rows]:
        rows.append(
            (
                phases.bin,
                f"{phases.src}->{phases.dst}",
                format_bytes(phases.size_bytes),
                format_duration(phases.drain_s),
                format_duration(phases.extract_s),
                format_duration(phases.ship_s),
                format_duration(phases.install_s),
                format_duration(phases.catchup_s),
                format_duration(phases.total_s),
            )
        )
    print_table(
        title,
        ["bin", "move", "size", "drain", "extract", "ship", "install",
         "catch-up", "total"],
        rows,
        out=out,
    )
    hidden = len(breakdown.rows) - max_rows
    if hidden > 0:
        out(f"... ({hidden} more bins)")
    if breakdown.incomplete:
        out(f"({breakdown.incomplete} bins with incomplete lifecycles omitted)")
    step_totals = breakdown.step_totals()
    if step_totals:
        out(
            f"steps: {len(step_totals)}; bins: {len(breakdown.rows)}; "
            f"summed step durations: "
            f"{format_duration(breakdown.total_duration())}"
        )
    sums = breakdown.phase_sums()
    grand = sum(sums.values())
    if grand > 0:
        parts = ", ".join(
            f"{phase} {format_duration(value)} ({value / grand:.0%})"
            for phase, value in sums.items()
        )
        out(f"phase totals across bins: {parts}")
