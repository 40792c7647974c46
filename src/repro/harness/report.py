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


def print_run_report(result, title: str, out=print) -> None:
    """Print what one run's config asks for (``repro.cli run``).

    Always the latency timeline and the migrations; then, when the config
    sets them up, the scaling operations and autoscaler decisions, the
    per-bin phase breakdown and step outcomes, the bus topic counts and
    the planner's decisions.
    """
    cfg = result.config
    print_timeline(title, result.timeline.series(), out=out, every=2)
    rows = [
        (
            i,
            migration.strategy,
            len(migration.steps),
            format_duration(result.migration_duration(i)),
            format_latency(result.migration_max_latency(i)),
        )
        for i, migration in enumerate(result.migrations)
    ]
    if rows:
        print_table(
            "migrations", ["#", "strategy", "steps", "duration", "max latency"],
            rows, out=out,
        )
    out(f"\nsteady-state max latency: {format_latency(result.steady_max_latency())}")
    out(f"records injected: {result.records_injected:,.0f}; "
        f"wall time: {result.wall_seconds:.1f}s")
    if result.scaling is not None:
        _print_elastic(result, out)
    if cfg.collect_trace:
        _print_trace(result, out)
    if cfg.collect_topic_counts is not None:
        counts = result.topic_counts
        print_table(
            "bus events by topic", ["topic", "events"],
            [(t, f"{counts[t]:,}") for t in sorted(counts)]
            or [("-", "no events on the selected topics")],
            out=out,
        )
    if cfg.planner is not None:
        _print_planner(result, out)


def _print_elastic(result, out) -> None:
    """Scaling operations and autoscaler decisions."""
    rows = [
        (
            op.kind,
            ",".join(str(w) for w in op.workers),
            op.moves,
            format_duration(op.duration_s) if op.completed_at else "pending",
            op.residual_bins,
        )
        for op in result.scaling.operations
    ]
    print_table(
        "scaling operations",
        ["kind", "workers", "moves", "duration", "residual bins"],
        rows if rows else [("-", "-", 0, "-", "no membership changes")],
        out=out,
    )
    decisions = result.autoscale_decisions
    acted = [d for d in decisions if d.action != "hold"]
    if decisions:
        print_table(
            "autoscaler decisions",
            ["at", "action", "reason", "mean load", "active → target"],
            [
                (f"{d.at:.2f}s", d.action, d.reason, f"{d.mean_load:,.0f}",
                 f"{d.active} → {d.target}")
                for d in acted
            ]
            or [("-", "hold", "-", "-", "-")],
            out=out,
        )
        out(f"autoscaler holds (cooldown/busy/bounds): {len(decisions) - len(acted)}")


def _print_trace(result, out) -> None:
    """The per-bin phase breakdown and the first 16 step outcomes."""
    trace = result.migration_trace
    print_phase_breakdown(
        f"migration phases, {result.config.strategy}, "
        f"domain {result.config.domain:,}",
        trace.phase_breakdown(), out=out,
    )
    measured = sum(
        result.migration_duration(i) for i in range(len(result.migrations))
    )
    out(f"measured migration duration: {format_duration(measured)}")
    outcomes = trace.outcome_rows()
    if outcomes:
        print_table(
            "step outcomes", ["time", "moves", "attempts", "duration"],
            [
                (o.time, o.moves, o.attempts, format_duration(o.duration_s))
                for o in outcomes[:16]
            ],
            out=out,
        )


def _print_planner(result, out) -> None:
    """The planner's proposals and where the run ended."""
    planner, report = result.config.planner, result.planner
    print_table(
        f"planner decisions, objective {planner.objective}"
        + (" (propose-only)" if planner.propose_only else ""),
        ["at", "moves", "steps", "pred. cost", "gain", "verdict"],
        [
            (f"{p.at:.2f}s", p.moves, p.steps, format_duration(p.predicted_cost_s),
             f"{p.predicted_gain:+.2f}", "adopted" if p.adopted else p.reason)
            for p in report.proposals
        ]
        or [("-", 0, 0, "-", "-", "nothing to propose")],
        out=out,
    )
    out(f"\ndecision points: {report.decisions}; proposals: "
        f"{len(report.proposals)}; adopted: {len(report.adopted)}")
    out(f"final imbalance (max/mean): {result.final_imbalance:.2f}x")
