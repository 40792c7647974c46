"""Command-line interface for running reproduction experiments.

Usage (module form)::

    python -m repro.cli count --strategy fluid --bins 4096 --domain 1e9
    python -m repro.cli nexmark --query 5 --strategy batched --dilation 60
    python -m repro.cli trace --domain 1e7             # per-bin phase breakdown
    python -m repro.cli plan --workload skewed         # closed-loop planner
    python -m repro.cli count --record run.jsonl       # record an event log
    python -m repro.cli replay run.jsonl               # verify it reproduces
    python -m repro.cli matrix --spec benchmarks/paper/fig07.toml  # a figure
    python -m repro.cli list

``--profile`` (before the subcommand) wraps any command in cProfile and
prints the top 25 functions by cumulative time after the report.

Each command builds the simulated cluster, runs the workload with the
requested migrations, and prints the latency timeline plus a migration
summary in the same format the benchmarks use.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

from repro.elastic.autoscaler import AutoscalerConfig
from repro.errors import ConfigError
from repro.harness.experiment import (
    WORKLOADS,
    ExperimentConfig,
    run_count_experiment,
)
from repro.harness.report import (
    format_duration,
    format_latency,
    print_phase_breakdown,
    print_table,
    print_timeline,
)
from repro.megaphone.migration import STRATEGIES
from repro.nexmark.config import NexmarkConfig
from repro.nexmark.harness import run_nexmark_experiment

# Experiment flags are a view of the config types: each flag's ``dest`` is
# the name of the field it writes (in ExperimentConfig, AutoscalerConfig,
# PlannerConfig or TelemetryConfig), and every value rule lives in those
# types' ``__post_init__``/``validate``, not here.


def _integer(text: str) -> int:
    """An integer flag that also takes float notation, e.g. ``1e9``."""
    return int(float(text))


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", dest="num_workers", type=int, default=8)
    parser.add_argument("--workers-per-process", type=int, default=4)
    parser.add_argument("--bins", dest="num_bins", type=int, default=256)
    parser.add_argument("--rate", type=float, default=20_000)
    parser.add_argument("--duration", dest="duration_s", type=float, default=8.0)
    parser.add_argument("--strategy", choices=STRATEGIES, default="batched")
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument(
        "--migrate-at", dest="migrate_at_s", type=float, nargs="*",
        default=[3.0], help="simulated seconds at which to start migrations",
    )
    parser.add_argument("--granularity-ms", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--network-latency", dest="network_latency_s", type=float,
        default=40e-6, metavar="SECONDS",
        help="cross-process link latency; in --parallel 0 runs it is also "
        "the conservative lookahead, so ms-scale values (e.g. 0.01) keep "
        "the synchronization round count practical",
    )
    parser.add_argument(
        "--state-backend", default="dict",
        help="state backend holding bin state (see `repro.cli list`)",
    )
    parser.add_argument(
        "--codec", default="modeled",
        help="codec serializing migrated/snapshotted state",
    )
    parser.add_argument(
        "--hot-capacity", dest="hot_capacity_bytes", type=_integer,
        default=None,
        help="tiered backend: hot-tier capacity in bytes before spilling",
    )
    parser.add_argument(
        "--delta-migration", action="store_true",
        help="ship each bin's base state ahead of the move and only the "
        "dirtied delta at execution (needs a delta-capable backend such "
        "as wal; falls back to whole-bin shipment otherwise)",
    )


def _parallel_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="0 runs the sharded reference engine (one event loop per "
        "workers-per-process group, in this process); omit it for the "
        "serial engine.  No other value is accepted",
    )


def _obsv_args(parser: argparse.ArgumentParser) -> None:
    """The observability surface shared by the experiment commands."""
    parser.add_argument(
        "--export-metrics", default=None, metavar="PATH",
        help="stream JSON-line metric snapshots to PATH ('-' = stdout)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text metrics on localhost:PORT during the "
        "run (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--record", dest="record_log", default=None, metavar="PATH",
        help="write the versioned event log that `repro.cli replay` "
        "re-executes and verifies",
    )


def _elastic_args(parser: argparse.ArgumentParser) -> None:
    """Elastic membership: standby slots, scripted scaling, autoscaling."""
    parser.add_argument(
        "--active", dest="active_workers", type=int, default=None,
        metavar="N",
        help="initially active workers; the remaining --workers slots are "
        "provisioned standbys that joins can admit mid-run",
    )
    parser.add_argument(
        "--scaling-plan", default=None, metavar="SPEC",
        help="scripted membership changes, e.g. 'join@2:4,5;leave@5:4,5' "
        "(semicolon-separated action@seconds:worker,worker)",
    )
    parser.add_argument(
        "--autoscale", action="store_true",
        help="attach the closed-loop autoscaler (threshold policy with "
        "hysteresis and cooldown; see `repro.cli list`)",
    )
    parser.add_argument(
        "--scale-out-load", type=float, default=1500.0,
        help="autoscaler: mean records/s per active worker above which "
        "a standby is admitted",
    )
    parser.add_argument(
        "--scale-in-load", type=float, default=400.0,
        help="autoscaler: mean load below which the highest active "
        "worker is drained (must stay below --scale-out-load; the gap "
        "is the anti-thrash hysteresis band)",
    )
    parser.add_argument(
        "--autoscale-cooldown", dest="cooldown_s", type=float, default=3.0,
        help="autoscaler: seconds between scaling actions",
    )


def _fields(cls, values: dict) -> dict:
    """The entries of ``values`` named after a field of dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {name: value for name, value in values.items() if name in names}


def _defaults_from(parser: argparse.ArgumentParser, cfg) -> None:
    """Default each of ``parser``'s flags to its field's value in ``cfg``."""
    parser.set_defaults(**_fields(type(cfg), {
        action.dest: getattr(cfg, action.dest, None)
        for action in parser._actions
    }))


def _config_from(args, **extra) -> ExperimentConfig:
    """The experiment config the flags write, field by field."""
    values = vars(args)
    autoscale = (
        AutoscalerConfig(**_fields(AutoscalerConfig, values))
        if values.get("autoscale")
        else None
    )
    return ExperimentConfig(
        **{**_fields(ExperimentConfig, values), "autoscale": autoscale, **extra}
    )


def _report(result, title: str) -> None:
    print_timeline(title, result.timeline.series(), every=2)
    rows = []
    for i, migration in enumerate(result.migrations):
        rows.append(
            (
                i,
                migration.strategy,
                len(migration.steps),
                format_duration(result.migration_duration(i)),
                format_latency(result.migration_max_latency(i)),
            )
        )
    if rows:
        print_table(
            "migrations",
            ["#", "strategy", "steps", "duration", "max latency"],
            rows,
        )
    print(f"\nsteady-state max latency: {format_latency(result.steady_max_latency())}")
    print(f"records injected: {result.records_injected:,.0f}; "
          f"wall time: {result.wall_seconds:.1f}s")


def _report_obsv(result) -> None:
    """One line per attached observer, so runs with observers say so."""
    if result.metrics_port is not None:
        print(f"metrics served on localhost:{result.metrics_port}")
    record = result.config.record_log
    if record:
        print(f"event log recorded to {record} "
              f"(verify: python -m repro.cli replay {record})")


def _report_elastic(result) -> None:
    """Scaling operations and autoscaler decisions, when the run had any."""
    report = getattr(result, "scaling", None)
    if report is None:
        return
    rows = [
        (
            op.kind,
            ",".join(str(w) for w in op.workers),
            op.moves,
            format_duration(op.duration_s) if op.completed_at else "pending",
            op.residual_bins,
        )
        for op in report.operations
    ]
    print_table(
        "scaling operations",
        ["kind", "workers", "moves", "duration", "residual bins"],
        rows if rows else [("-", "-", 0, "-", "no membership changes")],
    )
    decisions = getattr(result, "autoscale_decisions", None) or []
    acted = [d for d in decisions if d.action != "hold"]
    held = len(decisions) - len(acted)
    if decisions:
        print_table(
            "autoscaler decisions",
            ["at", "action", "reason", "mean load", "active → target"],
            [
                (
                    f"{d.at:.2f}s",
                    d.action,
                    d.reason,
                    f"{d.mean_load:,.0f}",
                    f"{d.active} → {d.target}",
                )
                for d in acted
            ]
            or [("-", "hold", "-", "-", "-")],
        )
        print(f"autoscaler holds (cooldown/busy/bounds): {held}")


def cmd_count(args) -> int:
    """Run the counting microbenchmark and print its report."""
    cfg = _config_from(args)
    result = run_count_experiment(cfg)
    _report(result, f"key-count, domain {cfg.domain:,}")
    _report_elastic(result)
    if result.parallel is not None:
        info = result.parallel
        print(
            f"parallel: domains={info['domains']} rounds={info['rounds']} "
            f"lookahead={info['lookahead_s'] * 1e3:.2f}ms"
        )
    _report_obsv(result)
    return 0


def cmd_nexmark(args) -> int:
    """Run one NEXMark query and print its report."""
    nexmark = NexmarkConfig(
        dilation=args.dilation, state_bytes_scale=args.state_scale
    )
    cfg = _config_from(args)
    result = run_nexmark_experiment(args.query, cfg, nexmark=nexmark)
    _report(result, f"NEXMark Q{args.query}")
    _report_elastic(result)
    _report_obsv(result)
    return 0


def cmd_scale(args) -> int:
    """Run an elastic scaling run and verify its membership guarantees.

    Exits 1 if any scaling operation failed to complete, if a drained
    worker ended the run with resident bins, or (with ``--verify-twin``)
    if the global state fingerprint or record count diverged from a
    static-membership twin of the same configuration — the zero
    lost/duplicated records check.
    """
    if not args.scaling_plan and not args.autoscale:
        print(
            "scale needs --scaling-plan and/or --autoscale "
            "(a run with neither never changes membership)",
            file=sys.stderr,
        )
        return 2
    cfg = _config_from(args, fingerprint_state=True)
    result = run_count_experiment(cfg)
    _report(result, "elastic scaling run")
    _report_elastic(result)
    print_table(
        "membership transitions",
        ["at", "worker", "transition"],
        [
            (f"{at:.2f}s", worker, f"{prev} -> {state}")
            for at, worker, prev, state in result.membership
        ]
        or [("-", "-", "no transitions")],
    )
    print(f"cluster state fingerprint: {result.cluster_fingerprint}")
    _report_obsv(result)

    failures = []
    report = result.scaling
    incomplete = [op for op in report.operations if op.completed_at is None]
    if incomplete:
        failures.append(
            f"{len(incomplete)} scaling operation(s) never completed"
        )
    if report.residual_bins:
        failures.append(
            f"drained workers ended with {report.residual_bins} resident "
            "bins; evacuation must hand off every bin before retirement"
        )
    if args.verify_twin:
        twin_cfg = dataclasses.replace(
            cfg,
            scaling_plan=None,
            autoscale=None,
            record_log=None,
            export_metrics=None,
            metrics_port=None,
        )
        twin = run_count_experiment(twin_cfg)
        if twin.records_injected != result.records_injected:
            failures.append(
                f"records diverged from the static twin: "
                f"{result.records_injected:,.0f} elastic vs "
                f"{twin.records_injected:,.0f} static"
            )
        if twin.cluster_fingerprint != result.cluster_fingerprint:
            failures.append(
                "cluster fingerprint diverged from the static-membership "
                f"twin ({result.cluster_fingerprint} vs "
                f"{twin.cluster_fingerprint}): state was lost or duplicated"
            )
        if not failures:
            print(
                "twin check: fingerprint and record count match the "
                "static-membership run"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nscaling guarantees hold: all operations completed, "
          "drained workers emptied")
    return 0


def cmd_trace(args) -> int:
    """Run one migration with trace collection and print its timeline.

    Defaults to the fluid strategy, whose completion-paced single-bin steps
    make the per-bin totals sum exactly to the measured migration duration.
    """
    cfg = _config_from(args, collect_trace=True)
    result = run_count_experiment(cfg)
    trace = result.migration_trace
    breakdown = trace.phase_breakdown()
    print_phase_breakdown(
        f"migration phases, {cfg.strategy}, domain {cfg.domain:,}",
        breakdown,
        max_rows=args.max_rows,
    )
    measured = sum(
        result.migration_duration(i) for i in range(len(result.migrations))
    )
    print(f"measured migration duration: {format_duration(measured)}")
    outcomes = trace.outcome_rows()
    if outcomes:
        print_table(
            "step outcomes",
            ["time", "moves", "batch", "attempts", "duration"],
            [
                (
                    o.time,
                    o.moves,
                    o.batch_size,
                    o.attempts,
                    format_duration(o.duration_s),
                )
                for o in outcomes[: args.max_rows]
            ],
        )
    if cfg.collect_topic_counts is not None:
        counts = result.topic_counts
        print_table(
            "bus events by topic",
            ["topic", "events"],
            [(t, f"{counts[t]:,}") for t in sorted(counts)]
            or [("-", "no events on the selected topics")],
        )
    return 0


def cmd_plan(args) -> int:
    """Observe a run, propose migration plans, optionally execute them.

    Runs the counting workload (skewed by default) with the closed-loop
    planner attached.  Without ``--execute`` the planner is an advisor:
    it searches and prices plans but never migrates.  ``--output`` writes
    the first gate-clearing plan as a plan_io JSON document (exit 1 if no
    plan cleared the gate).
    """
    from repro.megaphone.plan_io import dump_plan
    from repro.planner import PlannerConfig, TelemetryConfig

    values = vars(args)
    planner = PlannerConfig(
        telemetry=TelemetryConfig(**_fields(TelemetryConfig, values)),
        objective_options=(
            {"drain_workers": tuple(args.drain_workers)}
            if args.objective == "drain"
            else {}
        ),
        **_fields(PlannerConfig, values),
    )
    cfg = _config_from(args, planner=planner)
    result = run_count_experiment(cfg)
    report = result.planner
    rows = [
        (
            f"{p.at:.2f}s",
            p.moves,
            p.steps,
            format_duration(p.predicted_cost_s),
            f"{p.predicted_gain:+.2f}",
            "adopted" if p.adopted else p.reason,
        )
        for p in report.proposals
    ]
    print_table(
        f"planner decisions, objective {planner.objective}"
        + (" (propose-only)" if planner.propose_only else ""),
        ["at", "moves", "steps", "pred. cost", "gain", "verdict"],
        rows if rows else [("-", 0, 0, "-", "-", "nothing to propose")],
    )
    print(
        f"\ndecision points: {report.decisions}; proposals: "
        f"{len(report.proposals)}; adopted: {len(report.adopted)}"
    )
    print(f"final imbalance (max/mean): {result.final_imbalance:.2f}x")
    _report_obsv(result)
    if not planner.propose_only and result.migrations:
        _report(result, f"planner-driven run, objective {planner.objective}")
    if args.output:
        adopted = report.adopted
        if not adopted:
            print("no plan cleared the gate; nothing written")
            return 1
        dump_plan(adopted[0].plan, args.output)
        plan = adopted[0].plan
        print(
            f"plan written to {args.output} "
            f"({plan.total_moves} moves in {len(plan.steps)} steps)"
        )
    return 0


def cmd_chaos(args) -> int:
    """Run a fault-injection scenario against every migration strategy.

    Prints one verdict row per strategy (the watchdog's classification of
    the run) and exits non-zero if any strategy's frontier stalled — the
    Completion guarantee is the pass/fail line.
    """
    from repro.chaos.experiment import run_chaos_matrix

    cfg = _config_from(args)
    results = run_chaos_matrix(
        args.scenario,
        cfg=cfg,
        seed=args.chaos_seed,
        restart_after_s=args.restart_after,
        drop_prob=args.drop_prob,
    )
    rows = [
        (
            r.strategy,
            r.verdict,
            r.recoveries,
            r.abandoned_steps,
            r.dropped_messages,
            r.restored_bins,
        )
        for r in results
    ]
    print_table(
        f"chaos: {args.scenario} (seed {args.chaos_seed})",
        ["strategy", "verdict", "recoveries", "abandoned", "drops", "restored"],
        rows,
    )
    damaged = [
        (r.strategy, report)
        for r in results
        for report in r.result.storage_faults
    ]
    if damaged:
        print()
        print_table(
            "storage damage repaired during durable recovery",
            ["strategy", "worker", "torn", "truncated [B]", "frames", "bins"],
            [
                (
                    strategy,
                    report.worker,
                    "yes" if report.torn_frame else "no",
                    report.truncated_bytes,
                    report.frames_replayed,
                    report.bins_recovered,
                )
                for strategy, report in damaged
            ],
        )
    if cfg.record_log:
        from repro.chaos.experiment import _per_strategy_path

        logs = [_per_strategy_path(cfg.record_log, r.strategy) for r in results]
        print("\nevent logs recorded (one per strategy): " + ", ".join(logs))
    stalled = [r.strategy for r in results if not r.live]
    if stalled:
        print(f"\nFAIL: frontier stalled under {', '.join(stalled)}")
        for r in results:
            if not r.live:
                for diagnosis in r.result.chaos_diagnoses[-1:]:
                    print(diagnosis.describe())
        return 1
    print("\nall strategies drained (Completion holds under this plan)")
    return 0


def cmd_replay(args) -> int:
    """Re-execute a recorded run and verify its result fingerprint.

    Exit 0 when the replay reproduces the recorded ``result_fingerprint``
    byte-identically (and every recorded topic's event count), 1 on
    drift, 2 when the log itself is unreadable.
    """
    from repro.obsv import EventLogError, replay_run

    try:
        report = replay_run(args.log)
    except (EventLogError, OSError) as exc:
        print(f"cannot replay {args.log}: {exc}", file=sys.stderr)
        return 2
    print(f"replayed {report.path} (workload: {report.workload_kind})")
    print(f"recorded fingerprint: {report.expected_fingerprint}")
    print(f"replayed fingerprint: {report.actual_fingerprint}")
    print(
        f"records: {report.records_injected:,}; "
        f"sim events: {report.sim_events:,}"
    )
    if report.ok:
        print("replay OK: run reproduced byte-identically")
        return 0
    if not report.fingerprint_match:
        print("FAIL: result fingerprint drifted")
    drifted = report.drifted_topics
    if drifted:
        print_table(
            "drifted topics",
            ["topic", "recorded", "replayed"],
            [
                (
                    t,
                    report.expected_events.get(t, 0),
                    report.actual_events.get(t, 0),
                )
                for t in drifted
            ],
        )
    return 1


def cmd_matrix(args) -> int:
    """Run an experiment-matrix spec; check its claims; write or gate on
    the report.

    Without ``--check`` the aggregated report is written to ``--output``
    (default ``benchmarks/results/<spec stem>.json``).  With ``--check
    BASELINE`` the fresh report is compared cell-by-cell against the
    committed baseline.  The command exits 1 on any failed claim,
    fingerprint drift or failed cell.
    """
    from repro.obsv.matrix import (
        MatrixSpecError,
        check_claims,
        check_matrix,
        load_spec,
        run_matrix,
        write_matrix_report,
    )

    try:
        spec = load_spec(args.spec)
    except (MatrixSpecError, OSError) as exc:
        print(f"cannot load {args.spec}: {exc}", file=sys.stderr)
        return 2
    report = run_matrix(spec, jobs=args.jobs, spec_path=args.spec)
    print_table(
        f"experiment matrix ({len(report['cells'])} cells, mode {report['mode']})",
        ["cell", "status", "records", "migration max", "duration",
         "steady max", "p99", "max", "chaos"],
        [
            (
                row["cell"],
                row["status"],
                f"{row.get('records', 0):,}",
                format_latency(row.get("migration_max_latency_s")),
                format_duration(row.get("migration_duration_s")),
                format_latency(row.get("steady_max_latency_s")),
                format_latency(row.get("p99_latency_s")),
                format_latency(row.get("max_latency_s")),
                row.get("chaos_verdict", "-"),
            )
            for row in report["cells"]
        ],
    )
    claims = check_claims(spec, report)
    failed_claims = [c for c in claims if not c["ok"]]
    if claims:
        report["claims"] = claims
        print_table(
            f"claims ({len(claims) - len(failed_claims)} of {len(claims)} hold)",
            ["claim", "at", "lhs", "bound", "status"],
            [
                (
                    c["claim"],
                    c["at"] or "-",
                    _claim_value(c["lhs"]),
                    _claim_value(c["bound"]),
                    "holds" if c["ok"] else "FAILS",
                )
                for c in claims
            ],
        )
    for c in failed_claims:
        at = f" at {c['at']}" if c["at"] else ""
        print(
            f"FAIL: claim {c['claim']}{at}: {c['text']} "
            f"(lhs {_claim_value(c['lhs'])}, rhs {_claim_value(c['rhs'])})"
        )
    if args.check is not None:
        try:
            ok, deltas = check_matrix(report, args.check, spec)
        except (OSError, ValueError) as exc:
            print(f"cannot check against {args.check}: {exc}", file=sys.stderr)
            return 2
        print_table(
            f"matrix check vs {args.check}",
            ["cell", "committed fingerprint", "current fingerprint", "status"],
            [
                (
                    row["cell"],
                    (row["baseline_fingerprint"] or "-")[:16],
                    (row["fingerprint"] or "-")[:16],
                    row["status"],
                )
                for row in deltas
            ],
        )
        passed = sum(1 for row in deltas if row["status"] in ("ok", "new"))
        warned = sum(1 for row in deltas if row["status"] == "fingerprint-warn")
        failed = len(deltas) - passed - warned
        print(
            f"check summary: {passed} passed, {warned} warned, "
            f"{failed} failed"
        )
        if not ok:
            print("FAIL: matrix drifted from the committed baseline")
            return 1
        print("matrix check passed")
        return 1 if failed_claims else 0
    # The default never names BENCH_matrix.json: regenerating the committed
    # baseline is always an explicit --output.
    stem = os.path.splitext(os.path.basename(args.spec))[0]
    output = args.output or os.path.join("benchmarks", "results", f"{stem}.json")
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    write_matrix_report(report, output)
    print(f"matrix report written to {output}")
    failed_cells = [
        row["cell"] for row in report["cells"] if row["status"] != "ok"
    ]
    if failed_cells:
        print(f"FAIL: cells did not complete: {', '.join(failed_cells)}")
    return 1 if failed_cells or failed_claims else 0


def _claim_value(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def cmd_list(args) -> int:
    """List available workloads, strategies, backends, and codecs."""
    from repro.planner import OBJECTIVES
    from repro.state import backend_names, codec_names

    from repro.runtime_events.bus import TOPICS
    from repro.runtime_events.columns import describe_representation

    print("workloads: count (microbenchmark, uniform or skewed), "
          "nexmark (queries 1-8)")
    print(f"strategies: {', '.join(STRATEGIES)}")
    print(f"state backends: {', '.join(backend_names())}")
    print(f"codecs: {', '.join(codec_names())}")
    print(f"bus topics: {', '.join(TOPICS)}")
    print(f"batch representation: {describe_representation()}")
    print(f"planner objectives: {', '.join(OBJECTIVES)}")
    print("planner policies: closed-loop (cooldown, cost/benefit gate, "
          "SLO pacing), propose-only (advisor)")
    from repro.elastic.autoscaler import POLICIES as AUTOSCALER_POLICIES

    for name in sorted(AUTOSCALER_POLICIES):
        print(f"autoscaler policy: {name} — {AUTOSCALER_POLICIES[name]}")
    print("speed: python3 benchmarks/e2e/run.py  (host records/s, six workloads)")
    print("paper figures: matrix --spec benchmarks/paper/figNN.toml  "
          "(Figures 1 and 5-20, each with its shape claims)")
    print("benchmarks: matrix --spec benchmarks/{ablations,extensions}/NAME.toml  "
          "(ablations and extensions, with claims; Table 1 is a tier-1 test)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and print the top 25 functions "
        "by cumulative time",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="run the counting microbenchmark")
    _common_args(count)
    _parallel_arg(count)
    _obsv_args(count)
    _elastic_args(count)
    count.add_argument("--domain", type=_integer, default=1_000_000)
    count.add_argument("--bytes-per-key", type=float, default=8.0)
    count.add_argument("--native", action="store_true")
    count.set_defaults(fn=cmd_count)

    nexmark = sub.add_parser("nexmark", help="run a NEXMark query")
    _common_args(nexmark)
    _obsv_args(nexmark)
    _elastic_args(nexmark)
    nexmark.add_argument("--query", type=int, required=True, choices=range(1, 9))
    nexmark.add_argument("--dilation", type=int, default=1)
    nexmark.add_argument("--state-scale", type=float, default=1.0)
    nexmark.add_argument("--native", action="store_true")
    nexmark.set_defaults(fn=cmd_nexmark)

    scale = sub.add_parser(
        "scale",
        help="run an elastic scaling run and verify membership guarantees",
    )
    _common_args(scale)
    _obsv_args(scale)
    _elastic_args(scale)
    # Small two-process cluster with provisioned standbys: the default is
    # the acceptance scenario — scale 4 -> 6 mid-run, then drain back to 4.
    scale.set_defaults(
        num_workers=6,
        workers_per_process=2,
        num_bins=16,
        rate=2_000.0,
        duration_s=6.0,
        migrate_at_s=[],
        strategy="fluid",
        active_workers=4,
        scaling_plan="join@1.5:4,5;leave@3.5:4,5",
    )
    scale.add_argument("--domain", type=_integer, default=1 << 12)
    scale.add_argument("--bytes-per-key", type=float, default=8.0)
    scale.add_argument(
        "--verify-twin", action="store_true",
        help="also run a static-membership twin of the same config and "
        "fail unless record count and state fingerprint match exactly",
    )
    scale.set_defaults(fn=cmd_scale)

    trace = sub.add_parser(
        "trace", help="run one migration and print its per-bin phase breakdown"
    )
    _common_args(trace)
    trace.add_argument("--domain", type=_integer, default=1_000_000)
    trace.add_argument("--bytes-per-key", type=float, default=8.0)
    trace.add_argument("--max-rows", type=int, default=16)
    from repro.runtime_events.bus import TOPICS

    trace.add_argument(
        "--topics", dest="collect_topic_counts", nargs="*", choices=TOPICS,
        default=None, metavar="TOPIC",
        help="also count bus events on these topics (no names = all; "
        "see `repro.cli list` for the topic names)",
    )
    trace.set_defaults(fn=cmd_trace, strategy="fluid")

    chaos = sub.add_parser(
        "chaos", help="fault-inject every strategy and report verdicts"
    )
    _common_args(chaos)
    _obsv_args(chaos)
    from repro.chaos.experiment import (
        SCENARIOS,
        default_chaos_experiment_config,
    )

    chaos.add_argument(
        "--scenario", choices=SCENARIOS, default="crash-target",
        help="which fault plan to inject (default: crash-target)",
    )
    chaos.add_argument("--domain", type=_integer)
    chaos.add_argument("--bytes-per-key", type=float)
    chaos.add_argument(
        "--bandwidth", dest="bandwidth_bytes_per_s", type=float,
        help="link bandwidth in bytes/s (low by default so steps take time)",
    )
    chaos.add_argument(
        "--restart-after", type=float, default=None,
        help="crash-restart: seconds until the crashed process rejoins",
    )
    chaos.add_argument(
        "--drop-prob", type=float, default=0.3,
        help="lossy: per-message drop probability",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the fault plan's RNG (lossy links only)",
    )
    # Small two-process cluster with heavy state: faults land mid-migration.
    _defaults_from(chaos, default_chaos_experiment_config())
    chaos.set_defaults(fn=cmd_chaos)

    plan = sub.add_parser(
        "plan",
        help="observe load, propose migration plans, optionally execute",
    )
    _common_args(plan)
    _obsv_args(plan)
    # A planner run schedules no static migrations; the planner decides.
    plan.set_defaults(migrate_at_s=[], num_bins=64, num_workers=4, duration_s=8.0)
    from repro.planner import OBJECTIVES

    plan.add_argument(
        "--objective", choices=sorted(OBJECTIVES), default="balance",
        help="what the plan search optimizes (default: balance)",
    )
    plan.add_argument("--domain", type=_integer, default=1 << 12)
    plan.add_argument(
        "--workload", choices=WORKLOADS, default="skewed",
        help="key distribution of the observed run (default: skewed)",
    )
    plan.add_argument("--hot-keys", type=int, default=12)
    plan.add_argument("--hot-fraction", type=float, default=0.85)
    plan.add_argument("--zipf-exponent", type=float, default=0.8)
    plan.add_argument(
        "--observe-s", dest="start_s", type=float, default=1.0,
        help="simulated seconds of telemetry before the first decision",
    )
    plan.add_argument("--sample-s", type=float, default=0.25)
    plan.add_argument("--window-s", type=float, default=1.0)
    plan.add_argument("--decide-s", type=float, default=0.5)
    plan.add_argument("--cooldown-s", type=float, default=1.5)
    plan.add_argument(
        "--min-gain", type=float, default=0.05,
        help="required drop in max/mean imbalance to adopt a plan",
    )
    plan.add_argument(
        "--slo-step-s", type=float, default=0.05,
        help="per-step latency budget the step search packs within",
    )
    plan.add_argument(
        "--drain", dest="drain_workers", type=int, nargs="*", default=[],
        help="drain objective: worker ids to empty (scale-in)",
    )
    plan.add_argument(
        "--execute", dest="propose_only", action="store_false",
        help="execute adopted plans (default: propose-only advisor mode)",
    )
    plan.add_argument(
        "--output", default=None,
        help="write the first adopted plan as plan_io JSON "
        "(exit 1 if nothing cleared the gate)",
    )
    plan.set_defaults(fn=cmd_plan)

    replay = sub.add_parser(
        "replay",
        help="re-execute a recorded event log and verify its fingerprint",
    )
    replay.add_argument(
        "log", help="event log written by --record on a previous run"
    )
    replay.set_defaults(fn=cmd_replay)

    matrix = sub.add_parser(
        "matrix",
        help="sweep an experiment matrix across parallel workers",
    )
    matrix.add_argument(
        "--spec", required=True, metavar="SPEC_TOML_OR_JSON",
        help="matrix spec: [matrix] axes, [base] experiment config, "
        "[[claim]] shape claims",
    )
    matrix.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: min(cells, cpus); 0 runs inline)",
    )
    matrix.add_argument(
        "--output", default=None,
        help="where to write the aggregated report "
        "(default: benchmarks/results/<spec stem>.json)",
    )
    matrix.add_argument(
        "--check", default=None, metavar="BASELINE_JSON",
        help="compare against a committed matrix report instead of "
        "writing one; exit 1 on fingerprint drift or a failed cell",
    )
    matrix.set_defaults(fn=cmd_matrix)

    lst = sub.add_parser("list", help="list workloads and strategies")
    lst.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.profile:
            return args.fn(args)
        import cProfile
        import pstats

        profile = cProfile.Profile()
        profile.enable()
        try:
            status = args.fn(args)
        finally:
            profile.disable()
            stats = pstats.Stats(profile)
            stats.sort_stats("cumulative").print_stats(25)
        return status
    except ConfigError as exc:
        # Raised where a config is constructed: its message is the usage
        # error (exit code 2), naming the flag that wrote the field.
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        command = subparsers.choices[args.command]
        command.error(_flag_message(command, str(exc)))


def _flag_message(parser: argparse.ArgumentParser, message: str) -> str:
    """``message`` with its leading field name swapped for the flag that
    writes the field, when ``parser`` has one."""
    field = re.match(r"\w*", message).group()
    for action in parser._actions:
        if action.dest == field and action.option_strings:
            return action.option_strings[0] + message[len(field):]
    return message


if __name__ == "__main__":
    sys.exit(main())
