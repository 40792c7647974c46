"""Command-line interface for running reproduction experiments.

Usage (module form)::

    python -m repro.cli run                        # ExperimentConfig defaults
    python -m repro.cli run --set strategy=fluid --set num_bins=4096 --set domain=1000000000
    python -m repro.cli run --set query=5 --set strategy=batched --set dilation=60
    python -m repro.cli run --set query=3 --set 'nexmark={state_bytes_scale=64.0}'
    python -m repro.cli run --set collect_trace=true     # per-bin phase breakdown
    python -m repro.cli run --spec benchmarks/extensions/planner_skew.toml --cell planner
    python -m repro.cli run --spec benchmarks/extensions/chaos.toml --cell stall/dict/fluid
    python -m repro.cli run --set active_workers=6 --set scaling_plan=join@2:6,7
    python -m repro.cli run --set record_log=run.jsonl   # record an event log
    python -m repro.cli replay run.jsonl               # verify it reproduces
    python -m repro.cli matrix --spec benchmarks/paper/fig07.toml  # a figure
    python -m repro.cli list

``run`` builds one :class:`ExperimentConfig` from settings: a spec's
``[base]`` (or nothing), then the ``--cell`` it names, then each ``--set
KEY=VALUE`` in order.  KEY is a config field (``query`` and a ``nexmark``
table run a NEXMark query) or ``faults``/``chaos_seed``, which name a fault
scenario that expands into the ``chaos`` table; VALUE is TOML, a bare word
is a string, and a table merges key by key.  The settings take the path a
matrix cell takes, and the config decides the report: the latency timeline
and migrations always; the scaling tables for elastic runs; the phase
breakdown for ``collect_trace``; topic counts for ``collect_topic_counts``;
the planner's decisions for ``planner``; the chaos verdict for ``chaos``
(exit 1 if the run stalled).

``--profile`` (before the subcommand) wraps any command in cProfile and
prints the top 25 functions by cumulative time after the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tomllib

from repro.errors import ConfigError
from repro.harness.report import format_duration, format_latency, print_run_report, print_table
from repro.megaphone.migration import STRATEGIES
from repro.obsv.eventlog import OBSERVER_FIELDS, config_from_dict
from repro.obsv.matrix import expand_cells, load_spec, merge_settings
from repro.obsv.replay import run_config


def configure(args):
    """``(settings, config)`` from ``run``'s arguments.

    Every problem with them — a bad spec or cell, an unknown key, a VALUE
    that is not TOML, a broken config rule — raises :class:`ConfigError`.
    """
    settings = {}
    if args.spec is not None:
        try:
            spec = load_spec(args.spec)
        except (OSError, ValueError) as exc:  # MatrixSpecError
            raise ConfigError(f"cannot load {args.spec}: {exc}") from None
        settings = spec["base"]
        if args.cell is not None:
            cells = {cell.cell_id: cell.settings for cell in expand_cells(spec)}
            if args.cell not in cells:
                raise ConfigError(
                    f"--cell {args.cell!r} is not a cell of {args.spec}; "
                    f"its cells are {', '.join(cells)}"
                )
            settings = cells[args.cell]
    elif args.cell is not None:
        raise ConfigError("--cell names a cell of the --spec, and none is given")
    for item in args.sets:
        key, _, text = item.partition("=")
        settings = merge_settings(settings, {key: _value(key, text)})
    # config_from_dict strips the observers; a run observes what it asks.
    observers = {k: settings[k] for k in OBSERVER_FIELDS if k in settings}
    try:
        cfg = dataclasses.replace(config_from_dict(settings), **observers)
    except ValueError as exc:  # EventLogError: a broken rule, an unknown key
        raise ConfigError(str(exc)) from None
    return settings, cfg


def _value(key: str, text: str):
    """A ``--set`` VALUE: TOML, or a bare word taken as a string."""
    try:
        document = tomllib.loads(f"value = {text}")
    except tomllib.TOMLDecodeError:
        if text and text[0] not in "[{\"'" and not any(c.isspace() for c in text):
            return text
        document = {}
    if list(document) != ["value"]:
        raise ConfigError(f"--set {key}: {text!r} is not a TOML value")
    return document["value"]


def cmd_run(args) -> int:
    """Run one config and print the report its settings ask for."""
    settings, cfg = configure(args)
    if args.plan_out is not None and cfg.planner is None:
        raise ConfigError("--plan-out writes the planner's plan; set planner={...}")
    result = run_config(cfg)
    title = f"NEXMark Q{cfg.query}" if cfg.query else f"key-count, domain {cfg.domain:,}"
    print_run_report(result, title)
    status = 0
    if args.plan_out is not None:
        status = _write_plan(result.planner, args.plan_out)
    if cfg.chaos is not None:
        scenario = settings.get("faults", "chaos table")
        status = _report_chaos(result, scenario, cfg.chaos.plan.seed) or status
    if cfg.record_log:
        print(f"event log recorded to {cfg.record_log} "
              f"(verify: python -m repro.cli replay {cfg.record_log})")
    return status


def _write_plan(report, path: str) -> int:
    """Write the first adopted plan to ``path``; 1 if none was adopted."""
    from repro.megaphone.plan_io import dump_plan

    if not report.adopted:
        print("no plan cleared the gate; nothing written")
        return 1
    plan = report.adopted[0].plan
    dump_plan(plan, path)
    print(f"plan written to {path} ({plan.total_moves} moves in {len(plan.steps)} steps)")
    return 0


def _report_chaos(result, scenario: str, seed: int) -> int:
    """The fault run's verdict row and storage repairs; 1 if it stalled."""
    from repro.chaos.experiment import chaos_summary

    run = chaos_summary(scenario, result)
    print_table(
        f"chaos: {scenario} (seed {seed})",
        ["strategy", "verdict", "recoveries", "abandoned", "drops", "restored"],
        [(run.strategy, run.verdict, run.recoveries, run.abandoned_steps,
          run.dropped_messages, run.restored_bins)],
    )
    if result.storage_faults:
        print()
        print_table(
            "storage damage repaired during durable recovery",
            ["worker", "torn", "truncated [B]", "frames", "bins"],
            [
                (r.worker, "yes" if r.torn_frame else "no", r.truncated_bytes,
                 r.frames_replayed, r.bins_recovered)
                for r in result.storage_faults
            ],
        )
    if not run.live:
        print(f"\nFAIL: frontier stalled under {run.strategy}")
        for diagnosis in result.chaos_diagnoses[-1:]:
            print(diagnosis.describe())
        return 1
    print("\nthe frontier drained (Completion holds under this plan)")
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
    print(f"replayed {report.path}")
    print(f"recorded fingerprint: {report.expected_fingerprint}")
    print(f"replayed fingerprint: {report.actual_fingerprint}")
    print(f"records: {report.records_injected:,}; sim events: {report.sim_events:,}")
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
                (t, report.expected_events.get(t, 0), report.actual_events.get(t, 0))
                for t in drifted
            ],
        )
    return 1


def cmd_matrix(args) -> int:
    """Run an experiment-matrix spec; check its claims; write or gate on
    the report.

    The aggregated report is written to ``--output`` (default
    ``benchmarks/results/<spec stem>.json``).  With ``--check BASELINE``
    the fresh report is also compared cell-by-cell against the committed
    baseline; a baseline cell the sweep no longer has fails as
    ``missing``.  The command exits 1 on any failed claim, fingerprint
    drift, missing or failed cell.
    """
    from repro.obsv.matrix import (
        MatrixSpecError,
        check_claims,
        check_matrix,
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
            (row["cell"], row["status"], f"{row.get('records', 0):,}",
             format_latency(row.get("migration_max_latency_s")),
             format_duration(row.get("migration_duration_s")),
             *(format_latency(row.get(f"{m}_latency_s")) for m in ("steady_max", "p99", "max")),
             row.get("chaos_verdict", "-"))
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
                (c["claim"], c["at"] or "-", _claim_value(c["lhs"]),
                 _claim_value(c["bound"]), "holds" if c["ok"] else "FAILS")
                for c in claims
            ],
        )
    for c in failed_claims:
        at = f" at {c['at']}" if c["at"] else ""
        print(
            f"FAIL: claim {c['claim']}{at}: {c['text']} "
            f"(lhs {_claim_value(c['lhs'])}, rhs {_claim_value(c['rhs'])})"
        )
    # The baseline is read before the report is written, so a check never
    # compares a sweep with itself.
    checked = None
    if args.check is not None:
        try:
            checked = check_matrix(report, args.check, spec)
        except (OSError, ValueError) as exc:
            print(f"cannot check against {args.check}: {exc}", file=sys.stderr)
            return 2
    # The default never names BENCH_matrix.json: regenerating the committed
    # baseline is always an explicit --output.
    stem = os.path.splitext(os.path.basename(args.spec))[0]
    output = args.output or os.path.join("benchmarks", "results", f"{stem}.json")
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    write_matrix_report(report, output)
    print(f"matrix report written to {output}")
    if checked is not None:
        ok, deltas = checked
        print_table(
            f"matrix check vs {args.check}",
            ["cell", "committed fingerprint", "current fingerprint", "status"],
            [
                (row["cell"], (row["baseline_fingerprint"] or "-")[:16],
                 (row["fingerprint"] or "-")[:16], row["status"])
                for row in deltas
            ],
        )
        passed = sum(1 for row in deltas if row["status"] in ("ok", "new"))
        warned = sum(1 for row in deltas if row["status"] == "fingerprint-warn")
        failed = len(deltas) - passed - warned
        print(f"check summary: {passed} passed, {warned} warned, {failed} failed")
        if not ok:
            print("FAIL: matrix drifted from the committed baseline")
            return 1
        print("matrix check passed")
        return 1 if failed_claims else 0
    failed_cells = [row["cell"] for row in report["cells"] if row["status"] != "ok"]
    if failed_cells:
        print(f"FAIL: cells did not complete: {', '.join(failed_cells)}")
    return 1 if failed_cells or failed_claims else 0


def _claim_value(value) -> str:
    """A claim side for a table cell: a number, or a fingerprint's prefix."""
    if value is None:
        return "-"
    return value[:16] if isinstance(value, str) else f"{value:.6g}"


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
    print("speed: python3 benchmarks/e2e/run.py  (host records/s, six workloads)")
    print("paper figures: matrix --spec benchmarks/paper/figNN.toml  "
          "(Figures 1 and 5-20, each with its shape claims)")
    print("benchmarks: matrix --spec benchmarks/{ablations,extensions}/NAME.toml  "
          "(ablations and extensions, with claims; Table 1 is a tier-1 test)")
    print("robustness and elasticity: matrix --spec "
          "benchmarks/extensions/{chaos,elastic}.toml  (every fault scenario "
          "x strategy x backend; join/drain and autoscaling vs a static twin)")
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

    run = sub.add_parser("run", help="run one experiment config and report it")
    run.add_argument(
        "--spec", default=None, metavar="SPEC_TOML_OR_JSON",
        help="start from this matrix spec's [base]",
    )
    run.add_argument(
        "--cell", default=None, metavar="LABEL",
        help="then apply this cell's overrides (its id as `matrix` prints it)",
    )
    run.add_argument(
        "--set", dest="sets", action="append", default=[], metavar="KEY=VALUE",
        help="then set KEY, an ExperimentConfig field or a fault scenario's "
        "faults/chaos_seed, to VALUE: TOML, where a bare word is a string "
        "and a table merges key by key; repeatable",
    )
    run.add_argument(
        "--plan-out", default=None, metavar="PATH",
        help="write the planner's first adopted plan as plan_io JSON "
        "(exit 1 if none was adopted)",
    )
    run.set_defaults(fn=cmd_run)

    replay = sub.add_parser(
        "replay",
        help="re-execute a recorded event log and verify its fingerprint",
    )
    replay.add_argument(
        "log", help="event log a run recorded with --set record_log=PATH"
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
        help="also compare against a committed matrix report (or pin); "
        "exit 1 on fingerprint drift or a missing or failed cell",
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
        # A usage error (exit code 2); the message names the field.
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        subparsers.choices[args.command].error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
