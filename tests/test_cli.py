"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_builds_and_lists():
    assert main(["list"]) == 0


def test_count_command_runs(capsys):
    code = main([
        "count", "--domain", "10000", "--rate", "2000", "--duration", "2",
        "--workers", "4", "--workers-per-process", "2", "--bins", "16",
        "--migrate-at", "1.0", "--strategy", "fluid",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "migrations" in out
    assert "steady-state max latency" in out


def test_nexmark_command_runs(capsys):
    code = main([
        "nexmark", "--query", "2", "--rate", "2000", "--duration", "2",
        "--workers", "4", "--workers-per-process", "2", "--bins", "16",
        "--migrate-at", "1.0",
    ])
    assert code == 0
    assert "NEXMark Q2" in capsys.readouterr().out


def test_nexmark_rejects_unknown_query():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nexmark", "--query", "9"])


def test_trace_command_prints_phase_breakdown(capsys):
    code = main([
        "trace", "--domain", "10000", "--rate", "2000", "--duration", "2",
        "--workers", "4", "--workers-per-process", "2", "--bins", "16",
        "--migrate-at", "1.0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "migration phases" in out
    assert "drain" in out
    assert "catch-up" in out
    assert "measured migration duration" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["count", "--workers", "0"], "--workers must be positive"),
        (["count", "--workers-per-process", "-1"],
         "--workers-per-process must be positive"),
        (["count", "--bins", "0"], "--bins must be positive"),
        (["count", "--bins", "12"], "--bins must be a power of two"),
        (["count", "--rate", "0"], "--rate must be positive"),
        (["count", "--rate", "-100"], "--rate must be positive"),
        (["count", "--duration", "0"], "--duration must be positive"),
        (["count", "--batch-size", "0"], "--batch-size must be positive"),
        (["count", "--granularity-ms", "0"], "--granularity-ms must be positive"),
        (["count", "--duration", "8", "--migrate-at", "8.5"], "outside (0, 8.0)"),
        (["count", "--duration", "8", "--migrate-at", "0"], "outside (0, 8.0)"),
        (["count", "--duration", "8", "--migrate-at", "-1"], "outside (0, 8.0)"),
        (["trace", "--duration", "4", "--migrate-at", "2", "5"],
         "outside (0, 4.0)"),
        (["nexmark", "--query", "2", "--rate", "0"], "--rate must be positive"),
        (["chaos", "--bins", "3"], "--bins must be a power of two"),
        (["bench"], "invalid choice: 'bench'"),
        # The config's own message, not a CLI restatement of it.
        (["count", "--parallel", "2"],
         "forked execution (--parallel N, N >= 1) was removed"),
        (["count", "--parallel", "2"],
         "--parallel 0 runs the sharded engine in-process"),
        (["count", "--parallel", "-1"], "got -1"),
        (["count", "--parallel", "0", "--native"],
         "does not support the native"),
        (["count", "--parallel", "0", "--record", "run.jsonl"],
         "does not support event-log recording"),
    ],
)
def test_invalid_arguments_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse usage-error convention
    assert message in capsys.readouterr().err


def test_boundary_migrate_at_accepted():
    # Strictly inside (0, duration) parses fine (and, with a tiny workload,
    # runs fine too).
    code = main([
        "count", "--domain", "10000", "--rate", "2000", "--duration", "2",
        "--workers", "2", "--workers-per-process", "2", "--bins", "16",
        "--migrate-at", "1.999",
    ])
    assert code == 0


def test_chaos_parser_defaults():
    args = build_parser().parse_args(["chaos"])
    assert args.scenario == "crash-target"
    assert args.num_workers == 4
    assert args.num_bins == 16
    assert args.migrate_at_s == (2.0,)


def test_chaos_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--scenario", "meteor"])


@pytest.mark.slow
def test_chaos_command_reports_verdicts(capsys):
    code = main([
        "chaos", "--scenario", "stall", "--duration", "4",
        "--rate", "5000", "--migrate-at", "1.5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "chaos: stall" in out
    for strategy in ("all-at-once", "fluid", "batched", "optimized"):
        assert strategy in out
    assert "Completion holds" in out


def test_profile_flag_wraps_other_commands(capsys):
    code = main([
        "--profile", "count", "--domain", "10000", "--rate", "2000",
        "--duration", "1", "--workers", "2", "--workers-per-process", "2",
        "--bins", "16", "--migrate-at", "0.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "steady-state max latency" in out
    assert "ncalls" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        # The registry's own message, behind the flag that named it.
        (["count", "--state-backend", "rocksdb"],
         "--state-backend 'rocksdb': unknown state backend 'rocksdb'; "
         "registered: dict, sorted-log, tiered"),
        (["count", "--codec", "arrow"],
         "--codec 'arrow': unknown codec 'arrow'; registered: modeled, "
         "pickle, struct"),
        (["nexmark", "--query", "2", "--state-backend", "lsm"],
         "--state-backend 'lsm': unknown state backend 'lsm'"),
        (["chaos", "--codec", "json"], "--codec 'json': unknown codec 'json'"),
        (["scale", "--state-backend", "redis"],
         "--state-backend 'redis': unknown"),
        (["count", "--hot-capacity", "0"], "--hot-capacity must be positive"),
    ],
)
def test_unknown_backend_or_codec_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_count_runs_on_every_backend(capsys):
    for backend, extra in [
        ("sorted-log", []),
        ("tiered", ["--hot-capacity", "20000"]),
        ("wal", []),
    ]:
        code = main([
            "count", "--domain", "10000", "--rate", "2000", "--duration", "2",
            "--workers", "2", "--workers-per-process", "2", "--bins", "16",
            "--migrate-at", "1.0", "--state-backend", backend,
            "--codec", "struct", *extra,
        ])
        assert code == 0
        assert "steady-state max latency" in capsys.readouterr().out


def test_list_names_backends_and_codecs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "state backends: dict, sorted-log, tiered, wal" in out
    assert "codecs: modeled, pickle, struct" in out


def test_unknown_backend_error_names_wal(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--state-backend", "rocksdb"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "registered: dict, sorted-log, tiered, wal" in err


def test_count_with_wal_and_delta_migration(capsys):
    code = main([
        "count", "--domain", "10000", "--rate", "2000", "--duration", "2",
        "--workers", "2", "--workers-per-process", "2", "--bins", "16",
        "--migrate-at", "1.0", "--state-backend", "wal", "--delta-migration",
    ])
    assert code == 0
    assert "steady-state max latency" in capsys.readouterr().out


def test_list_names_planner_objectives(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "planner objectives: balance, drain, spread" in out
    assert "planner policies:" in out


def test_plan_command_propose_only(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    code = main([
        "plan", "--domain", "4096", "--rate", "5000", "--duration", "4",
        "--workers", "4", "--workers-per-process", "2", "--bins", "32",
        "--output", str(plan_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "decision" in out
    assert "final imbalance" in out
    # The emitted document is a byte-valid plan_io plan with provenance.
    from repro.megaphone.plan_io import load_plan

    plan = load_plan(plan_path)
    assert plan.steps
    assert plan.provenance.source == "planner"


def test_plan_command_execute(capsys):
    code = main([
        "plan", "--domain", "4096", "--rate", "5000", "--duration", "5",
        "--workers", "4", "--workers-per-process", "2", "--bins", "32",
        "--execute",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "final imbalance" in out


def test_plan_drain_requires_targets(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "--objective", "drain", "--duration", "2"])
    assert excinfo.value.code == 2
    assert "--drain" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["plan", "--hot-keys", "0"], "--hot-keys must be positive"),
        (["plan", "--hot-fraction", "1.5"], "--hot-fraction must be"),
        (["plan", "--min-gain", "-1"], "--min-gain must be"),
    ],
)
def test_plan_invalid_arguments_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


# -- observability surface (repro.obsv) -----------------------------------------

_SMALL_RUN = [
    "--domain", "10000", "--rate", "2000", "--duration", "2",
    "--workers", "4", "--workers-per-process", "2", "--bins", "16",
    "--migrate-at", "1.0",
]


def test_count_record_then_replay_roundtrip(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    code = main(["count", *_SMALL_RUN, "--record", str(log)])
    assert code == 0
    assert "event log recorded" in capsys.readouterr().out
    code = main(["replay", str(log)])
    out = capsys.readouterr().out
    assert code == 0
    assert "replay OK" in out
    assert "recorded fingerprint" in out


def test_replay_missing_log_exits_2(capsys):
    code = main(["replay", "/nonexistent/run.jsonl"])
    assert code == 2
    assert "cannot replay" in capsys.readouterr().err


def test_replay_detects_fingerprint_drift(tmp_path, capsys):
    import json

    log = tmp_path / "run.jsonl"
    assert main(["count", *_SMALL_RUN, "--record", str(log)]) == 0
    lines = log.read_text().splitlines()
    footer = json.loads(lines[-1])
    footer["result_fingerprint"] = "0" * 64
    lines[-1] = json.dumps(footer)
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["replay", str(log)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL: result fingerprint drifted" in out


def test_replay_rejects_a_header_that_breaks_a_config_rule(tmp_path, capsys):
    import json

    log = tmp_path / "run.jsonl"
    assert main(["count", *_SMALL_RUN, "--record", str(log)]) == 0
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["rate"] = 0
    lines[0] = json.dumps(header)
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["replay", str(log)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot replay" in err
    assert "rate must be positive" in err


def test_count_export_metrics_writes_snapshots(tmp_path, capsys):
    import json

    metrics = tmp_path / "metrics.jsonl"
    code = main(["count", *_SMALL_RUN, "--export-metrics", str(metrics)])
    assert code == 0
    lines = [json.loads(l) for l in metrics.read_text().splitlines()]
    assert lines
    final = lines[-1]
    assert any(k.startswith("repro_records_total") for k in final["counters"])


def test_trace_topics_prints_event_counts(capsys):
    code = main(["trace", *_SMALL_RUN, "--topics", "migration", "frontier"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bus events by topic" in out
    assert "migration" in out


def test_trace_rejects_unknown_topic(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "--topics", "bogus"])


def test_list_names_bus_topics(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bus topics:" in out
    assert "migration" in out
    assert "faults" in out


_MATRIX_SPEC = """
[matrix]
strategy = ["batched", "all-at-once"]

[base]
num_workers = 2
workers_per_process = 2
num_bins = 4
domain = 256
rate = 5000.0
duration_s = 1.0
migrate_at_s = [0.4]
"""


def test_matrix_command_writes_report(tmp_path, capsys):
    import json

    spec = tmp_path / "spec.toml"
    spec.write_text(_MATRIX_SPEC)
    output = tmp_path / "BENCH_matrix.json"
    code = main(["matrix", "--spec", str(spec), "--jobs", "0",
                 "--output", str(output)])
    out = capsys.readouterr().out
    assert code == 0
    assert "experiment matrix (2 cells" in out
    report = json.loads(output.read_text())
    assert report["schema"] == "bench-matrix/2"
    assert len(report["cells"]) == 2


def test_matrix_check_passes_and_fails(tmp_path, capsys):
    import json

    spec = tmp_path / "spec.toml"
    spec.write_text(_MATRIX_SPEC)
    baseline = tmp_path / "BENCH_matrix.json"
    assert main(["matrix", "--spec", str(spec), "--jobs", "0",
                 "--output", str(baseline)]) == 0
    capsys.readouterr()
    code = main(["matrix", "--spec", str(spec), "--jobs", "0",
                 "--check", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0
    assert "matrix check passed" in out
    assert "check summary:" in out
    # Zero one committed fingerprint: that cell drifted, exit 1 — even
    # when the baseline was written by another interpreter patch release.
    report = json.loads(baseline.read_text())
    report["cells"][0]["result_fingerprint"] = "0" * 64
    report["machine"]["python"] = "3.12.4"
    baseline.write_text(json.dumps(report))
    code = main(["matrix", "--spec", str(spec), "--jobs", "0",
                 "--check", str(baseline)])
    out = capsys.readouterr().out
    assert code == 1
    assert "fingerprint-drift" in out
    assert "1 failed" in out
    assert "FAIL: matrix drifted" in out


def test_matrix_default_output_leaves_the_baseline_alone(
    tmp_path, monkeypatch, capsys
):
    import json

    spec = tmp_path / "sweep.toml"
    spec.write_text(_MATRIX_SPEC)
    monkeypatch.chdir(tmp_path)
    committed = tmp_path / "BENCH_matrix.json"
    committed.write_bytes(b"the committed baseline\n")
    assert main(["matrix", "--spec", str(spec), "--jobs", "0"]) == 0
    assert "written to benchmarks/results/sweep.json" in capsys.readouterr().out
    assert committed.read_bytes() == b"the committed baseline\n"
    report = json.loads((tmp_path / "benchmarks/results/sweep.json").read_text())
    assert len(report["cells"]) == 2


def test_matrix_rejects_bad_spec(tmp_path, capsys):
    spec = tmp_path / "bad.toml"
    spec.write_text("not a matrix spec [")
    code = main(["matrix", "--spec", str(spec)])
    assert code == 2
    assert "cannot load" in capsys.readouterr().err


# -- elastic membership (repro.cli scale / --autoscale) -------------------------


def test_scale_command_verifies_twin(capsys):
    code = main(["scale", "--verify-twin"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scaling operations" in out
    assert "membership transitions" in out
    assert "cluster state fingerprint" in out
    assert "twin check: fingerprint and record count match" in out
    assert "scaling guarantees hold" in out


def test_count_autoscale_reports_decisions(capsys):
    code = main([
        "count", "--domain", "4096", "--rate", "4000", "--duration", "4",
        "--workers", "6", "--workers-per-process", "2", "--bins", "16",
        "--active", "4", "--autoscale",
        "--scale-out-load", "800", "--scale-in-load", "200",
        "--autoscale-cooldown", "1.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "autoscaler decisions" in out
    assert "scale-out" in out


def test_list_names_autoscaler_policies(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "autoscaler policy: threshold" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["count", "--workers", "6", "--workers-per-process", "4"],
         "must be divisible by"),
        (["count", "--workers", "6", "--workers-per-process", "2",
          "--active", "9"], "--active"),
        (["count", "--workers", "6", "--workers-per-process", "2",
          "--duration", "6", "--active", "4",
          "--scaling-plan", "banana"], "--scaling-plan"),
        (["count", "--workers", "6", "--workers-per-process", "2",
          "--duration", "6", "--active", "4",
          "--scaling-plan", "leave@2:0"], "worker 0 cannot leave"),
        (["count", "--workers", "6", "--workers-per-process", "2",
          "--duration", "6", "--active", "4",
          "--scaling-plan", "join@1:5"], "lowest standby"),
        (["count", "--workers", "6", "--workers-per-process", "2",
          "--active", "4", "--parallel", "0"], "parallel"),
        (["count", "--workers", "4", "--workers-per-process", "2",
          "--autoscale", "--scale-out-load", "100",
          "--scale-in-load", "200"], "--scale-in-load"),
    ],
)
def test_elastic_arguments_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


# -- the config each command builds ---------------------------------------------

# `count` with no flags, as `config_to_dict` writes it.
_COUNT_DEFAULT = {
    "num_workers": 8,
    "workers_per_process": 4,
    "num_bins": 256,
    "domain": 1000000,
    "rate": 20000,
    "duration_s": 8.0,
    "granularity_ms": 10,
    "dilation": 1,
    "migrate_at_s": [3.0],
    "strategy": "batched",
    "batch_size": 16,
    "gap_s": 0.0,
    "pace_s": None,
    "variant": "key",
    "bytes_per_key": 8.0,
    "bandwidth_bytes_per_s": 1250000000.0,
    "network_latency_s": 4e-05,
    "sample_memory": False,
    "memory_sample_s": 0.25,
    "state_backend": "dict",
    "codec": "modeled",
    "hot_capacity_bytes": None,
    "wal_segment_bytes": 65536,
    "wal_compact_threshold": 512,
    "wal_sync_every": 1,
    "delta_migration": False,
    "collect_trace": False,
    "export_metrics": None,
    "metrics_port": None,
    "metrics_flush_s": 0.25,
    "record_log": None,
    "collect_topic_counts": None,
    "native": False,
    "seed": 1,
    "chaos": None,
    "workload": "uniform",
    "hot_keys": 8,
    "hot_fraction": 0.9,
    "zipf_exponent": 1.0,
    "planner": None,
    "parallel": None,
    "fingerprint_state": False,
    "active_workers": None,
    "scaling_plan": None,
    "autoscale": None,
}
_SCALE_DEFAULT = {
    **_COUNT_DEFAULT,
    "num_workers": 6, "workers_per_process": 2, "num_bins": 16,
    "domain": 4096, "rate": 2000.0, "duration_s": 6.0, "migrate_at_s": [],
    "strategy": "fluid", "fingerprint_state": True, "active_workers": 4,
    "scaling_plan": "join@1.5:4,5;leave@3.5:4,5",
}
_CHAOS_DEFAULT = {
    **_COUNT_DEFAULT,
    "num_workers": 4, "workers_per_process": 2, "num_bins": 16,
    "domain": 4096, "duration_s": 6.0, "migrate_at_s": [2.0],
    "batch_size": 4, "bytes_per_key": 2048.0,
    "bandwidth_bytes_per_s": 4000000.0,
}
_PLAN_DEFAULT = {
    **_COUNT_DEFAULT,
    "num_workers": 4, "num_bins": 64, "domain": 4096, "migrate_at_s": [],
    "workload": "skewed", "hot_keys": 12, "hot_fraction": 0.85,
    "zipf_exponent": 0.8,
    "planner": {
        "objective": "balance",
        "telemetry": {
            "sample_s": 0.25, "window_s": 1.0, "trigger_ratio": 1.5,
            "release_ratio": 1.2, "trigger_samples": 2, "release_samples": 2,
        },
        "decide_s": 0.5, "start_s": 1.0, "stop_s": None, "cooldown_s": 1.5,
        "min_gain": 0.05, "max_cost_s": None, "slo_step_s": 0.05,
        "max_moves": None, "propose_only": True, "gap_s": 0.0,
        "objective_options": {},
    },
}

# Each command with no flags, then each argument list CI runs, with the
# `config_to_dict` of the config it builds.
_BUILT_CONFIGS = {
    "count": (["count"], _COUNT_DEFAULT),
    "count-obsv": (
        ["count", "--workers", "4", "--workers-per-process", "2",
         "--bins", "16", "--domain", "10000", "--rate", "5000",
         "--duration", "3", "--migrate-at", "1.0", "--record", "count.jsonl",
         "--export-metrics", "metrics.jsonl"],
        {**_COUNT_DEFAULT, "num_workers": 4, "workers_per_process": 2,
         "num_bins": 16, "domain": 10000, "rate": 5000.0, "duration_s": 3.0,
         "migrate_at_s": [1.0], "export_metrics": "metrics.jsonl",
         "record_log": "count.jsonl"},
    ),
    "count-autoscale": (
        ["count", "--workers", "6", "--workers-per-process", "2",
         "--bins", "16", "--domain", "4096", "--rate", "4000",
         "--duration", "4", "--active", "4", "--autoscale",
         "--scale-out-load", "800", "--scale-in-load", "200",
         "--autoscale-cooldown", "1.5"],
        {**_COUNT_DEFAULT, "num_workers": 6, "workers_per_process": 2,
         "num_bins": 16, "domain": 4096, "rate": 4000.0, "duration_s": 4.0,
         "active_workers": 4,
         "autoscale": {
             "policy": "threshold", "start_s": 1.0, "decide_s": 0.5,
             "stop_s": None, "scale_out_load": 800.0, "scale_in_load": 200.0,
             "trigger_samples": 2, "cooldown_s": 1.5, "min_workers": 1,
             "max_workers": 0, "step": 1,
         }},
    ),
    "nexmark": (["nexmark", "--query", "3"], {**_COUNT_DEFAULT, "domain": 65536}),
    "scale": (["scale"], _SCALE_DEFAULT),
    "scale-twin-dict": (
        ["scale", "--verify-twin", "--state-backend", "dict"], _SCALE_DEFAULT
    ),
    "scale-twin-wal": (
        ["scale", "--verify-twin", "--state-backend", "wal"],
        {**_SCALE_DEFAULT, "state_backend": "wal"},
    ),
    "trace": (
        ["trace"], {**_COUNT_DEFAULT, "strategy": "fluid", "collect_trace": True}
    ),
    "chaos": (["chaos"], _CHAOS_DEFAULT),
    **{
        f"chaos-{scenario}-{backend}": (
            ["chaos", "--scenario", scenario, "--state-backend", backend],
            {**_CHAOS_DEFAULT, "state_backend": backend},
        )
        for scenario, backends in (
            ("crash-target", ("dict", "tiered", "wal")),
            ("crash-restart", ("dict", "tiered", "wal")),
            ("partition", ("dict", "tiered", "wal")),
            ("crash-storage", ("wal",)),
        )
        for backend in backends
    },
    "chaos-record": (
        ["chaos", "--scenario", "crash-restart", "--duration", "4",
         "--record", "chaos.jsonl"],
        {**_CHAOS_DEFAULT, "duration_s": 4.0, "record_log": "chaos.jsonl"},
    ),
    "plan": (["plan"], _PLAN_DEFAULT),
    "plan-skewed": (
        ["plan", "--workload", "skewed", "--workers", "4", "--bins", "32",
         "--domain", "4096", "--rate", "5000", "--duration", "4",
         "--output", "plan.json"],
        {**_PLAN_DEFAULT, "num_bins": 32, "rate": 5000.0, "duration_s": 4.0},
    ),
}


class _Built(Exception):
    """Carries the config a command built out of its run call."""


def _capture(*args, **kwargs):
    from repro.harness.experiment import ExperimentConfig

    for value in (*args, *kwargs.values()):
        if isinstance(value, ExperimentConfig):
            raise _Built(value)
    raise AssertionError("the run call carried no ExperimentConfig")


@pytest.mark.parametrize("case", list(_BUILT_CONFIGS))
def test_commands_build_the_pinned_config(case, monkeypatch):
    import repro.chaos.experiment
    import repro.cli
    from repro.obsv.eventlog import config_to_dict

    monkeypatch.setattr(repro.cli, "run_count_experiment", _capture)
    monkeypatch.setattr(repro.cli, "run_nexmark_experiment", _capture)
    monkeypatch.setattr(repro.chaos.experiment, "run_chaos_matrix", _capture)
    argv, expected = _BUILT_CONFIGS[case]
    with pytest.raises(_Built) as built:
        main(argv)
    assert config_to_dict(built.value.args[0]) == expected
