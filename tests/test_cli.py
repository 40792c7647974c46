"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, configure, main

CHAOS_SPEC = "benchmarks/extensions/chaos.toml"
PLANNER_SPEC = "benchmarks/extensions/planner_skew.toml"


def _sets(*items):
    """``--set`` arguments, one per ``KEY=VALUE`` item."""
    return [arg for item in items for arg in ("--set", item)]


# A four-worker, two-process, 16-bin count run of two simulated seconds.
_SMALL_RUN = _sets(
    "domain=10000", "rate=2000", "duration_s=2", "num_workers=4",
    "workers_per_process=2", "num_bins=16", "migrate_at_s=[1.0]",
)


@pytest.fixture
def repo_root(monkeypatch):
    """Run from the repository root, where the spec paths resolve."""
    import pathlib

    monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])


def test_parser_builds_and_lists():
    assert main(["list"]) == 0


def test_count_command_runs(capsys):
    code = main(["run", *_SMALL_RUN, "--set", "strategy=fluid"])
    assert code == 0
    out = capsys.readouterr().out
    assert "key-count, domain 10,000" in out
    assert "migrations" in out
    assert "steady-state max latency" in out
    # Nothing the config did not ask for.
    for table in ("migration phases", "bus events", "planner", "chaos:", "scaling"):
        assert table not in out


def test_nexmark_command_runs(capsys):
    code = main(["run", *_SMALL_RUN, "--set", "query=2"])
    assert code == 0
    assert "NEXMark Q2" in capsys.readouterr().out


def test_nexmark_rejects_unknown_query(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--set", "query=9"])
    assert excinfo.value.code == 2
    assert "query must be one of [1, 2, 3, 4, 5, 6, 7, 8], got 9" in capsys.readouterr().err


def test_trace_command_prints_phase_breakdown(capsys):
    code = main(["run", *_SMALL_RUN, "--set", "strategy=fluid", "--set", "collect_trace=true"])
    assert code == 0
    out = capsys.readouterr().out
    assert "migration phases" in out
    assert "drain" in out
    assert "catch-up" in out
    assert "measured migration duration" in out
    assert "step outcomes" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run", *_sets("num_workers=0")], "num_workers must be positive"),
        (["run", *_sets("workers_per_process=-1")], "workers_per_process must be positive"),
        (["run", *_sets("num_bins=0")], "num_bins must be positive"),
        (["run", *_sets("num_bins=12")], "num_bins must be a power of two"),
        (["run", *_sets("rate=0")], "rate must be positive"),
        (["run", *_sets("rate=-100")], "rate must be positive"),
        (["run", *_sets("duration_s=0")], "duration_s must be positive"),
        (["run", *_sets("batch_size=0")], "batch_size must be positive"),
        (["run", *_sets("granularity_ms=0")], "granularity_ms must be positive"),
        (["run", *_sets("duration_s=8.0", "migrate_at_s=[8.5]")], "outside (0, 8.0)"),
        (["run", *_sets("duration_s=8.0", "migrate_at_s=[0]")], "outside (0, 8.0)"),
        (["run", *_sets("duration_s=8.0", "migrate_at_s=[-1]")], "outside (0, 8.0)"),
        (["run", *_sets("duration_s=4.0", "migrate_at_s=[2, 5]")], "outside (0, 4.0)"),
        (["run", *_sets("query=2", "rate=0")], "rate must be positive"),
        (["run", "--spec", CHAOS_SPEC, "--cell", "none/dict/fluid", *_sets("num_bins=3")],
         "num_bins must be a power of two"),
        (["bench"], "invalid choice: 'bench'"),
        # The config's own message, which names the field.
        (["run", *_sets("parallel=2")], "forked execution (parallel=N, N >= 1) was removed"),
        (["run", *_sets("parallel=2")], "parallel=0 runs the sharded engine in-process"),
        (["run", *_sets("parallel=-1")], "got -1"),
        (["run", *_sets("parallel=0", "native=true")], "does not support the native"),
        (["run", *_sets("parallel=0", "record_log=run.jsonl")],
         "does not support event-log recording"),
        # A float in an integer field is refused before anything runs.
        (["run", *_sets("domain=1e6")], "domain must be an integer, got 1000000.0"),
        # So is a scalar in a list field.
        (["run", *_sets("migrate_at_s=3.0")], "migrate_at_s must be a list, got 3.0"),
        (["run", *_sets("collect_topic_counts=5")], "collect_topic_counts must be a list, got 5"),
        # A NEXMark table holds NexmarkConfig fields and needs a query.
        (["run", *_sets("query=3", "nexmark={dilation=7}")],
         "nexmark names unknown settings ['dilation']"),
        (["run", *_sets("nexmark={state_bytes_scale=64.0}")], "nexmark settings need a query"),
    ],
)
def test_invalid_arguments_rejected(argv, message, repo_root, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse usage-error convention
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["count"], "invalid choice: 'count'"),
        (["run", "--set", "workers=4"], "unknown ExperimentConfig field 'workers'"),
        (["run", "--set", "planner={objective="], "--set planner: '{objective=' is not"),
        (["run", "--set", "migrate_at_s=[1.0"], "is not a TOML value"),
        (["run", "--set", "domain="], "--set domain: '' is not a TOML value"),
        (["run", "--set", "migrate_at_s=[1.0]\nseed = 2"], "is not a TOML value"),
        (["run", "--spec", CHAOS_SPEC, "--cell", "meteor/dict/fluid"],
         "--cell 'meteor/dict/fluid' is not a cell of"),
        (["run", "--cell", "static"], "--cell names a cell of the --spec"),
        (["run", "--spec", "no/such/spec.toml"], "No such file or directory"),
        (["run", "--spec", "README.md"], "invalid TOML"),
        (["run", "--plan-out", "plan.json"], "--plan-out writes the planner's plan"),
        (["run", "--set", "chaos_seed=3"],
         "chaos_seed seeds a fault scenario, but faults is 'none'"),
    ],
)
def test_usage_errors_exit_2(argv, message, repo_root, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_a_float_in_a_spec_cell_integer_field_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "spec.toml"
    spec.write_text("[base]\nnum_workers = 2.0\nworkers_per_process = 2\n"
                    "[matrix]\nstrategy = [\"fluid\"]\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--spec", str(spec), "--cell", "fluid"])
    assert excinfo.value.code == 2
    assert "cell fluid breaks a config rule" in capsys.readouterr().err


def _configured(argv):
    return configure(build_parser().parse_args(["run", *argv]))


def test_set_values_are_toml_and_bare_words_are_strings():
    settings, cfg = _configured(_sets(
        "strategy=all-at-once", "scaling_plan=join@1:3", "num_workers=4",
        "workers_per_process=2", "active_workers=3", "duration_s=2",
        "collect_topic_counts=[]", "record_log=run.jsonl", "query=3",
        "nexmark={state_bytes_scale=2.0}",
    ))
    assert cfg.strategy == "all-at-once"
    assert cfg.scaling_plan.spec() == "join@1:3"
    assert cfg.collect_topic_counts == ()
    assert cfg.record_log == "run.jsonl"
    assert (cfg.query, cfg.nexmark.state_bytes_scale) == (3, 2.0)
    # Later settings win.
    assert _configured(_sets("seed=2", "seed=3"))[1].seed == 3


def test_set_table_merges_into_the_cell_key_by_key(repo_root):
    static = _configured(["--spec", PLANNER_SPEC, "--cell", "static"])[1].planner
    merged = _configured(
        ["--spec", PLANNER_SPEC, "--cell", "static", *_sets("planner={propose_only=false}")]
    )[1].planner
    assert static.propose_only and not merged.propose_only
    assert merged.telemetry == static.telemetry
    assert (merged.start_s, merged.min_gain) == (1.0, 0.05)


def test_spec_without_a_cell_starts_from_its_base(repo_root):
    from repro.chaos.experiment import default_chaos_experiment_config

    settings, cfg = _configured(["--spec", CHAOS_SPEC])
    assert "faults" not in settings
    assert cfg == default_chaos_experiment_config()


def test_boundary_migrate_at_accepted():
    # Strictly inside (0, duration) parses fine (and, with a tiny workload,
    # runs fine too).
    code = main(["run", *_SMALL_RUN, *_sets("num_workers=2", "migrate_at_s=[1.999]")])
    assert code == 0


def test_chaos_parser_defaults(repo_root):
    # The chaos spec's base is the default chaos cluster, so a cell of it
    # runs what the library's chaos experiment runs.
    from repro.chaos.experiment import default_chaos_experiment_config, scenario_chaos

    _, cfg = _configured(["--spec", CHAOS_SPEC, "--cell", "crash-target/dict/batched"])
    default = default_chaos_experiment_config()
    assert cfg.chaos == scenario_chaos("crash-target", default)
    assert (cfg.num_workers, cfg.num_bins, cfg.migrate_at_s) == (4, 16, (2.0,))
    assert cfg == default.__class__(**{**default.__dict__, "chaos": cfg.chaos})


def test_chaos_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--set", "faults=meteor"])
    assert excinfo.value.code == 2
    assert "unknown scenario 'meteor'" in capsys.readouterr().err


@pytest.mark.slow
def test_chaos_command_reports_verdicts(repo_root, capsys):
    code = main([
        "run", "--spec", CHAOS_SPEC, "--cell", "stall/dict/fluid",
        *_sets("duration_s=4", "rate=5000", "migrate_at_s=[1.5]"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "chaos: stall" in out
    # One verdict row: the cell's strategy, and no other.
    rows = [line for line in out.splitlines() if line.startswith("fluid ")]
    assert len(rows) == 1
    assert rows[0].split()[1] in ("completed", "recovered")
    for strategy in ("all-at-once", "batched", "optimized"):
        assert strategy not in out
    assert "Completion holds" in out


def test_a_stalled_fault_run_exits_1(monkeypatch, capsys):
    import repro.cli

    def stalled(*args):
        result = run_config(*args)
        result.chaos_verdict = "stalled"
        return result

    run_config = repro.cli.run_config
    monkeypatch.setattr(repro.cli, "run_config", stalled)
    code = main(["run", *_SMALL_RUN, "--set", "faults=stall"])
    out = capsys.readouterr().out
    assert code == 1
    assert "chaos: stall (seed 0)" in out
    assert "FAIL: frontier stalled under batched" in out


def test_profile_flag_wraps_other_commands(capsys):
    code = main([
        "--profile", "run", *_SMALL_RUN,
        *_sets("duration_s=1", "num_workers=2", "migrate_at_s=[0.5]"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "steady-state max latency" in out
    assert "ncalls" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        # The registry's own message, behind the field that named it.
        (_sets("state_backend=rocksdb"),
         "state_backend 'rocksdb': unknown state backend 'rocksdb'; "
         "registered: dict, tiered, wal"),
        (_sets("codec=arrow"),
         "codec 'arrow': unknown codec 'arrow'; registered: modeled, "
         "pickle, struct"),
        (_sets("query=2", "state_backend=lsm"),
         "state_backend 'lsm': unknown state backend 'lsm'"),
        (["--spec", CHAOS_SPEC, "--cell", "crash-target/dict/batched", *_sets("codec=json")],
         "codec 'json': unknown codec 'json'"),
        (["--spec", CHAOS_SPEC, "--cell", "crash-target/dict/batched",
          *_sets("state_backend=redis")],
         "state_backend 'redis': unknown"),
        (_sets("hot_capacity_bytes=0"), "hot_capacity_bytes must be positive"),
    ],
)
def test_unknown_backend_or_codec_rejected(argv, message, repo_root, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", *argv])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_count_runs_on_every_backend(capsys):
    for backend, extra in [
        ("dict", []),
        ("tiered", ["hot_capacity_bytes=20000"]),
        ("wal", []),
    ]:
        code = main([
            "run", *_SMALL_RUN,
            *_sets("num_workers=2", f"state_backend={backend}", "codec=struct", *extra),
        ])
        assert code == 0
        assert "steady-state max latency" in capsys.readouterr().out


def test_list_names_backends_and_codecs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "state backends: dict, tiered, wal" in out
    assert "codecs: modeled, pickle, struct" in out


def test_unknown_backend_error_names_wal(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--set", "state_backend=rocksdb"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "registered: dict, tiered, wal" in err


def test_count_with_wal_and_delta_migration(capsys):
    code = main([
        "run", *_SMALL_RUN,
        *_sets("num_workers=2", "state_backend=wal", "delta_migration=true"),
    ])
    assert code == 0
    assert "steady-state max latency" in capsys.readouterr().out


def test_list_names_planner_objectives(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "planner objectives: balance, drain, spread" in out
    assert "planner policies:" in out


# The planner spec's skewed workload, smaller.
_SKEWED = _sets("num_bins=32", "rate=5000", "duration_s=4")


def test_plan_command_propose_only(tmp_path, repo_root, capsys):
    plan_path = tmp_path / "plan.json"
    code = main([
        "run", "--spec", PLANNER_SPEC, "--cell", "static", *_SKEWED,
        "--plan-out", str(plan_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "planner decisions, objective balance (propose-only)" in out
    assert "final imbalance" in out
    assert f"plan written to {plan_path}" in out
    # The emitted document is a byte-valid plan_io plan with provenance.
    from repro.megaphone.plan_io import load_plan

    plan = load_plan(plan_path)
    assert plan.steps
    assert plan.provenance.source == "planner"


def test_plan_command_execute(repo_root, capsys):
    code = main([
        "run", "--spec", PLANNER_SPEC, "--cell", "planner", *_SKEWED,
        "--set", "duration_s=5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "final imbalance" in out
    assert "(propose-only)" not in out


def test_plan_out_exits_1_when_no_plan_is_adopted(tmp_path, capsys):
    # A uniform workload offers the planner nothing worth its gate.
    plan_path = tmp_path / "plan.json"
    code = main([
        "run", *_SMALL_RUN, "--set", "planner={start_s=0.5, min_gain=5.0}",
        "--plan-out", str(plan_path),
    ])
    assert code == 1
    assert "no plan cleared the gate; nothing written" in capsys.readouterr().out
    assert not plan_path.exists()


def test_plan_drain_requires_targets(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--set", 'planner={objective="drain"}', "--set", "duration_s=2"])
    assert excinfo.value.code == 2
    assert "drain_workers must name at least one worker" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (_sets("hot_keys=0"), "hot_keys must be positive"),
        (_sets("hot_fraction=1.5"), "hot_fraction must be"),
        (_sets("planner={min_gain=-1.0}"), "min_gain must be"),
    ],
)
def test_plan_invalid_arguments_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", *argv])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


# -- observability surface (repro.obsv) -----------------------------------------


def test_count_record_then_replay_roundtrip(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    code = main(["run", *_SMALL_RUN, "--set", f"record_log={log}"])
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
    assert main(["run", *_SMALL_RUN, "--set", f"record_log={log}"]) == 0
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
    assert main(["run", *_SMALL_RUN, "--set", f"record_log={log}"]) == 0
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
    code = main(["run", *_SMALL_RUN, "--set", f"export_metrics={metrics}"])
    assert code == 0
    lines = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert lines
    final = lines[-1]
    assert any(k.startswith("repro_records_total") for k in final["counters"])


def test_trace_topics_prints_event_counts(capsys):
    code = main(["run", *_SMALL_RUN, "--set", 'collect_topic_counts=["migration", "frontier"]'])
    assert code == 0
    out = capsys.readouterr().out
    assert "bus events by topic" in out
    assert "migration" in out


def test_trace_rejects_unknown_topic(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--set", 'collect_topic_counts=["bogus"]'])
    assert excinfo.value.code == 2
    assert "collect_topic_counts names unknown topics ['bogus']" in capsys.readouterr().err


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


# -- elastic membership (active_workers / scaling_plan / autoscale) -------------


def test_count_autoscale_reports_decisions(capsys):
    code = main([
        "run",
        *_sets(
            "domain=4096", "rate=4000", "duration_s=4", "num_workers=6",
            "workers_per_process=2", "num_bins=16", "active_workers=4",
            "autoscale={scale_out_load=800.0, scale_in_load=200.0, cooldown_s=1.5}",
        ),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "scaling operations" in out
    assert "autoscaler decisions" in out
    assert "scale-out" in out


_ELASTIC = ("num_workers=6", "workers_per_process=2")


@pytest.mark.parametrize(
    "argv,message",
    [
        (_sets("num_workers=6", "workers_per_process=4"), "must be divisible by"),
        (_sets(*_ELASTIC, "active_workers=9"), "active_workers must be in 1..6, got 9"),
        (_sets(*_ELASTIC, "duration_s=6", "active_workers=4", "scaling_plan=banana"),
         "scaling_plan 'banana'"),
        (_sets(*_ELASTIC, "duration_s=6", "active_workers=4", "scaling_plan=leave@2:0"),
         "worker 0 cannot leave"),
        (_sets(*_ELASTIC, "duration_s=6", "active_workers=4", "scaling_plan=join@1:5"),
         "lowest standby"),
        (_sets(*_ELASTIC, "active_workers=4", "parallel=0"), "parallel"),
        (_sets("num_workers=4", "workers_per_process=2",
               "autoscale={scale_out_load=100.0, scale_in_load=200.0}"),
         "scale_in_load must be below scale_out_load"),
    ],
)
def test_elastic_arguments_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", *argv])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


# -- the config each invocation builds ------------------------------------------

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
    "delta_migration": False,
    "collect_trace": False,
    "export_metrics": None,
    "record_log": None,
    "collect_topic_counts": None,
    "native": False,
    "seed": 1,
    "chaos": None,
    "workload": "uniform",
    "hot_keys": 8,
    "hot_fraction": 0.9,
    "zipf_exponent": 1.0,
    "query": None,
    "nexmark": None,
    "planner": None,
    "parallel": None,
    "fingerprint_state": False,
    "active_workers": None,
    "scaling_plan": None,
    "autoscale": None,
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


def _chaos(crash=None, link=None):
    """A scenario's chaos table against the default chaos cluster: one
    crash of process 1, or one link fault, 0.15 s after the 2.0 s
    migration starts."""
    crashes = [] if crash is None else [{
        "at_s": 2.15, "bit_flips": 0, "lose_unsynced_tail": False, "process": 1,
        "restart_after_s": None, "torn_write": False, **crash,
    }]
    link_faults = [] if link is None else [{
        "at_s": 2.15, "bandwidth_factor": 1.0, "dst_process": -1,
        "extra_latency_s": 0.0, "src_process": -1, **link,
    }]
    return {
        "plan": {"crashes": crashes, "link_faults": link_faults, "seed": 0, "stalls": []},
        "retry": {"backoff": 2.0, "max_attempts": 5, "timeout_s": 0.5},
        "snapshot_at_s": 1.5,
        "watchdog": {"give_up_after_s": 10.0, "poll_interval_s": 0.1, "stall_after_s": 0.75},
    }


_SCENARIO_CHAOS = {
    "crash-target": _chaos(crash={}),
    "crash-restart": _chaos(crash={"restart_after_s": 1.0}),
    "crash-storage": _chaos(crash={
        "restart_after_s": 1.0, "torn_write": True, "lose_unsynced_tail": True,
    }),
    "partition": _chaos(link={"drop_prob": 1.0, "duration_s": 0.75}),
}
# The settings that give `run` the counting defaults the retired `count`
# command had.
_COUNT = _sets(
    "num_bins=256", "domain=1000000", "rate=20000", "duration_s=8.0", "migrate_at_s=[3.0]",
)

# Each retired command with no flags, then each argument list CI runs and
# the autoscaler's settings, as `run` invocations, with the
# `config_to_dict` of the config that reaches the run call.
_BUILT_CONFIGS = {
    "count": (["run", *_COUNT], _COUNT_DEFAULT),
    "count-obsv": (
        ["run", *_sets(
            "num_workers=4", "workers_per_process=2", "num_bins=16",
            "domain=10000", "rate=5000.0", "duration_s=3.0", "migrate_at_s=[1.0]",
            "record_log=count.jsonl", "export_metrics=metrics.jsonl",
        )],
        {**_COUNT_DEFAULT, "num_workers": 4, "workers_per_process": 2,
         "num_bins": 16, "domain": 10000, "rate": 5000.0, "duration_s": 3.0,
         "migrate_at_s": [1.0], "export_metrics": "metrics.jsonl",
         "record_log": "count.jsonl"},
    ),
    "count-autoscale": (
        ["run", *_COUNT, *_sets(
            "num_workers=6", "workers_per_process=2", "num_bins=16",
            "domain=4096", "rate=4000.0", "duration_s=4.0", "active_workers=4",
            "autoscale={scale_out_load=800.0, scale_in_load=200.0, cooldown_s=1.5}",
        )],
        {**_COUNT_DEFAULT, "num_workers": 6, "workers_per_process": 2,
         "num_bins": 16, "domain": 4096, "rate": 4000.0, "duration_s": 4.0,
         "active_workers": 4,
         "autoscale": {
             "start_s": 1.0, "decide_s": 0.5,
             "scale_out_load": 800.0, "scale_in_load": 200.0,
             "trigger_samples": 2, "cooldown_s": 1.5, "min_workers": 1,
             "max_workers": 0, "step": 1,
         }},
    ),
    "nexmark": (
        ["run", *_COUNT, *_sets("query=3", "domain=65536")],
        {**_COUNT_DEFAULT, "domain": 65536, "query": 3},
    ),
    "trace": (
        ["run", *_COUNT, *_sets("strategy=fluid", "collect_trace=true")],
        {**_COUNT_DEFAULT, "strategy": "fluid", "collect_trace": True},
    ),
    "chaos": (
        ["run", "--spec", CHAOS_SPEC, "--cell", "crash-target/dict/batched"],
        {**_CHAOS_DEFAULT, "chaos": _SCENARIO_CHAOS["crash-target"]},
    ),
    **{
        f"chaos-{scenario}-{backend}": (
            ["run", "--spec", CHAOS_SPEC, "--cell", f"{scenario}/{backend}/batched"],
            {**_CHAOS_DEFAULT, "state_backend": backend,
             "chaos": _SCENARIO_CHAOS[scenario]},
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
        ["run", "--spec", CHAOS_SPEC, "--cell", "crash-restart/dict/batched",
         *_sets("duration_s=4.0", "record_log=chaos.jsonl")],
        {**_CHAOS_DEFAULT, "duration_s": 4.0, "record_log": "chaos.jsonl",
         "chaos": _SCENARIO_CHAOS["crash-restart"]},
    ),
    "plan": (
        ["run", "--spec", PLANNER_SPEC, "--cell", "static",
         "--set", "workers_per_process=4"],
        _PLAN_DEFAULT,
    ),
    "plan-skewed": (
        ["run", "--spec", PLANNER_SPEC, "--cell", "static",
         *_sets("workers_per_process=4", "num_bins=32", "rate=5000", "duration_s=4"),
         "--plan-out", "plan.json"],
        {**_PLAN_DEFAULT, "num_bins": 32, "rate": 5000.0, "duration_s": 4.0},
    ),
}


class _Built(Exception):
    """Carries the config an invocation built out of its run call."""


def _capture(cfg):
    raise _Built(cfg)


@pytest.mark.parametrize("case", list(_BUILT_CONFIGS))
def test_commands_build_the_pinned_config(case, repo_root, monkeypatch):
    import json

    import repro.cli
    from repro.obsv.eventlog import config_to_dict

    monkeypatch.setattr(repro.cli, "run_config", _capture)
    argv, expected = _BUILT_CONFIGS[case]
    with pytest.raises(_Built) as built:
        main(argv)
    # As an event log's header writes it (the chaos table's tuples as lists).
    assert json.loads(json.dumps(config_to_dict(built.value.args[0]))) == expected
