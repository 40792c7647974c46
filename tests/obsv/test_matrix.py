"""Tests for the experiment-matrix runner and its regression gate."""

import json
import pathlib

import pytest

from repro.obsv.matrix import (
    MatrixSpecError,
    cell_config,
    check_claims,
    check_matrix,
    expand_cells,
    load_spec,
    run_matrix,
    write_matrix_report,
)

SPEC_TOML = """
[matrix]
strategy = ["batched", "all-at-once"]
state_backend = ["dict"]
workload = ["uniform", "skewed"]

[base]
num_workers = 2
workers_per_process = 2
num_bins = 4
domain = 256
rate = 5000.0
duration_s = 1.0
migrate_at_s = [0.4]
"""

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML)
    return load_spec(str(path))


def test_load_spec_defaults_missing_axes(spec):
    # A field no axis and no [base] key sets keeps its config default.
    cfg = cell_config(expand_cells(spec)[0])
    assert cfg.codec == "modeled"
    assert cfg.chaos is None


def test_load_spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"matrix": {"strategy": ["fluid"]}}))
    spec = load_spec(str(path))
    assert spec["matrix"]["strategy"] == ["fluid"]


@pytest.mark.parametrize(
    "body",
    [
        "x = 1",  # no [matrix] table
        "[matrix]\nstrategy = []",  # empty axis
        "[matrix]\nstrategy = [1]",  # non-string values
        "[matrix]\nstrategy = ['bogus']",  # unknown strategy
        "[matrix]\nbackend = ['bogus']",  # unknown backend
        "[matrix]\nfaults = ['bogus']",  # unknown scenario
        "[matrix]\nstrategy = ['batched']\n[base]\nnope = 1",  # bad base key
        "[matrix]\nstrategy = ['batched']\n[base]\nrate = 0",  # breaks a rule
        "this is not toml [",  # parse error
        "[matrix]\nstrategy = ['batched']\n[tolerance]\ndefault = 0.6",  # stale
    ],
)
def test_bad_specs_are_rejected(tmp_path, body):
    path = tmp_path / "bad.toml"
    path.write_text(body)
    # Every error surfaces at load, before any cell runs.
    with pytest.raises(MatrixSpecError) as excinfo:
        load_spec(str(path))
    if "[tolerance]" in body:
        # Ignoring the table would silently drop a gate its author expects.
        assert "benchmarks/e2e" in str(excinfo.value)


def test_expand_cells_is_the_cartesian_product(spec):
    cells = expand_cells(spec)
    assert len(cells) == 4  # 2 strategies x 1 backend x 2 workloads
    assert cells[0].values == {
        "strategy": "batched", "state_backend": "dict", "workload": "uniform",
    }
    assert cells[0].cell_id == "batched/dict/uniform"
    assert [c.cell_id for c in cells[1:]] == [
        "batched/dict/skewed", "all-at-once/dict/uniform", "all-at-once/dict/skewed",
    ]


def test_inline_and_forked_runs_agree_on_fingerprints(spec):
    inline = run_matrix(spec, jobs=0)
    forked = run_matrix(spec, jobs=2)
    assert inline["mode"] == "inline"
    assert forked["mode"].startswith("forked/")
    assert all(r["status"] == "ok" for r in inline["cells"])
    # No cell field is wall-clock, so the whole rows agree, not only the
    # fingerprints: a regenerated baseline diffs clean unless behaviour moved.
    assert inline["cells"] == forked["cells"]


def test_committed_baseline_matches_a_fresh_sweep():
    """The repo-root BENCH_matrix.json is a tier-1 gate, not only a CI job."""
    spec = load_spec(str(REPO_ROOT / "benchmarks" / "matrix_smoke.toml"))
    report = run_matrix(spec, jobs=0)
    _, rows = check_matrix(report, str(REPO_ROOT / "BENCH_matrix.json"), spec)
    assert len(rows) == 8
    assert [r for r in rows if r["status"] != "ok"] == []


def test_check_matrix_passes_against_own_baseline(spec, tmp_path):
    report = run_matrix(spec, jobs=0)
    baseline = tmp_path / "BENCH_matrix.json"
    write_matrix_report(report, str(baseline))
    ok, rows = check_matrix(report, str(baseline), spec)
    assert ok
    assert all(r["status"] == "ok" for r in rows)


def test_check_matrix_flags_fingerprint_drift(spec, tmp_path):
    report = run_matrix(spec, jobs=0)
    drifted = json.loads(json.dumps(report))
    drifted["cells"][0]["result_fingerprint"] = "0" * 64
    baseline = tmp_path / "drifted.json"
    write_matrix_report(drifted, str(baseline))
    ok, rows = check_matrix(report, str(baseline), spec)
    assert not ok
    assert rows[0]["status"] == "fingerprint-drift"
    # Regression: the gate used to demand an identical python_version(), so
    # CI (3.12 vs a 3.11.7 baseline) could never fail.  A modeled cell's
    # drift fails whatever interpreter wrote the baseline.
    drifted["machine"]["python"] = "0.0.0"
    write_matrix_report(drifted, str(baseline))
    ok, rows = check_matrix(report, str(baseline), spec)
    assert ok is False
    assert rows[0]["status"] == "fingerprint-drift"


def test_check_matrix_downgrades_on_different_machine(tmp_path):
    # A pickle cell's bytes are the interpreter's choice: its drift gates
    # between interpreters of one major.minor and only warns across them.
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML.replace('backend = ["dict"]',
                                      'backend = ["dict"]\ncodec = ["pickle"]'))
    pickled = load_spec(str(path))
    report = run_matrix(pickled, jobs=0)
    other = json.loads(json.dumps(report))
    other["cells"][0]["result_fingerprint"] = "0" * 64
    baseline = tmp_path / "other.json"
    write_matrix_report(other, str(baseline))
    ok, rows = check_matrix(report, str(baseline), pickled)
    assert not ok
    assert rows[0]["status"] == "fingerprint-drift"
    other["machine"]["python"] = "0.0.0"
    write_matrix_report(other, str(baseline))
    ok, rows = check_matrix(report, str(baseline), pickled)
    assert ok
    assert [r["status"] for r in rows] == ["fingerprint-warn", "ok", "ok", "ok"]


def test_check_matrix_marks_new_cells(spec, tmp_path):
    report = run_matrix(spec, jobs=0)
    pruned = json.loads(json.dumps(report))
    pruned["cells"] = pruned["cells"][1:]
    baseline = tmp_path / "pruned.json"
    write_matrix_report(pruned, str(baseline))
    ok, rows = check_matrix(report, str(baseline), spec)
    assert ok  # a new cell is informational, not a failure
    assert rows[0]["status"] == "new"


def test_check_matrix_rejects_wrong_schema(spec, tmp_path):
    report = run_matrix(spec, jobs=0)
    wrong = {"schema": "event-log/2", "cells": []}
    baseline = tmp_path / "wrong.json"
    baseline.write_text(json.dumps(wrong))
    with pytest.raises(ValueError, match="bench-matrix"):
        check_matrix(report, str(baseline), spec)


def test_fault_cells_carry_chaos_verdicts(tmp_path):
    path = tmp_path / "faults.toml"
    path.write_text(
        """
[matrix]
strategy = ["batched"]
faults = ["none", "crash-restart"]

[base]
num_workers = 4
workers_per_process = 2
num_bins = 16
domain = 4096
rate = 20000.0
duration_s = 4.0
migrate_at_s = [2.0]
batch_size = 4
bytes_per_key = 2048.0
bandwidth_bytes_per_s = 4e6
"""
    )
    spec = load_spec(str(path))
    report = run_matrix(spec, jobs=0)
    rows = {r["cell"]: r for r in report["cells"]}
    plain = rows["batched/none"]
    faulty = rows["batched/crash-restart"]
    assert "chaos_verdict" not in plain
    assert faulty["status"] == "ok"
    assert faulty["chaos_verdict"] in ("completed", "recovered")


def test_memory_and_planner_cells_carry_their_claim_metrics(tmp_path):
    path = tmp_path / "memory.toml"
    path.write_text(
        SPEC_TOML.replace('strategy = ["batched", "all-at-once"]', 'strategy = ["all-at-once"]')
        .replace('workload = ["uniform", "skewed"]', 'run = [{ name = "memory", '
                 'sample_memory = true, memory_sample_s = 0.1 }, { name = "planner", '
                 'planner = { propose_only = true } }]')
    )
    memory, planner = run_matrix(load_spec(str(path)), jobs=0)["cells"]
    assert memory["migration_steps"] == 1  # all-at-once: one step
    assert memory["steady_rss_bytes"] > 0
    assert memory["rss_overshoot_bytes"] >= 0
    assert memory["peak_spilled_bytes"] == 0  # a flat backend never spills
    assert "final_imbalance" not in memory
    assert planner["final_imbalance"] >= 1.0
    assert "steady_rss_bytes" not in planner


def test_worker_error_is_a_structured_row(spec):
    # load_spec rejects an unknown base key; one added after the load must
    # still surface as a per-cell error row, not a crash of the sweep.
    spec["base"]["bogus_field"] = 1
    report = run_matrix(spec, jobs=2)
    assert all(r["status"] == "error" for r in report["cells"])
    assert "ExperimentConfig" in report["cells"][0]["error"]


def test_fingerprint_gate_reads_the_codec_from_the_cell_config(tmp_path):
    # The codec sits in [base], on no axis, so no cell id names it: the
    # gate must still see a pickle cell and only warn across interpreters.
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML + 'codec = "pickle"\n')
    spec = load_spec(str(path))
    report = run_matrix(spec, jobs=0)
    other = json.loads(json.dumps(report))
    other["cells"][0]["result_fingerprint"] = "0" * 64
    other["machine"]["python"] = "0.0.0"
    baseline = tmp_path / "other.json"
    write_matrix_report(other, str(baseline))
    ok, rows = check_matrix(report, str(baseline), spec)
    assert ok
    assert rows[0]["cell"] == "batched/dict/uniform"
    assert rows[0]["status"] == "fingerprint-warn"


def test_load_spec_builds_every_cell_config(tmp_path):
    # The first cell is valid; the second breaks the bin rule.  The load
    # fails, naming the cell, before anything runs.
    path = tmp_path / "bins.toml"
    path.write_text(SPEC_TOML.replace('state_backend = ["dict"]', "num_bins = [4, 12]"))
    with pytest.raises(MatrixSpecError, match="cell batched/12/uniform .*num_bins"):
        load_spec(str(path))


def test_load_spec_rejects_a_float_in_an_integer_field(tmp_path):
    # TOML writes 1e4 as a float; the config refuses it at load, not mid-run.
    path = tmp_path / "domain.toml"
    path.write_text(SPEC_TOML.replace("domain = 256", "domain = 1e4"))
    with pytest.raises(
        MatrixSpecError, match="cell batched/dict/uniform .*domain must be an integer, got 10000.0"
    ):
        load_spec(str(path))


def test_label_axes_and_extends_build_cells(tmp_path):
    (tmp_path / "cluster.toml").write_text(
        "[base]\nnum_workers = 2\nworkers_per_process = 2\nrate = 5000.0\n"
        "[base.cost]\nrecord_cost = 1e-6\nroute_cost = 2e-7\n"
    )
    path = tmp_path / "fig.toml"
    path.write_text(
        """
extends = "cluster.toml"

[base]
num_bins = 4
duration_s = 1.0
migrate_at_s = [0.4]
cost = { route_cost = 3e-7 }

[matrix]
run = [
  { name = "migrating", strategy = "all-at-once" },
  { name = "native", native = true, migrate_at_s = [] },
]
"""
    )
    cells = expand_cells(load_spec(str(path)))
    assert [c.cell_id for c in cells] == ["migrating", "native"]
    migrating, native = (cell_config(c) for c in cells)
    assert (migrating.strategy, migrating.native) == ("all-at-once", False)
    assert (native.migrate_at_s, native.native) == ((), True)
    # Nested tables merge key by key down the extends chain.
    assert (migrating.cost.record_cost, migrating.cost.route_cost) == (1e-6, 3e-7)


_CLAIMED = SPEC_TOML + """
[[claim]]
id = "same-records"
lhs = { metric = "records", where = { strategy = "batched", workload = "uniform" } }
op = ">="
factor = 1
rhs = { metric = "records", where = { strategy = "all-at-once", workload = "uniform" } }
"""


@pytest.mark.parametrize(
    "claim, message",
    [
        (  # a selector that matches no cell
            'where = { strategy = "fluid" }', "matches no cell"
        ),
        (  # several cells and no aggregate
            "where = {}", 'matches 4 cells; say agg = "max" or "min"'
        ),
        ('where = { backend = "dict" }', "where names no axis"),
    ],
)
def test_claim_selectors_are_checked_at_load(tmp_path, claim, message):
    path = tmp_path / "claimed.toml"
    path.write_text(
        _CLAIMED.replace('where = { strategy = "batched", workload = "uniform" }', claim)
    )
    with pytest.raises(MatrixSpecError, match=message):
        load_spec(str(path))


def test_claim_above_the_measured_ratio_fails_naming_both_values(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "claimed.toml"
    path.write_text(_CLAIMED)
    out = tmp_path / "report.json"
    argv = ["matrix", "--spec", str(path), "--jobs", "0", "--output", str(out)]
    assert main(argv) == 0  # 5,000 records on each side: the ratio is 1
    assert json.loads(out.read_text())["claims"][0]["ok"] is True
    path.write_text(_CLAIMED.replace("factor = 1\n", "factor = 1.5\n"))
    assert main(argv) == 1
    failures = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL: claim")
    ]
    assert failures == [
        "FAIL: claim same-records: records[strategy=batched, workload=uniform] "
        ">= 1.5 * records[strategy=all-at-once, workload=uniform] "
        "(lhs 5000, rhs 5000)"
    ]


def test_for_each_reports_the_failing_axis_value(tmp_path):
    path = tmp_path / "rates.toml"
    path.write_text(
        SPEC_TOML.replace('state_backend = ["dict"]', "rate = [5000.0, 10000.0]")
        + """
[[claim]]
id = "few-records"
for_each = "rate"
lhs = { metric = "records", where = { strategy = "batched", workload = "uniform" } }
op = "<"
rhs = 7500
"""
    )
    spec = load_spec(str(path))
    results = check_claims(spec, run_matrix(spec, jobs=0))
    assert [(r["at"], r["ok"], r["lhs"]) for r in results] == [
        ("rate=5000.0", True, 5000),
        ("rate=10000.0", False, 10000),
    ]


def test_nexmark_cell_matches_a_direct_run(tmp_path):
    from repro.nexmark.config import NexmarkConfig
    from repro.nexmark.harness import run_nexmark_experiment
    from repro.harness.experiment import result_fingerprint

    path = tmp_path / "q3.toml"
    path.write_text(
        SPEC_TOML.replace('workload = ["uniform", "skewed"]\n', "")
        .replace('strategy = ["batched", "all-at-once"]', 'strategy = ["batched"]')
        + "query = 3\nnexmark = { state_bytes_scale = 64.0 }\n"
    )
    spec = load_spec(str(path))
    (row,) = run_matrix(spec, jobs=0)["cells"]
    cfg = cell_config(expand_cells(spec)[0])
    assert (cfg.query, cfg.nexmark) == (3, NexmarkConfig(state_bytes_scale=64.0))
    direct = run_nexmark_experiment(3, cfg)
    assert row["status"] == "ok"
    assert row["result_fingerprint"] == result_fingerprint(direct)


_ELASTIC = """
[base]
num_workers = 4
workers_per_process = 2
num_bins = 16
domain = 1024
rate = 2000.0
duration_s = 3.0
migrate_at_s = []
strategy = "fluid"

[matrix]
run = [
  { name = "scaled", active_workers = 2, scaling_plan = "join@1:2,3;leave@2:2,3" },
  { name = "twin", active_workers = 2 },
  { name = "wider", active_workers = 2, domain = 2048 },
  { name = "static" },
]

[[claim]]
id = "state-equals-twin"
lhs = { metric = "cluster_fingerprint", where = { run = "scaled" } }
op = "=="
rhs = { metric = "cluster_fingerprint", where = { run = "twin" } }
"""


@pytest.fixture(scope="module")
def elastic_sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("elastic") / "elastic.toml"
    path.write_text(_ELASTIC)
    spec = load_spec(str(path))
    return spec, run_matrix(spec, jobs=0)


def test_equality_claim_over_cluster_fingerprints_holds(elastic_sweep):
    spec, report = elastic_sweep
    (result,) = check_claims(spec, report)
    assert result["ok"] is True
    assert result["lhs"] == result["rhs"] == result["bound"]
    assert len(result["lhs"]) == 64


def test_failed_equality_claim_prints_both_fingerprint_prefixes(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "elastic.toml"
    path.write_text(_ELASTIC.replace('where = { run = "twin" }', 'where = { run = "wider" }'))
    out = tmp_path / "report.json"
    assert main(["matrix", "--spec", str(path), "--jobs", "0", "--output", str(out)]) == 1
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["ok"] is False
    (failure,) = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL: claim")
    ]
    assert failure == (
        "FAIL: claim state-equals-twin: cluster_fingerprint[run=scaled] == "
        f"cluster_fingerprint[run=wider] (lhs {claim['lhs'][:16]}, "
        f"rhs {claim['rhs'][:16]})"
    )


@pytest.mark.parametrize(
    "change",
    [
        ('op = "=="', 'op = "<="'),  # an ordering op
        ('op = "=="', 'op = "=="\nfactor = 2'),
        ('op = "=="', 'op = "=="\nslack = 1'),
        (  # a number on the other side
            'rhs = { metric = "cluster_fingerprint", where = { run = "twin" } }',
            "rhs = 0",
        ),
    ],
)
def test_string_metrics_compare_only_by_equality(tmp_path, change):
    path = tmp_path / "elastic.toml"
    path.write_text(_ELASTIC.replace(*change))
    with pytest.raises(MatrixSpecError, match="compares only by =="):
        load_spec(str(path))


def test_only_elastic_cells_carry_fingerprint_and_residual_bins(elastic_sweep):
    _spec, report = elastic_sweep
    rows = {row["cell"]: row for row in report["cells"]}
    for cell in ("scaled", "twin", "wider"):
        assert rows[cell]["status"] == "ok"
        assert rows[cell]["residual_bins"] == 0
        assert len(rows[cell]["cluster_fingerprint"]) == 64
    assert "residual_bins" not in rows["static"]
    assert "cluster_fingerprint" not in rows["static"]


def test_only_elastic_cells_count_their_final_active_workers(elastic_sweep):
    _spec, report = elastic_sweep
    rows = {row["cell"]: row for row in report["cells"]}
    # "scaled" joined workers 2 and 3, then drained them again.
    for cell in ("scaled", "twin", "wider"):
        assert rows[cell]["final_active_workers"] == 2
    assert "final_active_workers" not in rows["static"]
