"""Tests for the experiment-matrix runner and its regression gate."""

import json
import pathlib

import pytest

from repro.obsv.matrix import (
    MatrixCell,
    MatrixSpecError,
    check_matrix,
    expand_cells,
    load_spec,
    run_matrix,
    write_matrix_report,
)

SPEC_TOML = """
[matrix]
strategy = ["batched", "all-at-once"]
backend = ["dict"]
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
    assert spec["matrix"]["codec"] == ["modeled"]
    assert spec["matrix"]["faults"] == ["none"]


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
    assert cells[0] == MatrixCell(
        strategy="batched", backend="dict", codec="modeled",
        workload="uniform", faults="none",
    )
    assert cells[0].cell_id == "batched/dict/modeled/uniform/none"


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
    _, rows = check_matrix(report, str(REPO_ROOT / "BENCH_matrix.json"))
    assert len(rows) == 8
    assert [r for r in rows if r["status"] != "ok"] == []


def test_check_matrix_passes_against_own_baseline(spec, tmp_path):
    report = run_matrix(spec, jobs=0)
    baseline = tmp_path / "BENCH_matrix.json"
    write_matrix_report(report, str(baseline))
    ok, rows = check_matrix(report, str(baseline))
    assert ok
    assert all(r["status"] == "ok" for r in rows)


def test_check_matrix_flags_fingerprint_drift(spec, tmp_path):
    report = run_matrix(spec, jobs=0)
    drifted = json.loads(json.dumps(report))
    drifted["cells"][0]["result_fingerprint"] = "0" * 64
    baseline = tmp_path / "drifted.json"
    write_matrix_report(drifted, str(baseline))
    ok, rows = check_matrix(report, str(baseline))
    assert not ok
    assert rows[0]["status"] == "fingerprint-drift"
    # Regression: the gate used to demand an identical python_version(), so
    # CI (3.12 vs a 3.11.7 baseline) could never fail.  A modeled cell's
    # drift fails whatever interpreter wrote the baseline.
    drifted["machine"]["python"] = "0.0.0"
    write_matrix_report(drifted, str(baseline))
    ok, rows = check_matrix(report, str(baseline))
    assert ok is False
    assert rows[0]["status"] == "fingerprint-drift"


def test_check_matrix_downgrades_on_different_machine(tmp_path):
    # A pickle cell's bytes are the interpreter's choice: its drift gates
    # between interpreters of one major.minor and only warns across them.
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML.replace('backend = ["dict"]',
                                      'backend = ["dict"]\ncodec = ["pickle"]'))
    report = run_matrix(load_spec(str(path)), jobs=0)
    other = json.loads(json.dumps(report))
    other["cells"][0]["result_fingerprint"] = "0" * 64
    baseline = tmp_path / "other.json"
    write_matrix_report(other, str(baseline))
    ok, rows = check_matrix(report, str(baseline))
    assert not ok
    assert rows[0]["status"] == "fingerprint-drift"
    other["machine"]["python"] = "0.0.0"
    write_matrix_report(other, str(baseline))
    ok, rows = check_matrix(report, str(baseline))
    assert ok
    assert [r["status"] for r in rows] == ["fingerprint-warn", "ok", "ok", "ok"]


def test_check_matrix_marks_new_cells(spec, tmp_path):
    report = run_matrix(spec, jobs=0)
    pruned = json.loads(json.dumps(report))
    pruned["cells"] = pruned["cells"][1:]
    baseline = tmp_path / "pruned.json"
    write_matrix_report(pruned, str(baseline))
    ok, rows = check_matrix(report, str(baseline))
    assert ok  # a new cell is informational, not a failure
    assert rows[0]["status"] == "new"


def test_check_matrix_rejects_wrong_schema(spec, tmp_path):
    report = run_matrix(spec, jobs=0)
    wrong = {"schema": "event-log/2", "cells": []}
    baseline = tmp_path / "wrong.json"
    baseline.write_text(json.dumps(wrong))
    with pytest.raises(ValueError, match="bench-matrix"):
        check_matrix(report, str(baseline))


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
    plain = rows["batched/dict/modeled/uniform/none"]
    faulty = rows["batched/dict/modeled/uniform/crash-restart"]
    assert "chaos_verdict" not in plain
    assert faulty["status"] == "ok"
    assert faulty["chaos_verdict"] in ("completed", "recovered")


def test_worker_error_is_a_structured_row(spec):
    # An unknown base key passes load_spec (it is validated lazily) and
    # must surface as a per-cell error row, not a crash of the sweep.
    spec["base"]["bogus_field"] = 1
    report = run_matrix(spec, jobs=2)
    assert all(r["status"] == "error" for r in report["cells"])
    assert "ExperimentConfig" in report["cells"][0]["error"]
