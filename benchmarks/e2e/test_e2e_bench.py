"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src pytest benchmarks/e2e -q`` (tier-1's ``testpaths``
do not include this directory).  pytest puts this directory on ``sys.path``,
so the benchmark's modules import by their plain names, as they do when
``run.py`` and ``child.py`` run as scripts.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
import run
import trace as ledger
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- BENCHMARK.json ----------------------------------------------------------------


def test_manifest_declares_what_the_benchmark_defines():
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_manifest_is_within_the_contract_limits():
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in MANIFEST["workloads"]]
    for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        names.append(entry["name"])
        assert unit_ok.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    assert all(name_ok.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in MANIFEST["end_to_end"]
    )
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert 1 <= MANIFEST["run_seconds"] <= 60


def test_answers_are_pinned_for_seeds_1_and_2():
    answers = json.loads((HERE / "answers.json").read_text())
    assert set(answers) == set(workloads.WORKLOADS)
    for digests in answers.values():
        assert set(digests) == {"1", "2"}
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())


def test_a_wrong_answer_fails_every_record_of_the_run():
    import child

    api = child.entry_points()

    def run(seed):
        kwargs = workloads.config_kwargs("count_bulk", seed=seed, smoke=True)
        return api["count"](child.make_config(api, kwargs, fingerprint_state=True))

    result = run(1)
    digest = metrics.answer_digest(result)
    good = child.Verifier(pinned=digest)
    good.check(result, "warm-up", full_digest=digest)
    assert (good.attempted, good.failed, good.problems) == (result.records_injected, 0, [])
    # A repeat whose timeline differs from the warm-up's is wrong as a whole.
    good.check(run(2), "repeat 1")
    assert good.failed == result.records_injected and len(good.problems) == 1
    bad = child.Verifier(pinned="0" * 64)
    bad.check(result, "warm-up", full_digest=digest)
    assert bad.failed == result.records_injected and "pinned" in bad.problems[0]


# -- span arithmetic ------------------------------------------------------------------


def test_self_time_is_duration_minus_children_on_a_synthetic_tree():
    now = [0]
    tracer = ledger.Tracer(clock=lambda: now[0])

    def spend(ns):
        now[0] += ns

    leaf = tracer.wrap(lambda: spend(10), "leaf")

    def middle_body():
        spend(5)
        leaf()
        spend(5)
        leaf()

    middle = tracer.wrap(middle_body, "middle")

    def root_body():
        spend(100)
        middle()
        spend(1)
        leaf()

    tracer.wrap(root_body, "root")()
    # calls, total, self
    assert tracer.stats["leaf"] == [3, 30, 30]
    assert tracer.stats["middle"] == [1, 30, 10]
    assert tracer.stats["root"] == [1, 141, 101]
    assert tracer.self_ns("leaf", "middle", "root") == 141
    # Spans are kept in start order, each naming its parent's index.
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("root", -1), ("middle", 0), ("leaf", 1), ("leaf", 1), ("leaf", 0),
    ]
    assert tracer.spans[2][1:3] == (105, 115)


def test_wrapper_cost_is_charged_to_no_layer():
    now = [0]
    tracer = ledger.Tracer(clock=lambda: now[0])
    tracer.overhead_ns = 3

    def spend(ns):
        now[0] += ns

    child = tracer.wrap(lambda: spend(10), "child")

    def root_body():
        child()
        spend(3)  # what the wrapper itself cost the caller
        child()
        spend(3)

    tracer.wrap(root_body, "root")()
    assert tracer.stats["root"] == [1, 26, 0]
    rows = {row["name"]: row for row in tracer.ledger("root")}
    assert rows["trace.wrappers"]["self_ns"] == 6
    assert sum(row["self_ns"] for row in rows.values()) == 26


def test_span_cap_bounds_memory_but_not_the_accounting():
    tracer = ledger.Tracer(clock=iter(range(10**6)).__next__, span_cap=2)
    fn = tracer.wrap(lambda: None, "f")
    for _ in range(5):
        fn()
    assert len(tracer.spans) == 2
    assert tracer.stats["f"][0] == 5


def test_prefix_sums_do_not_match_sibling_names():
    tracer = ledger.Tracer()
    tracer.stats["sim.network.send"] = [2, 20, 20]
    tracer.stats["sim.network.shard_send"] = [1, 5, 5]
    tracer.stats["sim.network.send.x"] = [1, 1, 1]
    assert tracer.calls("sim.network.send") == 3
    assert tracer.self_ns("sim.network") == 26


# -- patching -------------------------------------------------------------------------


def _patched_attributes():
    """(owner, attribute) for every class attribute the tracer replaces."""
    owners = []
    for module_name, cls_name, attrs, _name in ledger._METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        owners.extend((cls, attr) for attr in attrs)
    columns = importlib.import_module("repro.runtime_events.columns")
    operators = importlib.import_module("repro.megaphone.operators")
    owners += [(columns, "bin_ids_for"), (columns, "merge_segments"),
               (operators, "merge_segments")]
    return owners


def test_every_patch_is_restored_after_a_traced_run():
    import child

    before = {(o, a): vars(o)[a] for o, a in _patched_attributes()}
    tracer = ledger.Tracer()
    with ledger.tracing(tracer) as patches:
        assert patches.replaced()
        assert all(vars(o)[a] is not before[(o, a)] for o, a in before)
        api = child.entry_points()
        kwargs = workloads.config_kwargs("count_migrating", seed=1, smoke=True)
        run = tracer.wrap(api["count"], ledger.ROOT)
        result = run(child.make_config(api, kwargs))
    assert not patches.replaced()
    assert all(vars(o)[a] is before[(o, a)] for o, a in before)
    # The traced run went through the wrappers: the layers show up.
    for name in ("sim.engine", "timely.worker.activation", "megaphone.f.on_input",
                 "megaphone.s.on_notify", "harness.source.tick", "state.extract.store"):
        assert tracer.stats[name][0] > 0, name
    assert tracer.counters["migration.BinStateExtracted"] == 64
    layer = ledger.layer_metrics(tracer, result, 0.5, 10)
    assert layer["runtime_events.records_per_batch"] == 500
    assert 0 <= layer["trace.unattributed_share"] < 1


def test_patches_are_restored_when_the_run_raises():
    from repro.sim.engine import Simulator

    original = vars(Simulator)["run"]
    try:
        with ledger.tracing(ledger.Tracer()):
            assert vars(Simulator)["run"] is not original
            raise KeyError("boom")
    except KeyError:
        pass
    assert vars(Simulator)["run"] is original


# -- the command ------------------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_the_declared_end_to_end_metrics():
    done = _run("--smoke", "--workload", "count_paper", "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = _last_json(done)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] != 0 for v in line["metrics"].values())
    for name in declared:
        assert name in done.stdout  # printed by name in the readable part too


def test_smoke_trace_prints_the_declared_per_layer_metrics():
    done = _run("--smoke", "--workload", "nexmark_q3", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    line = _last_json(done)
    assert line["correct"] is True
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["nexmark.q3_self_ns_per_record"] > 0
    assert values["parallel.rounds"] == 0  # inactive layer
    assert values["state.wal_frames_per_record"] == 0
    trace_file = json.loads((HERE / "out" / "trace-nexmark_q3.json").read_text())
    assert trace_file["columns"] == ["name", "start_ns", "end_ns", "parent"]
    assert 0 < len(trace_file["spans"]) <= trace_file["span_cap"]


def test_without_the_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "count_bulk", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


# -- compare ------------------------------------------------------------------------------


def _result(records_per_s, samples, window_max=1.0, commit="a" * 40):
    values = {"records_per_s": records_per_s, "setup_s": 0.5, "peak_rss_mb": 50.0,
              "sim_events_per_record": 0.05, "sim_window_max_latency_ms": window_max,
              "sim_steady_time_share": 1.0, "failed_fraction": 0.0}
    entry = {"values": values,
             "samples": {"records_per_s": samples, "setup_s": [0.5, 0.5, 0.5]}}
    return {"provenance": {"git_commit": commit},
            "workloads": {"count_bulk": {"end_to_end": entry}}}


def _compare(tmp_path, a, b):
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    return run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"))


def test_compare_accepts_equal_sets(tmp_path, capsys):
    a = _result(1000.0, [990.0, 1000.0, 995.0, 998.0])
    assert _compare(tmp_path, a, a) == 0
    assert "0 out of bound, 0 unresolved" in capsys.readouterr().out


def test_compare_rejects_a_metric_out_of_bound(tmp_path, capsys):
    a = _result(1000.0, [990.0, 1000.0, 995.0, 998.0])
    slower = _result(600.0, [598.0, 600.0, 599.0, 597.0])
    assert _compare(tmp_path, a, slower) == 1
    assert "OUT OF BOUND" in capsys.readouterr().out
    # Simulated metrics are exact: 11% more latency is out of a 10% bound.
    worse = _result(1000.0, [990.0, 1000.0, 995.0, 998.0], window_max=1.11)
    assert _compare(tmp_path, a, worse) == 1
    # Better is never a regression.
    assert _compare(tmp_path, slower, a) == 0


def test_compare_marks_a_noisy_pair_unresolved(tmp_path, capsys):
    a = _result(1000.0, [500.0, 1000.0, 700.0, 950.0])
    b = _result(600.0, [598.0, 600.0, 599.0, 597.0])
    assert _compare(tmp_path, a, b) == 0
    out = capsys.readouterr().out
    assert "unresolved" in out and "0 out of bound, 1 unresolved" in out
