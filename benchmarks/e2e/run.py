"""One benchmark for host speed and simulated latency.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Runs the six workloads of ``workloads.py`` against the public entry points
``run_count_experiment`` / ``run_nexmark_experiment``, verifies every run's
answer, and prints every metric by name with its unit and its clock (host,
simulated or count).  Each workload runs in its own subprocess — one
process, one thread, a closed loop of one client in host time; the source
inside the simulation is open-loop.  This file never imports ``repro``: it
puts ``src`` on the children's ``PYTHONPATH``.

With ``--workload`` the last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` for ``--trace 0``, its per-layer metrics for
``--trace 1``.  Without ``--workload`` all six run, ``--trace 1`` adds the
traced run to the end-to-end measurement, ``out/result.json`` is written
and (at full scale) one row is appended to ``history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
RESULT_SCHEMA = "e2e-bench/1"

# Fresh-process set-up samples per invocation (after one throwaway import
# that warms the page cache); setup_s is the fastest, as records_per_s is the
# fastest repeat: contention only ever adds time.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a wrong one)."""


# -- children ------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(mode: str, workload: str, seed: int, *extra: str) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    done = subprocess.run(
        command, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchmarkError(
            f"{mode} of {workload} exited with {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def pinned_answer(workload: str, seed: int) -> str | None:
    with open(HERE / "answers.json") as handle:
        answers = json.load(handle)
    return answers.get(workload, {}).get(str(seed))


# -- one workload ----------------------------------------------------------------------


def measure_setup(workload: str, seed: int, smoke: bool) -> list:
    if smoke:
        return [run_child("setup", workload, seed)["setup_s"]]
    run_child("setup", workload, seed)  # throwaway: warms the page cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        calibrate.pin_fastest_cpu()  # the child inherits the pin
        samples.append(run_child("setup", workload, seed)["setup_s"])
    calibrate.unpin()
    return samples


def verification_flags(workload: str, seed: int, smoke: bool) -> list:
    """Child flags that say what the warm-up run's answer is checked against."""
    if smoke:
        return ["--smoke"]
    pinned = pinned_answer(workload, seed)
    return ["--pinned", pinned] if pinned else []


def end_to_end(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Set-up samples, then warm-up and timed repeats in one subprocess."""
    setup = measure_setup(workload, seed, smoke)
    flags = verification_flags(workload, seed, smoke)
    report = run_child("measure", workload, seed, "--seconds", str(seconds), *flags)
    walls = report["walls_s"]
    records = report["records"]
    values = dict(report["simulated"])
    values["records_per_s"] = records / min(walls)
    values["setup_s"] = min(setup)
    values["peak_rss_mb"] = report["peak_rss_mb"]
    values["failed_fraction"] = report["failed"] / report["attempted"]
    return {
        "values": values,
        # Per-sample values of the host metrics, for quartiles and --compare.
        "samples": {
            "records_per_s": [records / wall for wall in walls],
            "setup_s": setup,
        },
        "walls_s": walls,
        "kernel_s": report["kernel_s"],
        "repeats": len(walls),
        "records": records,
        "digest": report["digest"],
        "pinned": "--pinned" in flags,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "problems": report["problems"],
        "environment": report["environment"],
    }


def traced(workload: str, seed: int, smoke: bool) -> dict:
    """The extra, traced run: per-layer metrics and the trace file."""
    flags = verification_flags(workload, seed, smoke)
    return run_child("trace", workload, seed, "--out-dir", str(OUT), *flags)


# -- printing --------------------------------------------------------------------------


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.6g}"


def print_end_to_end(workload: str, seed: int, entry: dict) -> None:
    pin = "pinned answer ok" if entry["pinned"] else "unpinned: repeats equal warm-up"
    if entry["problems"]:
        pin = "ANSWER MISMATCH"
    print(f"== {workload}  seed {seed}  {entry['repeats']} timed repeats  "
          f"digest {entry['digest'][:12]}  {pin}")
    for metric in metrics.ALL_END_TO_END:
        if metric.name not in entry["values"]:
            continue  # e.g. per-migration metrics on a migration-free workload
        line = (f"  {metric.name:30s} {_format(entry['values'][metric.name]):>16s} "
                f"{metric.unit:14s} {metric.clock:9s}")
        samples = entry["samples"].get(metric.name)
        if samples:
            q1, median, q3 = metrics.quartiles(samples)
            line += (f" median {_format(median)}  q1 {_format(q1)}  "
                     f"q3 {_format(q3)}  n={len(samples)}")
        print(line)
    for problem in entry["problems"]:
        print(f"  !! {problem}")


def print_per_layer(workload: str, report: dict) -> None:
    print(f"-- {workload}: per-layer metrics (one traced run; *_ns_* are host "
          f"self time, counts are exact)")
    units = {m.name: m.unit for m in metrics.PER_LAYER}
    for name, value in report["per_layer"].items():
        print(f"  {name:46s} {_format(value):>16s} {units[name]}")
    print(f"-- {workload}: ledger, largest self time first ({report['trace_file']})")
    for row in report["ledger"][:12]:
        print(f"  {row['name']:36s} {row['self_share']:6.1%} of traced wall  "
              f"{row['calls']:>9,} calls  {row['self_ns'] / 1e6:9.1f} ms self")
    for problem in report["problems"]:
        print(f"  !! {problem}")


def contract_line(correct: bool, attempted: int, failed: int, declared, values: dict) -> str:
    """The one JSON object the driver reads, with every declared metric."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # A layer that did no work in this workload reads 0.
        "metrics": {
            m.name: {"value": values.get(m.name, 0), "unit": m.unit} for m in declared
        },
    })


# -- provenance ------------------------------------------------------------------------


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int, environment: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "workload_literals_sha256": workloads.literals_hash(),
        "machine": dict(
            environment,
            nproc=os.cpu_count(),
            platform=platform.platform(),
            python=platform.python_version(),
            # Contention indicator: ~3.5 ms on the sizing box's fast CPU state.
            calibration_kernel_s=calibrate.sample(),
        ),
    }


def write_result(document: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / "result.json"
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    return path


def append_history(document: dict) -> None:
    row = {
        "unix_time": int(time.time()),
        "provenance": document["provenance"],
        "seconds": document["seconds"],
        "end_to_end": {
            name: entry["end_to_end"]["values"]
            for name, entry in document["workloads"].items()
        },
    }
    with open(HERE / "history.jsonl", "a") as handle:
        handle.write(json.dumps(row) + "\n")


# -- compare ---------------------------------------------------------------------------


def _spread(samples) -> float:
    if not samples or len(samples) < 2:
        return 0.0
    q1, median, q3 = metrics.quartiles(samples)
    return (q3 - q1) / median if median else 0.0


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: A, B, how much worse B is, verdict."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    regressions = unresolved = 0
    print(f"A = {path_a} ({a['provenance']['git_commit'][:12]})   "
          f"B = {path_b} ({b['provenance']['git_commit'][:12]})")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ea = a["workloads"][workload]["end_to_end"]
        eb = b["workloads"][workload]["end_to_end"]
        print(f"== {workload}")
        for metric in metrics.ALL_END_TO_END:
            if metric.name not in ea["values"] or metric.name not in eb["values"]:
                continue
            va, vb = ea["values"][metric.name], eb["values"][metric.name]
            worse = (va - vb) if metric.better == "higher" else (vb - va)
            worse_share = worse / abs(va) if va else (1.0 if worse > 0 else 0.0)
            spread = max(
                _spread(ea["samples"].get(metric.name)),
                _spread(eb["samples"].get(metric.name)),
            )
            if spread > metric.bound:
                verdict = "unresolved"
                unresolved += 1
            elif worse_share > metric.bound:
                verdict = "OUT OF BOUND"
                regressions += 1
            else:
                verdict = "ok"
            print(f"  {metric.name:30s} A {_format(va):>14s}  B {_format(vb):>14s}  "
                  f"worse by {worse_share:+8.2%}  bound {metric.bound:.0%}  "
                  f"spread {spread:6.2%}  {verdict}")
    print(f"{regressions} out of bound, {unresolved} unresolved")
    return 1 if regressions else 0


# -- main ------------------------------------------------------------------------------


def declared_run_seconds() -> float:
    manifest = ROOT / "BENCHMARK.json"
    with open(manifest) as handle:
        return float(json.load(handle)["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="ExperimentConfig.seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of timed repeats per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced, per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 0.5 simulated seconds, 1+2 repeats")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark needs the "
              "repository's sources", file=sys.stderr)
        return 2
    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else declared_run_seconds()
    )

    single = args.workload is not None
    names = [args.workload] if single else list(workloads.WORKLOADS)
    document = {
        "schema": RESULT_SCHEMA,
        "scale": "smoke" if args.smoke else "full",
        "seconds": seconds,
        "workloads": {},
    }
    correct = True
    attempted = failed = 0
    environment = {}
    try:
        for name in names:
            entry = {}
            # A single-workload --trace 1 run is the driver's per-layer run
            # and skips the end-to-end measurement; a full run does both.
            if not (single and args.trace):
                entry["end_to_end"] = end_to_end(name, args.seed, seconds, args.smoke)
                print_end_to_end(name, args.seed, entry["end_to_end"])
            if args.trace:
                entry["trace"] = traced(name, args.seed, args.smoke)
                print_per_layer(name, entry["trace"])
            for part in entry.values():
                correct = correct and not part["problems"] and part["failed"] == 0
                attempted += part["attempted"]
                failed += part["failed"]
                environment = part["environment"]
            document["workloads"][name] = entry
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    document["provenance"] = provenance(args.seed, environment)
    path = write_result(document)
    print(f"result written to {path}")
    if not single and not args.smoke:
        append_history(document)
    if single:
        entry = document["workloads"][args.workload]
        if args.trace:
            print(contract_line(correct, attempted, failed, metrics.PER_LAYER,
                                entry["trace"]["per_layer"]))
        else:
            print(contract_line(correct, attempted, failed, metrics.END_TO_END,
                                entry["end_to_end"]["values"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
