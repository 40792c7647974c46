"""A/B speed runner: several source trees, one benchmark, shuffled rounds.

    python3 benchmarks/ab.py --commits PARENT HEAD [--workload W ...]
                             [--seconds S] [--rounds N] [--smoke]
    python3 benchmarks/ab.py --tree /path/to/parent --tree . ...

Host timings drift with the machine's speed phase, so a gain is only
meaningful as a ratio of runs interleaved on one machine.  Each ref (``--commits``:
``git archive REF src``; ``--tree``: a directory's ``src`` as it is) gets
its own directory holding its ``src/`` beside a copy of this tree's
``benchmarks/e2e/``; ``run.py`` puts *its own* tree's ``src`` first on the
children's ``PYTHONPATH``, so pointing ``PYTHONPATH`` at a ref would
measure this tree every time.  Each round runs every ref once per
workload, in a shuffled order, as ``run.py --workload W --seconds S``, so
every ref sees the same phases and the benchmark's own answer check runs
on every ref.

For each ref and end-to-end metric of ``BENCHMARK.json`` the report gives
the median over rounds of the ratio to the first ref, the share of rounds
the ref beat the first ref in the direction of the metric's ``better``
field, and the ref's own min-max; a round whose run failed (its answer
check, an error or a timeout) is listed.  Outside ``--smoke`` one row per
(ref, workload) is appended to ``benchmarks/ab_history.jsonl`` with the
host it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
HISTORY = ROOT / "benchmarks" / "ab_history.jsonl"
SCHEMA = "ab-history/1"
RUN_TIMEOUT_S = 900


class _AddRef(argparse.Action):
    """``--commits`` and ``--tree`` append to one ordered list of refs."""

    def __call__(self, parser, namespace, values, option_string=None):
        kind = "commit" if option_string == "--commits" else "tree"
        refs = list(getattr(namespace, self.dest) or [])
        refs.extend((kind, value) for value in (values if isinstance(values, list) else [values]))
        setattr(namespace, self.dest, refs)


def end_to_end_metrics() -> list:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)["end_to_end"]


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, **kwargs)


def tree_revision(tree: Path) -> str:
    """`` at SHA`` (``+dirty`` when its ``src/`` has changes) for a git
    checkout, so a history row can be traced to the code it measured."""
    head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return ""
    status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "src"],
                            capture_output=True, text=True).stdout
    return f" at {head.stdout.strip()}" + ("+dirty" if status.strip() else "")


def stage(kind: str, ref: str, into: Path) -> str:
    """Lay out ``into`` as a ref's ``src/`` beside this tree's
    ``benchmarks/e2e/``; returns the ref's name (``commit SHA``, ``tree DIR``)."""
    into.mkdir(parents=True)
    if kind == "commit":
        commit = git("rev-parse", "--verify", f"{ref}^{{commit}}",
                     capture_output=True, text=True).stdout.strip()
        archive = git("archive", commit, "src", capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
        name = f"commit {commit}"
    else:
        source = Path(ref).resolve() / "src"
        if not (source / "repro").is_dir():
            raise SystemExit(f"error: {source / 'repro'} not found")
        shutil.copytree(source, into / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        name = f"tree {ref}{tree_revision(source.parent)}"
    shutil.copytree(E2E, into / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    # run.py reads the run length it is declared with from its tree's root.
    shutil.copy(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
    return name


def run_once(tree: Path, workload: str, seconds, smoke: bool) -> dict:
    """One ``run.py --workload`` invocation: its contract line, or a failure."""
    command = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
               "--workload", workload]
    if smoke:
        command.append("--smoke")
    elif seconds is not None:
        command += ["--seconds", str(seconds)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "values": {}, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    try:
        line = json.loads(done.stdout.strip().splitlines()[-1])
        values = {name: entry["value"] for name, entry in line["metrics"].items()}
        ok = done.returncode == 0 and line["correct"] and line["failed"] == 0
    except (IndexError, KeyError, TypeError, AttributeError, json.JSONDecodeError):
        return {"ok": False, "values": {}, "error": (done.stdout + done.stderr)[-1000:]}
    return {"ok": ok, "values": values, "error": "" if ok else done.stdout[-1000:]}


def beats(metric: dict, value: float, base: float) -> bool:
    return value > base if metric["better"] == "higher" else value < base


def summarise(metrics: list, rounds: list, refs: list, workload: str) -> list:
    """Per ref: per-metric median ratio to the first ref, wins, min-max."""
    rows = []
    for index, name in enumerate(refs):
        per_metric = {}
        for metric in metrics:
            key = metric["name"]
            own, ratios, wins, compared = [], [], 0, 0
            for result in rounds:
                mine = result[index]["values"].get(key)
                base = result[0]["values"].get(key)
                if mine is None:
                    continue
                own.append(mine)
                if index and base is not None:
                    compared += 1
                    wins += beats(metric, mine, base)
                    if base:
                        ratios.append(mine / base)
            if not own:
                continue
            per_metric[key] = {
                "median": statistics.median(own),
                "min": min(own),
                "max": max(own),
                "ratio_median": statistics.median(ratios) if ratios else None,
                "won": wins / compared if compared else None,
            }
        failed = [r for r, result in enumerate(rounds, 1) if not result[index]["ok"]]
        rows.append({"ref": name, "workload": workload, "metrics": per_metric,
                     "failed_rounds": failed})
    return rows


def print_rows(metrics: list, rows: list) -> None:
    units = {m["name"]: m["unit"] for m in metrics}
    for row in rows:
        print(f"-- {row['ref']}" + ("  (reference)" if row is rows[0] else ""))
        for key, entry in row["metrics"].items():
            ratio = entry["ratio_median"]
            won = entry["won"]
            versus = "" if ratio is None else f"  x{ratio:.4f} of ref 1, won {won:.0%}"
            print(f"  {key:28s} {entry['median']:>14.6g} {units[key]:14s} "
                  f"min {entry['min']:.6g}  max {entry['max']:.6g}{versus}")
        for r in row["failed_rounds"]:
            print(f"  !! round {r}: failed (answer check or run error; see stderr)")


def host() -> str:
    return f"{platform.platform()} nproc={os.cpu_count()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commits", nargs="+", action=_AddRef, dest="refs",
                        metavar="REF", help="git refs, each laid out with git archive")
    parser.add_argument("--tree", action=_AddRef, dest="refs", metavar="DIR",
                        help="a directory whose src/ is measured as it is")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="benchmark workload (repeatable; default count_paper)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run.py --seconds (default: its own)")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="run.py --smoke; nothing is appended to the history")
    args = parser.parse_args(argv)
    if not args.refs:
        parser.error("name the refs to measure (--commits and/or --tree)")
    workloads = args.workloads or ["count_paper"]
    metrics = end_to_end_metrics()
    shuffle = random.Random(0)
    status = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        trees = [Path(workdir) / f"ref{i}" for i in range(len(args.refs))]
        names = [stage(kind, ref, tree) for (kind, ref), tree in zip(args.refs, trees)]
        for workload in workloads:
            rounds = []
            for r in range(args.rounds):
                order = list(range(len(trees)))
                shuffle.shuffle(order)
                result = [None] * len(trees)
                for index in order:
                    result[index] = run_once(trees[index], workload, args.seconds, args.smoke)
                    if not result[index]["ok"]:
                        print(f"{names[index]}: {result[index]['error']}", file=sys.stderr)
                rounds.append(result)
                print(f"[{workload}] round {r + 1}/{args.rounds} done", file=sys.stderr)
            rows = summarise(metrics, rounds, names, workload)
            print(f"== {workload}: {args.rounds} rounds, ratios to {names[0]}")
            print_rows(metrics, rows)
            if any(row["failed_rounds"] for row in rows):
                status = 1
            if not args.smoke:
                with open(HISTORY, "a") as handle:
                    for row in rows:
                        handle.write(json.dumps(dict(
                            row, schema=SCHEMA, unix_time=int(time.time()),
                            host=host(), python=platform.python_version(),
                            rounds=args.rounds, seconds=args.seconds,
                        )) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
