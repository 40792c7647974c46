"""Sharded experiment entry point: shard, run, assemble.

``run_parallel_count_experiment`` is the ``--parallel 0`` twin of
``run_count_experiment``: same config in, same :class:`ExperimentResult`
out, plus a ``result.parallel`` dict describing the sharded run (domains,
rounds, lookahead, per-domain event and record counts, per-worker state
fingerprints).  What the sharded engine cannot run is rejected when the
config is constructed (``ExperimentConfig.__post_init__``), not here.
`result_fingerprint` condenses the determinism-relevant outputs of any
run, serial or sharded, into one digest.
"""

from __future__ import annotations

import hashlib
import time as wallclock

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.parallel.partition import ShardPartition
from repro.parallel.supervisor import LocalExecutor
from repro.parallel.sync import run_protocol
from repro.sim.memory import MemoryTimeline

__all__ = [
    "result_fingerprint",
    "run_parallel_count_experiment",
]


def run_parallel_count_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the counting microbenchmark on the sharded engine."""
    partition = ShardPartition(cfg.num_workers, cfg.workers_per_process)
    started = wallclock.perf_counter()
    executor = LocalExecutor(cfg, partition)
    rounds = run_protocol(executor)
    reports = executor.finalize()

    root = reports[0]
    if not root["controllers_done"]:
        raise RuntimeError(
            "migration did not complete; dataflow stalled "
            f"({root['pending_steps']} steps awaiting completion)"
        )
    fingerprints: dict[int, str] = {}
    for report in reports.values():
        fingerprints.update(report["fingerprints"])
    result = ExperimentResult(
        config=cfg,
        timeline=root["timeline"],
        migrations=list(root["migrations"]),
        memory=[
            MemoryTimeline(process=d) for d in partition.domains()
        ],
        records_injected=sum(r["records_injected"] for r in reports.values()),
        sim_events=sum(r["sim_events"] for r in reports.values()),
        wall_seconds=wallclock.perf_counter() - started,
        state_fingerprints={w: fingerprints[w] for w in sorted(fingerprints)},
    )
    result.parallel = {
        "domains": partition.num_domains,
        "lookahead_s": executor.lookahead,
        "rounds": rounds,
        "sim_events_per_domain": {
            d: reports[d]["sim_events"] for d in sorted(reports)
        },
        "records_per_domain": {
            d: reports[d]["records_injected"] for d in sorted(reports)
        },
        "fingerprints": {w: fingerprints[w] for w in sorted(fingerprints)},
    }
    return result


def result_fingerprint(result: ExperimentResult) -> str:
    """One digest over everything determinism promises to reproduce.

    Covers final per-worker state fingerprints, global and per-domain
    event counts, injected records, migration step timings, and the
    latency timeline — byte-identical runs agree on all of it.
    """
    digest = hashlib.sha256()
    parallel = getattr(result, "parallel", None) or {}
    for worker, fp in sorted(parallel.get("fingerprints", {}).items()):
        digest.update(f"w{worker}:{fp};".encode())
    # Serial runs carry their state fingerprints here (sharded runs repeat
    # them; the digest is over both, deterministically).
    for worker, fp in sorted(getattr(result, "state_fingerprints", {}).items()):
        digest.update(f"s{worker}:{fp};".encode())
    digest.update(f"records={result.records_injected};".encode())
    digest.update(f"events={result.sim_events};".encode())
    for d, n in sorted(parallel.get("sim_events_per_domain", {}).items()):
        digest.update(f"d{d}:{n};".encode())
    for migration in result.migrations:
        for step in migration.steps:
            digest.update(
                f"step@{step.issued_at!r}->{step.completed_at!r};".encode()
            )
    for stats in result.timeline.series():
        digest.update(
            f"t{stats.start_s!r}:{stats.count}:{stats.max_s!r};".encode()
        )
    return digest.hexdigest()
