"""Sharded experiment entry point: shard, run, assemble.

``run_parallel_count_experiment`` is the ``--parallel 0`` twin of
``run_count_experiment``: same config in, same :class:`ExperimentResult`
out, plus a ``result.parallel`` dict describing the sharded run (domains,
rounds, lookahead, per-domain event and record counts, per-worker state
fingerprints).  What the sharded engine cannot run is rejected when the
config is constructed (``ExperimentConfig.__post_init__``), not here.
"""

from __future__ import annotations

import time as wallclock

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.parallel.partition import ShardPartition
from repro.parallel.supervisor import LocalExecutor
from repro.parallel.sync import run_protocol
from repro.sim.memory import MemoryTimeline

__all__ = ["run_parallel_count_experiment"]


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
        sim_callbacks=sum(r["sim_callbacks"] for r in reports.values()),
        sim_events=sum(r["sim_events"] for r in reports.values()),
        wall_seconds=wallclock.perf_counter() - started,
        state_fingerprints={w: fingerprints[w] for w in sorted(fingerprints)},
    )
    result.parallel = {
        "domains": partition.num_domains,
        "lookahead_s": executor.lookahead,
        "rounds": rounds,
        "sim_callbacks_per_domain": {
            d: reports[d]["sim_callbacks"] for d in sorted(reports)
        },
        "records_per_domain": {
            d: reports[d]["records_injected"] for d in sorted(reports)
        },
        "fingerprints": {w: fingerprints[w] for w in sorted(fingerprints)},
    }
    return result
