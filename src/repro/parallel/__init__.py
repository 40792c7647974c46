"""Sharded simulation (conservative parallel-DES), run in one process.

The serial simulator executes the whole modeled cluster off one event heap
with one zero-latency progress tracker.  This package shards the
discrete-event simulation along the existing ``workers_per_process``
partition — one *domain* per simulated process group, each with its own
heap and its own progress-tracker view — and steps the domains with a
conservative (YAWNS-style) window protocol whose lookahead is the minimum
cross-shard link latency in :mod:`repro.sim.network`.  Every domain runs in
the calling process: this is the sharded *reference* engine, kept as the
stepping stone to one engine (ROADMAP "One engine"), not a way to use more
cores.

Entry point: :func:`repro.parallel.runner.run_parallel_count_experiment`,
reached through ``ExperimentConfig.parallel == 0`` / ``--parallel 0``.
See DESIGN.md §14 for the protocol and its determinism argument.
"""

from repro.parallel.partition import ShardPartition
from repro.parallel.sync import ParallelStall

__all__ = [
    "ParallelStall",
    "ShardPartition",
    "result_fingerprint",
    "run_parallel_count_experiment",
]


def __getattr__(name):
    # Lazy: runner imports the harness, which imports back into this
    # package for the partition type; keep the light names eager and the
    # heavy ones deferred.
    if name in ("result_fingerprint", "run_parallel_count_experiment"):
        from repro.parallel import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
