"""The six benchmark workloads, frozen as literals.

Nothing here imports ``repro`` or ``benchmarks/_common.py``: the literals
(including the paper cost model) are copied so that a change elsewhere in
the repository cannot silently resize a workload.  ``literals_hash`` covers
everything below, and every result file records it.

Sizing: the builder's contract gives each benchmark invocation about 25 s
including set-up, so ``duration_s`` was cut from the issue's indicative
values until one run costs 0.7-2 s of host time on the 2-core sizing box.
The workload list and the shape of each workload are unchanged.
"""

from __future__ import annotations

import hashlib
import json

# Paper testbed: 4e6 records/s into 16 workers.  The simulation materialises
# RATE_SCALE times fewer records and makes each RATE_SCALE times dearer, so
# utilisation (and therefore latency) matches the paper's operating point.
RATE_SCALE = 200.0
PAPER_COST = {
    "record_cost": 0.25e-6 * RATE_SCALE,
    "ingest_record_cost": 0.05e-6 * RATE_SCALE,
    "route_cost": 0.05e-6 * RATE_SCALE,
    "batch_overhead": 20e-6,
    "progress_update_cost": 1e-6,
}

# Simulated seconds ignored at the start of a run by the latency metrics.
WARMUP_S = 1.0

_BULK = {
    "num_workers": 4,
    "workers_per_process": 2,
    "num_bins": 256,
    "domain": 256_000_000,
    "rate": 200_000.0,
    "duration_s": 4.0,
    "granularity_ms": 10,
    "variant": "hash",
}

# name -> {"runner": "count" | "nexmark_q3", "config": ExperimentConfig
# keyword arguments, "cost": CostModel keyword arguments or None, "why"}.
WORKLOADS = {
    "count_bulk": {
        "runner": "count",
        "config": dict(_BULK),
        "cost": None,
        "why": "500-record column batches and no migration: the per-record "
        "regime (column kernels, source, columnar fold); steady-state "
        "reference and serial twin of count_sharded",
    },
    "count_migrating": {
        "runner": "count",
        "config": dict(_BULK, strategy="fluid", migrate_at_s=(1.0, 2.5)),
        "cost": None,
        "why": "count_bulk with fluid migrations live 64% of simulated time: "
        "controller, F integrate/execute, extract/install and S pending "
        "queues on the same record path",
    },
    "count_paper": {
        "runner": "count",
        "config": {
            "num_workers": 16,
            "workers_per_process": 4,
            "num_bins": 4096,
            "domain": 10**9,
            "rate": 20_000.0,
            "duration_s": 2.5,
            "granularity_ms": 10,
            "bytes_per_key": 8.0,
            "strategy": "batched",
            "batch_size": 64,
            "migrate_at_s": (1.2,),
        },
        "cost": PAPER_COST,
        "why": "paper cluster shape (16 workers, 4096 bins, 8 GB modeled state) "
        "with <=13-record batches: the per-message regime (event heap, "
        "progress, network, activations) and the paper's own migration result",
    },
    "nexmark_q3": {
        "runner": "nexmark_q3",
        "config": {
            "num_workers": 8,
            "workers_per_process": 4,
            "num_bins": 256,
            "rate": 20_000.0,
            "duration_s": 3.0,
            "granularity_ms": 10,
            "strategy": "batched",
            "batch_size": 16,
            "migrate_at_s": (1.2,),
        },
        "cost": None,
        "why": "object-valued columns, a real join and the only migration of "
        "materialised dict state: repro.nexmark, generic timely operators "
        "and real extract_bin/install_bin",
    },
    "count_wal": {
        "runner": "count",
        "config": dict(
            _BULK,
            duration_s=2.5,
            state_backend="wal",
            delta_migration=True,
            strategy="batched",
            batch_size=16,
            migrate_at_s=(1.0,),
        ),
        "cost": None,
        "why": "count_bulk shape on the WAL backend with base-then-delta "
        "migration: the state layer as a writer (CRC frames, syncs, "
        "compaction)",
    },
    "count_sharded": {
        "runner": "count",
        "config": dict(_BULK, parallel=0),
        "cost": None,
        "why": "count_bulk on the in-process sharded engine (2 domains): "
        "isolates repro.parallel's window protocol, tuple heap keys and "
        "logged progress, the sharded tax",
    },
}

# count_sharded is verified against this workload's per-worker fingerprints
# and its sharded_tax / extra_events_ratio are measured against it.
SERIAL_TWIN = {"count_sharded": "count_bulk"}

# --smoke: every workload at this many simulated seconds.
SMOKE_DURATION_S = 0.5


def config_kwargs(name: str, seed: int, smoke: bool = False) -> dict:
    """``ExperimentConfig`` keyword arguments for one workload run.

    The cost model is returned under ``"cost"`` as a plain dict (or None);
    the caller, which may import ``repro``, turns it into a ``CostModel``.
    """
    spec = WORKLOADS[name]
    kwargs = dict(spec["config"], seed=seed, cost=spec["cost"])
    if smoke:
        scale = SMOKE_DURATION_S / kwargs["duration_s"]
        # One migration is enough to exercise the path; a second would only
        # lengthen the tail the simulation runs after the source has stopped.
        kwargs["migrate_at_s"] = tuple(
            round(at * scale, 3) for at in kwargs.get("migrate_at_s", ())[:1]
        )
        kwargs["duration_s"] = SMOKE_DURATION_S
    return kwargs


def setup_kwargs(name: str, seed: int) -> dict:
    """The same cluster and dataflow with next to no input: what
    ``setup_s`` runs after the import."""
    kwargs = config_kwargs(name, seed)
    kwargs.update(duration_s=0.01, migrate_at_s=())
    return kwargs


def literals_hash() -> str:
    """SHA-256 over every frozen literal above."""
    frozen = {
        "workloads": WORKLOADS,
        "warmup_s": WARMUP_S,
        "smoke_duration_s": SMOKE_DURATION_S,
        "serial_twin": SERIAL_TWIN,
    }
    text = json.dumps(frozen, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()
