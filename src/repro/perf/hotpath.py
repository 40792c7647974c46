"""Hot-path benchmark: wall-clock throughput of the two judged workloads.

The benchmark exists to answer one question reproducibly: how many input
records per wall-clock second does the simulator sustain end to end?  Two
workloads cover the two cost regimes:

* **hash-count** — the paper's hash-map counting microbenchmark with one
  batched migration mid-run; dominated by Megaphone's F/S routing path.
* **NEXMark Q3** — a stateful join without migrations; dominated by the
  generic operator/runtime machinery.

Every scale is fully deterministic in *simulated* terms (fixed seed, fixed
rate, fixed schedule), so two runs differ only in wall-clock time.  Each
workload runs ``repeats`` times and reports the fastest wall time — the
standard guard against scheduler noise on a shared machine.

``BASELINE`` holds the pre-optimization numbers, measured at the ``full``
scale on the commit immediately before the hot-path work landed, so
``speedup`` in the report always compares against a fixed, checked-in
reference rather than whatever happens to be on disk.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.nexmark.harness import run_nexmark_experiment
from repro.runtime_events import columns
from repro.versions import BENCH_SCHEMA

# Layers reported by the per-layer CPU breakdown, matched by source path.
_LAYERS = (
    "megaphone",
    "timely",
    "sim",
    "runtime_events",
    "harness",
    "nexmark",
)


@dataclass(frozen=True)
class BenchScale:
    """One size point of the benchmark.

    ``full`` reproduces the configuration the checked-in baseline was
    measured at; the smaller scales exist for CI smoke jobs and tests.
    """

    name: str
    num_workers: int
    workers_per_process: int
    num_bins: int
    rate: float
    duration_s: float
    domain: int
    q3_rate: float
    repeats: int
    # Which repro.state backend the benched operators run on.  "dict" is
    # the seed-identical default; CI also smokes "tiered".
    state_backend: str = "dict"
    # Cross-process link latency.  The default matches the cluster default;
    # the "parallel" scale raises it to milliseconds — the conservative
    # window protocol's lookahead equals this latency, and a sharded run
    # amortizes its barrier cost over one window of events.
    network_latency_s: float = 40e-6

    def hashcount_config(self, parallel=None) -> ExperimentConfig:
        """The hash-count workload at this scale (one batched migration)."""
        return ExperimentConfig(
            num_workers=self.num_workers,
            workers_per_process=self.workers_per_process,
            num_bins=self.num_bins,
            rate=self.rate,
            duration_s=self.duration_s,
            granularity_ms=10,
            migrate_at_s=(self.duration_s * 0.4,),
            strategy="batched",
            batch_size=16,
            seed=1,
            domain=self.domain,
            variant="hash",
            state_backend=self.state_backend,
            network_latency_s=self.network_latency_s,
            parallel=parallel,
        )

    def q3_config(self) -> ExperimentConfig:
        """The NEXMark Q3 workload at this scale (no migrations)."""
        return ExperimentConfig(
            num_workers=self.num_workers,
            workers_per_process=self.workers_per_process,
            num_bins=self.num_bins,
            rate=self.q3_rate,
            duration_s=self.duration_s,
            granularity_ms=10,
            migrate_at_s=(),
            seed=1,
            state_backend=self.state_backend,
            network_latency_s=self.network_latency_s,
        )


SCALES: dict[str, BenchScale] = {
    # Fast enough for unit tests (< a second end to end).
    "tiny": BenchScale(
        name="tiny",
        num_workers=2,
        workers_per_process=2,
        num_bins=16,
        rate=5_000.0,
        duration_s=0.5,
        domain=1 << 12,
        q3_rate=2_000.0,
        repeats=1,
    ),
    # The CI perf-smoke job's scale: seconds, not minutes.
    "smoke": BenchScale(
        name="smoke",
        num_workers=4,
        workers_per_process=2,
        num_bins=64,
        rate=20_000.0,
        duration_s=2.0,
        domain=1 << 16,
        q3_rate=8_000.0,
        repeats=2,
    ),
    # The scale the checked-in BASELINE numbers were measured at.
    "full": BenchScale(
        name="full",
        num_workers=8,
        workers_per_process=4,
        num_bins=256,
        rate=50_000.0,
        duration_s=5.0,
        domain=1_000_000,
        q3_rate=20_000.0,
        repeats=3,
    ),
    # Sharded-execution scale: four domains (8 workers / 2 per process) and
    # millisecond links, so each conservative window covers a meaningful
    # slab of events instead of a handful.
    "parallel": BenchScale(
        name="parallel",
        num_workers=8,
        workers_per_process=2,
        num_bins=256,
        rate=40_000.0,
        duration_s=4.0,
        domain=1_000_000,
        q3_rate=16_000.0,
        repeats=2,
        network_latency_s=10e-3,
    ),
}


# Pre-optimization throughput, measured 2026-08-05 at the ``full`` scale on
# the commit immediately preceding the hot-path work (single run each).
# The report's ``speedup`` section divides current numbers by these.
BASELINE: dict[str, dict] = {
    "hash_count": {
        "records": 250_000,
        "wall_seconds": 3.0787,
        "records_per_s": 81_203.27,
        "sim_events": 201_751,
        "sim_events_per_s": 65_531.36,
    },
    "nexmark_q3": {
        "records": 100_000,
        "wall_seconds": 1.8406,
        "records_per_s": 54_329.49,
        "sim_events": 119_989,
        "sim_events_per_s": 65_189.42,
    },
}


def machine_metadata() -> dict:
    """The measurement environment, recorded alongside every report.

    Throughput numbers are only comparable between identical environments;
    ``check_report`` downgrades regressions to warnings when these differ
    (a 1-core CI runner must not fail a gate calibrated on a laptop).
    """
    import os
    import platform

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "batch_representation": columns.active_representation(),
        # Batches shorter than this are stdlib arrays even with numpy
        # installed (None: numpy absent, every batch is).
        "small_batch_cutoff": (
            columns.SMALL_BATCH_CUTOFF if columns.numpy_active() else None
        ),
    }


def _measure(run: Callable[[], object], repeats: int) -> dict:
    """Run a workload ``repeats`` times; report the fastest wall time.

    Simulated results are identical across runs (the workload is
    deterministic), so the minimum wall time is the least-noisy estimate of
    the code's actual speed.
    """
    walls: list[float] = []
    result = None
    for _ in range(max(repeats, 1)):
        result = run()
        walls.append(result.wall_seconds)
    best = min(walls)
    return {
        "records": result.records_injected,
        "wall_seconds": round(best, 4),
        "records_per_s": round(result.records_injected / best, 2),
        "sim_events": result.sim_events,
        "sim_events_per_s": round(result.sim_events / best, 2),
        "wall_seconds_all": [round(w, 4) for w in walls],
    }


def run_hashcount_bench(scale: BenchScale) -> dict:
    """Throughput of the hash-count workload at ``scale``."""
    cfg = scale.hashcount_config()
    return _measure(lambda: run_count_experiment(cfg), scale.repeats)


def run_q3_bench(scale: BenchScale) -> dict:
    """Throughput of NEXMark Q3 at ``scale``."""
    cfg = scale.q3_config()
    return _measure(lambda: run_nexmark_experiment(3, cfg), scale.repeats)


def _layer_of(filename: str) -> str:
    """Map a profiled source path onto a runtime layer name."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    rest = filename[at + len(marker):]
    package = rest.split("/", 1)[0]
    if package.endswith(".py"):
        package = package[:-3]
    if package in _LAYERS:
        return f"repro.{package}"
    return "repro.other" if package else "other"


def layer_breakdown(run: Callable[[], object]) -> dict[str, dict]:
    """Profile one run of ``run``; aggregate CPU time per runtime layer.

    Aggregates ``tottime`` (time inside each function, callees excluded) so
    the layer fractions sum to one — ``cumtime`` would double-count every
    cross-layer call.  Profiling dilates wall time, so this runs separately
    from the timed repetitions and only the *fractions* are meaningful.
    """
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    stats = pstats.Stats(profile)
    per_layer: dict[str, float] = {}
    total = 0.0
    for (filename, _line, _name), row in stats.stats.items():
        tottime = row[2]
        layer = _layer_of(filename)
        per_layer[layer] = per_layer.get(layer, 0.0) + tottime
        total += tottime
    if total <= 0.0:
        return {}
    return {
        layer: {
            "seconds": round(seconds, 4),
            "fraction": round(seconds / total, 4),
        }
        for layer, seconds in sorted(
            per_layer.items(), key=lambda kv: -kv[1]
        )
    }


def run_parallel_bench(scale: BenchScale, shards: int) -> dict:
    """Sharded vs sharded-reference throughput of the hash-count workload.

    Times the ``--parallel 0`` in-process reference engine against
    ``--parallel shards`` forked execution of the *same* sharded
    simulation, asserts they were byte-identical (``deterministic``), and
    reports the wall-clock speedup.  On a single-core box the forked run
    can be slower — that is the honest number, which is why the machine
    metadata travels with the report.
    """
    from repro.parallel.runner import result_fingerprint

    serial_cfg = scale.hashcount_config(parallel=0)
    parallel_cfg = scale.hashcount_config(parallel=shards)
    fingerprints: dict[str, str] = {}

    def timed(cfg, key):
        def run():
            result = run_count_experiment(cfg)
            fingerprints[key] = result_fingerprint(result)
            return result

        return run

    serial = _measure(timed(serial_cfg, "serial"), scale.repeats)
    forked = _measure(timed(parallel_cfg, "parallel"), scale.repeats)
    return {
        "shards": shards,
        "serial_sharded": serial,
        "parallel": forked,
        "speedup": round(
            forked["records_per_s"] / serial["records_per_s"], 3
        ),
        "deterministic": fingerprints["serial"] == fingerprints["parallel"],
        "fingerprint": fingerprints["serial"],
    }


def run_bench(
    scale_name: str = "full",
    layers: bool = True,
    repeats: Optional[int] = None,
    state_backend: str = "dict",
    parallel: Optional[int] = None,
) -> dict:
    """Run both workloads at ``scale_name``; return the full report dict.

    The report carries the scale's exact configuration, the measurement
    environment, the measured throughput of both workloads, the per-layer
    CPU breakdown (unless ``layers`` is False), the sharded-execution
    section (when ``parallel`` is set), and — at the ``full`` scale, where
    the checked-in baseline applies — the baseline numbers and the speedup
    against them.
    """
    if scale_name not in SCALES:
        raise ValueError(
            f"unknown bench scale {scale_name!r}; known: {sorted(SCALES)}"
        )
    scale = SCALES[scale_name]
    overrides = {}
    if repeats is not None:
        overrides["repeats"] = repeats
    if state_backend != scale.state_backend:
        overrides["state_backend"] = state_backend
    if overrides:
        scale = BenchScale(**{**asdict(scale), **overrides})
    report: dict = {
        "schema": BENCH_SCHEMA,
        "scale": scale.name,
        "state_backend": scale.state_backend,
        "batch_representation": columns.active_representation(),
        "machine": machine_metadata(),
        "config": asdict(scale),
        "workloads": {
            "hash_count": run_hashcount_bench(scale),
            "nexmark_q3": run_q3_bench(scale),
        },
    }
    if parallel is not None:
        report["parallel"] = run_parallel_bench(scale, parallel)
    if layers:
        hc_cfg = scale.hashcount_config()
        q3_cfg = scale.q3_config()
        report["layers"] = {
            "hash_count": layer_breakdown(lambda: run_count_experiment(hc_cfg)),
            "nexmark_q3": layer_breakdown(
                lambda: run_nexmark_experiment(3, q3_cfg)
            ),
        }
    # The checked-in baseline was measured on the dict backend; a speedup
    # against it is only meaningful on the same backend.
    if scale.name == "full" and scale.state_backend == "dict":
        report["baseline"] = BASELINE
        report["speedup"] = {
            workload: round(
                report["workloads"][workload]["records_per_s"]
                / BASELINE[workload]["records_per_s"],
                3,
            )
            for workload in ("hash_count", "nexmark_q3")
        }
    return report


def write_report(report: dict, path: str) -> None:
    """Write ``report`` as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, sort_keys=False)
        out.write("\n")


# Machine-metadata keys that make throughput numbers comparable at all.
_MACHINE_KEYS = (
    "cpu_count",
    "machine",
    "implementation",
    "numpy",
    "batch_representation",
)


def machines_comparable(current: Optional[dict], committed: Optional[dict]) -> bool:
    """Whether two reports were measured in comparable environments.

    Older (schema 1) baselines carry no machine block; they are treated as
    *not* comparable — the check degrades to warnings until the baseline
    is regenerated with metadata.
    """
    if not current or not committed:
        return False
    return all(current.get(k) == committed.get(k) for k in _MACHINE_KEYS)


def check_report(
    report: dict,
    baseline_path: str,
    tolerance: float = 0.15,
    tolerance_overrides: Optional[dict] = None,
) -> tuple[bool, list[dict]]:
    """Compare a fresh report against a committed baseline report file.

    Returns ``(ok, rows)``: one row per workload present in both reports,
    each carrying the baseline and current ``records_per_s``, the relative
    delta, and a status — ``"ok"``, or ``"regression"`` when throughput
    dropped more than the workload's tolerance below the committed number
    (``tolerance_overrides`` maps workload name to a per-workload
    tolerance; others use ``tolerance``).  Faster runs never fail.

    When the two reports' machine metadata differ (different core count,
    CPU architecture, interpreter, numpy availability, or batch
    representation — anything that legitimately moves throughput), a
    regression is reported as ``"cross-machine-warn"`` and does **not**
    fail the check: wall-clock numbers only gate within one environment.

    The scales must match: throughput at one scale says nothing about
    another, so a mismatch raises instead of passing silently.
    """
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_scale = baseline.get("scale")
    if baseline_scale != report.get("scale"):
        raise ValueError(
            f"bench scale {report.get('scale')!r} does not match the committed "
            f"baseline's scale {baseline_scale!r}; rerun with --scale "
            f"{baseline_scale}"
        )
    comparable = machines_comparable(
        report.get("machine"), baseline.get("machine")
    )
    overrides = tolerance_overrides or {}
    rows: list[dict] = []
    ok = True
    for workload, numbers in report["workloads"].items():
        committed = baseline.get("workloads", {}).get(workload)
        if committed is None:
            continue
        base_rps = committed["records_per_s"]
        current_rps = numbers["records_per_s"]
        delta = (current_rps - base_rps) / base_rps if base_rps else 0.0
        allowed = overrides.get(workload, tolerance)
        regressed = delta < -allowed
        if regressed and comparable:
            ok = False
            status = "regression"
        elif regressed:
            status = "cross-machine-warn"
        else:
            status = "ok"
        rows.append(
            {
                "workload": workload,
                "baseline_records_per_s": base_rps,
                "records_per_s": current_rps,
                "delta": round(delta, 4),
                "tolerance": allowed,
                "status": status,
            }
        )
    return ok, rows
