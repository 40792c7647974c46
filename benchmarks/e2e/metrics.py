"""Metric definitions, and the arithmetic that turns a run into metrics.

Two clocks.  *Host* metrics say what the simulator costs to run (wall
seconds and memory of this Python process); *simulated* metrics and
*counts* say what the modelled cluster experienced, and repeat exactly for
a fixed seed.  ``clock`` names which on every definition below.

``END_TO_END`` is what ``BENCHMARK.json`` declares: metrics defined and
non-zero on all six workloads and steady from seed to seed.  ``REPORTED``
adds the paper's own results where a workload has them (per-migration
latency and duration, the harness's bucketed p99); ``run.py`` prints and
``--compare`` checks both lists.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    clock: str  # "host" | "simulated" | "count"
    bound: float  # share of the baseline by which it may worsen
    definition: str


END_TO_END = (
    Metric(
        "records_per_s", "records/s", "higher", "host", 0.25,
        "records_injected / wall seconds of the fastest timed "
        "run_*_experiment(cfg) call, each started on the currently faster CPU "
        "(contention only adds time, so the fastest repeat is the steady one)",
    ),
    Metric(
        "setup_s", "s", "lower", "host", 0.25,
        "fresh subprocess: import of the repro entry points plus the same "
        "config at duration_s=0.01 without migrations; fastest of 5 samples",
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower", "host", 0.10,
        "ru_maxrss of the workload's subprocess after the last repeat",
    ),
    Metric(
        "sim_events_per_record", "events/record", "lower", "count", 0.02,
        "result.sim_events / records_injected",
    ),
    Metric(
        "sim_window_max_latency_ms", "ms", "lower", "simulated", 0.10,
        "mean over the 250 ms reporting windows after warm-up of the "
        "window's largest epoch latency (rises with spike height and length)",
    ),
    Metric(
        "sim_steady_time_share", "ratio", "higher", "simulated", 0.02,
        "1 - sum of migration durations / duration_s; 1.0 without migrations",
    ),
)

# Printed where defined, compared by --compare at the same seed (where they
# are exact), but not declared as end-to-end in BENCHMARK.json: the first is
# a log-bucket edge (identical on most seeds), the second is a maximum over
# hundreds of epochs (11% seed-to-seed on nexmark_q3), the last two do not
# exist on migration-free workloads.
REPORTED = (
    Metric(
        "sim_p99_latency_ms", "ms", "lower", "simulated", 0.01,
        "result.timeline.overall.percentile(0.99), record-weighted over all "
        "epochs; a 19%-wide log bucket's upper edge, or the maximum",
    ),
    Metric(
        "sim_max_latency_ms", "ms", "lower", "simulated", 0.01,
        "result.overall_max_latency(warmup_s)",
    ),
    Metric(
        "sim_migration_max_latency_ms", "ms", "lower", "simulated", 0.01,
        "max over migrations of result.migration_max_latency(i)",
    ),
    Metric(
        "sim_migration_duration_s", "s", "lower", "simulated", 0.01,
        "sum over migrations of result.migration_duration(i)",
    ),
    Metric(
        "failed_fraction", "ratio", "lower", "count", 0.0,
        "failed / attempted input records over warm-up and repeats",
    ),
)

ALL_END_TO_END = END_TO_END + REPORTED


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str  # which end-to-end metric on which workload it should move


def _layer(layer: str, moves: str, *rows) -> tuple:
    return tuple(LayerMetric(n, u, b, layer, moves) for n, u, b in rows)


PER_LAYER = (
    _layer(
        "repro.sim",
        "records_per_s, sim_events_per_record on count_paper; none on count_bulk",
        ("sim.engine_self_ns_per_event", "ns/event", "lower"),
        ("sim.schedule_calls_per_record", "calls/record", "lower"),
        ("sim.network_self_ns_per_msg", "ns/msg", "lower"),
        ("sim.network_msgs_per_record", "msgs/record", "lower"),
        ("sim.network_bytes_per_record", "bytes/record", "lower"),
    )
    + _layer(
        "repro.timely",
        "records_per_s on count_paper, then nexmark_q3; count_bulk within bound",
        ("timely.progress_self_ns_per_record", "ns/record", "lower"),
        ("timely.progress_updates_per_record", "updates/record", "lower"),
        ("timely.propagate_calls_per_epoch", "calls/epoch", "lower"),
        ("timely.worker_self_ns_per_activation", "ns/activation", "lower"),
        ("timely.activations_per_record", "act/record", "lower"),
        ("timely.sends_per_record", "sends/record", "lower"),
        ("timely.input_self_ns_per_record", "ns/record", "lower"),
    )
    + _layer(
        "repro.runtime_events",
        "records_per_s on count_bulk, count_migrating; none on count_paper",
        ("runtime_events.columns_self_ns_per_record", "ns/record", "lower"),
        ("runtime_events.records_per_batch", "records/batch", "higher"),
        ("runtime_events.bus_publishes_unsubscribed", "count", "lower"),
    )
    + _layer(
        "repro.megaphone",
        "records_per_s on count_migrating (F/S self also count_bulk); "
        "sim_steady_time_share, sim_window_max_latency_ms on count_paper, "
        "count_migrating",
        ("megaphone.f_self_ns_per_record", "ns/record", "lower"),
        ("megaphone.s_self_ns_per_record", "ns/record", "lower"),
        ("megaphone.worker_for_calls_per_record", "calls/record", "lower"),
        ("megaphone.slow_route_batch_share", "ratio", "lower"),
        ("megaphone.migrating_time_share", "ratio", "lower"),
        ("megaphone.migration_steps", "count", "lower"),
        ("megaphone.bins_moved", "count", "lower"),
        ("megaphone.state_bytes_moved", "bytes", "lower"),
        ("megaphone.controller_self_ns_per_step", "ns/step", "lower"),
        ("megaphone.ticker_self_ns_per_epoch", "ns/epoch", "lower"),
        ("megaphone.step_attempts_per_step", "attempts/step", "lower"),
    )
    + _layer(
        "repro.state",
        "records_per_s on count_wal (writes), nexmark_q3 (real extract/install); "
        "sim_steady_time_share on count_wal; WAL counters 0 elsewhere",
        ("state.apply_access_self_ns_per_record", "ns/record", "lower"),
        ("state.extract_self_ns_per_bin", "ns/bin", "lower"),
        ("state.install_self_ns_per_bin", "ns/bin", "lower"),
        ("state.wal_append_self_ns_per_record", "ns/record", "lower"),
        ("state.wal_frames_per_record", "frames/record", "lower"),
        ("state.wal_bytes_per_record", "bytes/record", "lower"),
        ("state.wal_syncs", "count", "lower"),
        ("state.wal_compactions", "count", "lower"),
        ("state.delta_bytes_ratio", "ratio", "lower"),
    )
    + _layer(
        "repro.harness",
        "records_per_s on count_bulk; setup_s everywhere",
        ("harness.source_self_ns_per_record", "ns/record", "lower"),
        ("harness.fold_self_ns_per_record", "ns/record", "lower"),
        ("harness.latency_recorder_self_ns_per_epoch", "ns/epoch", "lower"),
        ("harness.epochs", "count", "lower"),
        ("harness.completed_minus_injected", "records", "lower"),
    )
    + _layer(
        "repro.nexmark",
        "records_per_s on nexmark_q3 only",
        ("nexmark.generator_self_ns_per_record", "ns/record", "lower"),
        ("nexmark.split_self_ns_per_record", "ns/record", "lower"),
        ("nexmark.q3_self_ns_per_record", "ns/record", "lower"),
        ("nexmark.outputs_per_input", "outputs/input", "lower"),
    )
    + _layer(
        "repro.parallel",
        "records_per_s, sim_events_per_record on count_sharded only",
        ("parallel.rounds", "count", "lower"),
        ("parallel.events_per_round", "events/round", "higher"),
        ("parallel.window_self_ns_per_round", "ns/round", "lower"),
        ("parallel.progress_self_ns_per_record", "ns/record", "lower"),
        ("parallel.remote_msgs_per_record", "msgs/record", "lower"),
        ("parallel.extra_events_ratio", "ratio", "lower"),
        ("parallel.sharded_tax", "ratio", "higher"),
    )
    + _layer(
        "trace",
        "none: the ledger's own accuracy",
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
    + _layer(
        "modelled cluster",
        "the paper's results; exact for a seed, from the untraced run",
        *((m.name, m.unit, m.better) for m in REPORTED if m.clock == "simulated"),
    )
)


# -- from one ExperimentResult ----------------------------------------------------


def simulated_metrics(result, duration_s: float, warmup_s: float) -> dict:
    """Every ``sim_*`` metric (plus events per record) of one run.

    Metrics that do not exist for the run (per-migration ones without a
    migration) are left out, never reported as 0.
    """
    timeline = result.timeline
    after_warmup = [s.max_s for s in timeline.series() if s.start_s >= warmup_s]
    durations = [
        result.migration_duration(i) for i in range(len(result.migrations))
    ]
    out = {
        "sim_events_per_record": result.sim_events / result.records_injected,
        "sim_window_max_latency_ms": statistics.fmean(after_warmup) * 1e3,
        "sim_steady_time_share": 1.0 - sum(durations) / duration_s,
        "sim_p99_latency_ms": timeline.overall.percentile(0.99) * 1e3,
        "sim_max_latency_ms": result.overall_max_latency(warmup_s=warmup_s) * 1e3,
    }
    if durations:
        out["sim_migration_max_latency_ms"] = 1e3 * max(
            result.migration_max_latency(i) for i in range(len(durations))
        )
        out["sim_migration_duration_s"] = sum(durations)
    return out


def completed_records(result) -> float:
    """Records whose epoch completed: the sum of timeline window counts."""
    return sum(s.count for s in result.timeline.series())


def state_digest(result) -> str | None:
    """Digest of final operator state, or None when the run did not hash it."""
    if result.parallel is not None:
        fingerprints = result.parallel["fingerprints"]
        return ";".join(f"{w}:{fingerprints[w]}" for w in sorted(fingerprints))
    return result.cluster_fingerprint


def answer_digest(result, with_state: bool = True) -> str:
    """SHA-256 over what a run must reproduce, from public result fields.

    Not ``result_fingerprint``: that one bakes in ``sim_events``, which a
    legitimate engine optimisation may change.  ``with_state=False`` gives
    the digest of a run that did not hash its state (the timed repeats).
    """
    digest = hashlib.sha256()
    digest.update(f"records={result.records_injected};".encode())
    if with_state:
        digest.update(f"state={state_digest(result)};".encode())
    for stats in result.timeline.series():
        digest.update(f"t{stats.start_s!r}:{stats.count!r}:{stats.max_s!r};".encode())
    for migration in result.migrations:
        for step in migration.steps:
            digest.update(f"step@{step.issued_at!r}->{step.completed_at!r};".encode())
    return digest.hexdigest()


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)
