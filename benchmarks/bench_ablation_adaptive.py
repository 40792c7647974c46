"""Ablation: latency-aware adaptive step sizing vs fixed strategies.

The adaptive step source (an Albatross-style throttling policy expressed
through Megaphone's control stream) steers each step's duration toward a
target.  It should land between fluid and all-at-once: close to fluid's
max latency while finishing far sooner than fluid, without hand-picking a
batch size.
"""


from _common import count_config, run_once
from repro.harness.experiment import run_count_experiment
from repro.harness.report import format_duration, format_latency, print_table
from repro.harness.workloads import CountWorkload
from repro.megaphone.controller import (
    AdaptiveConfig,
    AdaptiveSteps,
    EpochTicker,
    MigrationController,
)
from repro.megaphone.migration import imbalanced_target

DOMAIN = 4096 * 10**6
BINS = 1024
TARGET_STEP_S = 0.3


def _run_fixed(strategy):
    cfg = count_config(
        num_bins=BINS, domain=DOMAIN, duration_s=8.0,
        migrate_at_s=(2.0,), strategy=strategy, batch_size=16,
    )
    return run_count_experiment(cfg)


def _run_adaptive():
    """Wire the adaptive step source through the standard experiment."""
    from repro.harness.experiment import _build_megaphone_count

    cfg = count_config(num_bins=BINS, domain=DOMAIN, duration_s=8.0)
    workload = CountWorkload(domain=cfg.domain, seed=cfg.seed)

    # The standard harness always hands its controllers a plan, so this
    # assembles the same pieces around an adaptive step source.
    from repro.harness.latency import EpochLatencyRecorder, LatencyTimeline
    from repro.harness.openloop import OpenLoopSource
    from repro.sim.engine import Simulator
    from repro.sim.network import Cluster
    from repro.timely.dataflow import Dataflow
    import time as wallclock

    started = wallclock.perf_counter()
    sim = Simulator()
    cluster = Cluster(
        sim, num_workers=cfg.num_workers,
        workers_per_process=cfg.workers_per_process,
        bandwidth_bytes_per_s=cfg.bandwidth_bytes_per_s,
        network_latency_s=cfg.network_latency_s, cost=cfg.resolved_cost(),
    )
    df = Dataflow(cluster)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")
    out, op, state_fn = _build_megaphone_count(df, control, data, cfg)
    probe = df.probe(out)
    runtime = df.build()
    timeline = LatencyTimeline()
    recorder = EpochLatencyRecorder(runtime, probe, cfg.granularity_ms, timeline)
    source = OpenLoopSource(
        runtime, data_group, workload.make_generator(), rate=cfg.rate,
        duration_s=cfg.duration_s, granularity_ms=cfg.granularity_ms,
        recorder=recorder,
    )
    ticker = EpochTicker(runtime, control_group, granularity_ms=cfg.granularity_ms)
    steps = AdaptiveSteps(
        op.config.initial, imbalanced_target(op.config.initial),
        config=AdaptiveConfig(initial_batch=2, target_step_s=TARGET_STEP_S),
    )
    controller = MigrationController(runtime, control_group, ticker, probe, steps)
    controller.start_at(2.0)
    ticker.start()
    source.start()
    runtime.run(until=cfg.duration_s + 1.0)
    guard = 0
    while not controller.done:
        runtime.sim.run(max_events=100_000)
        guard += 1
        assert guard < 10_000
    ticker.stop()
    runtime.run_to_quiescence()

    from repro.harness.experiment import ExperimentResult
    result = ExperimentResult(
        config=cfg, timeline=timeline, migrations=[controller.result],
        records_injected=source.records_injected,
        sim_events=sim.events_processed,
        wall_seconds=wallclock.perf_counter() - started,
    )
    result.batch_history = [step.moves for step in controller.result.steps]
    return result


def bench_ablation_adaptive(benchmark, sink):
    def run():
        return {
            "fluid": _run_fixed("fluid"),
            "all-at-once": _run_fixed("all-at-once"),
            "adaptive": _run_adaptive(),
        }

    results = run_once(benchmark, run)
    rows = [
        (
            label,
            format_latency(res.migration_max_latency(0)),
            format_duration(res.migration_duration(0)),
            len(res.migrations[0].steps),
        )
        for label, res in results.items()
    ]
    print_table(
        f"Ablation: adaptive step sizing (target step {TARGET_STEP_S * 1000:.0f} ms)",
        ["controller", "max latency", "duration", "steps"],
        rows,
        out=sink,
    )
    sink("adaptive batch history: " + str(results["adaptive"].batch_history))

    adaptive = results["adaptive"]
    fluid = results["fluid"]
    allatonce = results["all-at-once"]
    # Adaptive: far below all-at-once's latency...
    assert adaptive.migration_max_latency(0) < allatonce.migration_max_latency(0) / 5
    # ...and far below fluid's duration.
    assert adaptive.migration_duration(0) < fluid.migration_duration(0) / 2
    # The batch size actually adapted.
    assert len(set(adaptive.batch_history)) > 1
