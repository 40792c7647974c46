"""Experiment orchestration: the reproduction's equivalent of the paper's
test harness.

``run_count_experiment`` assembles the counting microbenchmark (paper
§5.2-5.3) on a simulated cluster, optionally schedules migrations, and
returns latency timelines, per-migration timings, and memory timelines.
NEXMark experiments reuse the same orchestration through
``MigrationExperiment`` with a custom dataflow builder.
``result_fingerprint`` condenses the determinism-relevant outputs of any
run into the one digest that replay, the matrix gate and the host-only
contract pin.
"""

from __future__ import annotations

import hashlib
import time as wallclock
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.chaos.inject import ChaosInjector, FaultLog
from repro.chaos.plan import ChaosConfig
from repro.chaos.recovery import ConfigurationLedger, RecoveryCoordinator
from repro.chaos.watchdog import LivenessWatchdog, WatchdogConfig
from repro.elastic.autoscaler import Autoscaler, AutoscalerConfig
from repro.elastic.coordinator import ScalingCoordinator, ScalingReport
from repro.elastic.membership import MembershipDirectory
from repro.elastic.plan import ScalingPlan
from repro.errors import ConfigError
from repro.harness.latency import EpochLatencyRecorder, LatencyTimeline
from repro.harness.openloop import ElasticOpenLoopSource, OpenLoopSource
from repro.harness.workloads import (
    CountWorkload,
    SkewedCountWorkload,
    columnar_count_fold,
    count_fold,
)
from repro.megaphone.api import state_machine
from repro.megaphone.control import BinnedConfiguration, bin_bits
from repro.megaphone.controller import (
    EpochTicker,
    FaultHandling,
    MigrationController,
    MigrationResult,
    RetryPolicy,
)
from repro.megaphone.migration import STRATEGIES, imbalanced_target, make_plan
from repro.megaphone.snapshot import SnapshotCoordinator
from repro.planner.cost import MigrationCostModel
from repro.planner.policy import ClosedLoopPlanner, PlannerConfig, PlannerReport
from repro.planner.telemetry import LoadTelemetry
from repro.runtime_events.analyze import MigrationTrace
from repro.runtime_events.events import MemorySampled
from repro.sim.cost import CostModel
from repro.sim.engine import Simulator
from repro.sim.memory import MemoryTimeline, MemoryTimelineRecorder
from repro.sim.network import Cluster
from repro.state.registry import resolve_backend, resolve_codec
from repro.timely.dataflow import Dataflow

WORKLOADS = ("uniform", "skewed")
VARIANTS = ("key", "hash")  # bin state as dense arrays or as hash maps

# What the sharded engine (``parallel=0``) does not run, as (config field,
# label); a field is set when it is neither None nor False.
_SHARDED_UNSUPPORTED = (
    ("chaos", "fault injection (chaos)"),
    ("planner", "the closed-loop planner"),
    ("sample_memory", "memory sampling"),
    ("collect_trace", "migration trace collection"),
    ("native", "the native (non-migrateable) baseline"),
    # The obsv observers subscribe to *one* bus; a sharded run has one per
    # domain, so recording/export there would capture a single shard's
    # slice and present it as the whole run.
    ("record_log", "event-log recording (--record)"),
    ("export_metrics", "metrics export (--export-metrics)"),
    # The sharded engine partitions a fixed worker set.
    ("elastic", "elastic membership"),
)
# Fields that must be positive when set.
_POSITIVE_FIELDS = (
    "num_workers", "workers_per_process", "rate", "duration_s", "batch_size",
    "granularity_ms", "network_latency_s", "hot_capacity_bytes", "hot_keys",
)


@contextmanager
def _lower_check(prefix: str = ""):
    """Re-raise a lower-level check's ``ValueError`` as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


@dataclass
class ExperimentConfig:
    """Parameters of one migration experiment."""

    num_workers: int = 8
    workers_per_process: int = 4
    num_bins: int = 64
    domain: int = 1 << 16
    rate: float = 50_000.0
    duration_s: float = 20.0
    granularity_ms: int = 10
    dilation: int = 1  # event-time runs `dilation` times faster than epochs
    # Migration schedule: start times (simulated seconds) paired with the
    # strategy; targets default to imbalance-then-rebalance cycling.
    migrate_at_s: tuple = ()
    strategy: str = "batched"
    batch_size: int = 16
    gap_s: float = 0.0
    pace_s: Optional[float] = None  # timer pacing (None = await completion)
    variant: str = "key"  # "key" (dense arrays) or "hash" (hash maps)
    bytes_per_key: float = 8.0
    cost: Optional[CostModel] = None
    bandwidth_bytes_per_s: float = 1.25e9
    network_latency_s: float = 40e-6
    sample_memory: bool = False
    memory_sample_s: float = 0.25
    # State backend and codec (see repro.state).  "dict"/"modeled" is the
    # seed-identical default; "tiered" + hot_capacity_bytes spills cold bins
    # to a modeled cold tier (resident/spilled shows up in memory samples).
    state_backend: str = "dict"
    codec: str = "modeled"
    hot_capacity_bytes: Optional[int] = None
    # Base-then-delta migration shipping (requires a delta-capable backend;
    # others fall back to whole-bin silently).
    delta_migration: bool = False
    # Attach a MigrationTrace to the run's bus and expose it on the result
    # (per-bin phase breakdowns).  Observability only: a run is bit-identical
    # with or without it.
    collect_trace: bool = False
    # Observability surface (repro.obsv).  Both are strict observers —
    # bus subscribers that cannot perturb the simulation.  ``export_metrics``
    # streams JSON-line metric snapshots to a path ("-" = stdout);
    # ``record_log`` writes the versioned event log that `repro.cli replay`
    # re-executes.
    export_metrics: Optional[str] = None
    record_log: Optional[str] = None
    # Count bus events per topic into ``result.topic_counts``.  ``None``
    # disables; ``()`` counts every topic; a non-empty tuple counts only
    # those topics (replay uses this to diff against a recorded log).
    collect_topic_counts: Optional[tuple] = None
    native: bool = False  # run the non-migrateable baseline instead
    seed: int = 1
    # Fault injection.  None (the default) leaves every chaos hook unwired —
    # the run is byte-identical to a build without the chaos subsystem.
    chaos: Optional[ChaosConfig] = None
    # Key distribution: "uniform" (the paper's microbenchmark) or "skewed"
    # (Zipf-like heat on hot_keys keys — the regime the planner targets).
    workload: str = "uniform"
    hot_keys: int = 8
    hot_fraction: float = 0.9
    zipf_exponent: float = 1.0
    # Closed-loop planner.  None (the default) leaves telemetry, cost
    # models, and the decision loop unwired — the run is byte-identical to
    # a build without the planner subsystem.
    planner: Optional[PlannerConfig] = None
    # Engine choice (see repro.parallel).  None runs the legacy serial
    # engine; 0 runs the sharded reference engine, in-process.  Nothing
    # else is legal.
    parallel: Optional[int] = None
    # Hash every worker's final bin states into the result (sharded runs
    # always do; serial runs opt in — it is how serial-vs-sharded logical
    # equivalence is asserted).
    fingerprint_state: bool = False
    # Elastic membership (repro.elastic).  ``num_workers`` is the
    # *provisioned* slot universe; ``active_workers`` (None = all) is the
    # initially-active prefix.  A scaling plan scripts timed join/leave
    # events (its text form, e.g. "join@2:4,5", is parsed on construction);
    # an autoscaler config closes the loop from load telemetry.
    # Any of the three makes the run elastic: the open-loop source feeds a
    # dynamic worker set over a fixed virtual record universe, so final
    # bin state matches a static-membership twin's.
    active_workers: Optional[int] = None
    scaling_plan: Optional[ScalingPlan] = None
    autoscale: Optional[AutoscalerConfig] = None

    def __post_init__(self) -> None:
        """Every value rule of an experiment, checked at construction.

        Each raises :class:`ConfigError` with a message that starts with
        the field's name; where a lower-level check states the rule (the
        registries, the bin arithmetic, the scaling plan), it is called.
        """
        # Lists arrive from the CLI, matrix specs and event logs.
        self.migrate_at_s = tuple(self.migrate_at_s)
        if self.collect_topic_counts is not None:
            self.collect_topic_counts = tuple(self.collect_topic_counts)
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.num_workers % self.workers_per_process:
            raise ConfigError(
                f"num_workers ({self.num_workers}) must be divisible by "
                f"workers_per_process ({self.workers_per_process}): the "
                "cluster hosts equal-size process groups, and a ragged "
                "tail would leave a process with missing worker slots"
            )
        with _lower_check():
            bin_bits(self.num_bins)
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        for at in self.migrate_at_s:
            if not 0 < at < self.duration_s:
                raise ConfigError(
                    f"migrate_at_s {at} is outside (0, {self.duration_s}): a "
                    "migration must start after the run begins and before "
                    "the input closes"
                )
        with _lower_check(f"state_backend {self.state_backend!r}: "):
            resolve_backend(self.state_backend)
        with _lower_check(f"codec {self.codec!r}: "):
            resolve_codec(self.codec)
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"workload must be one of {WORKLOADS}, got {self.workload!r}"
            )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigError(
                f"hot_fraction must be within [0, 1], got {self.hot_fraction}"
            )
        if self.pace_s is not None and not (
            isinstance(self.pace_s, (int, float)) and self.pace_s > 0
        ):
            raise ConfigError(
                f"pace_s must be a positive number of seconds, got {self.pace_s!r}"
            )
        if self.active_workers is not None and not (
            1 <= self.active_workers <= self.num_workers
        ):
            raise ConfigError(
                f"active_workers must be in 1..{self.num_workers}, "
                f"got {self.active_workers}"
            )
        if isinstance(self.scaling_plan, str):
            with _lower_check(f"scaling_plan {self.scaling_plan!r}: "):
                self.scaling_plan = ScalingPlan.parse(self.scaling_plan)
        if self.scaling_plan is not None:
            with _lower_check(f"scaling_plan {self.scaling_plan.spec()!r}: "):
                self.scaling_plan.validate(self.num_workers, self.initial_active)
        if self.autoscale is not None:
            self.autoscale.validate(self.num_workers)
        if self.elastic and self.native:
            raise ConfigError(
                "native runs cannot be elastic: elastic membership needs the "
                "migrateable operator, and the native baseline has no "
                "routing table to rescale"
            )
        if self.parallel is not None:
            self._check_sharded()

    def _check_sharded(self) -> None:
        """Reject what the sharded engine cannot honor, at construction."""
        if self.parallel != 0:
            raise ConfigError(
                "parallel must be None (serial engine) or 0 (sharded "
                f"engine, in-process), got {self.parallel!r}: forked "
                "execution (--parallel N, N >= 1) was removed, having "
                "measured 0.3x the in-process engine it matched byte for "
                "byte; --parallel 0 runs the sharded engine in-process"
            )
        for attr, label in _SHARDED_UNSUPPORTED:
            value = getattr(self, attr)
            if value is not None and value is not False:
                raise ConfigError(
                    f"parallel: the sharded engine (--parallel 0) does not "
                    f"support {label}; run it serially (drop --parallel)"
                )

    @property
    def initial_active(self) -> int:
        """How many worker slots start active (a contiguous prefix)."""
        return (
            self.active_workers
            if self.active_workers is not None
            else self.num_workers
        )

    @property
    def elastic(self) -> bool:
        """True when the run's worker set can change (or starts partial)."""
        return (
            self.scaling_plan is not None
            or self.autoscale is not None
            or self.initial_active != self.num_workers
        )

    def make_workload(self):
        """The configured workload object (uniform or skewed)."""
        if self.workload == "skewed":
            return SkewedCountWorkload(
                domain=self.domain,
                seed=self.seed,
                hot_keys=self.hot_keys,
                hot_fraction=self.hot_fraction,
                zipf_exponent=self.zipf_exponent,
            )
        return CountWorkload(domain=self.domain, seed=self.seed)

    def backend_options(self) -> dict:
        """Backend-specific constructor options (None values are dropped
        by the registry, so flat backends see an empty dict).

        For the ``wal`` backend this mints a fresh :class:`WalRegistry` —
        the run's modeled disk.  It is owned by the returned dict (which
        ``MegaphoneConfig`` holds for the run's lifetime), so the logs
        survive process restarts inside one run but two runs of the same
        config never share storage.  Call once per run.
        """
        options: dict = {"hot_capacity_bytes": self.hot_capacity_bytes}
        if self.state_backend == "wal":
            from repro.state.wal import WalRegistry

            options["wal_registry"] = WalRegistry()
        return options

    def resolved_cost(self) -> CostModel:
        """The cost model, with the variant's per-record cost applied."""
        cost = self.cost if self.cost is not None else CostModel()
        cost = cost.with_overrides(state_bytes_per_key=self.bytes_per_key)
        if self.variant == "hash":
            # Hash-map bins pay hashing and probing on every update.
            cost = cost.with_overrides(record_cost=cost.record_cost * 2.5)
        return cost


@dataclass
class ExperimentResult:
    """Everything a benchmark reports from one run."""

    config: ExperimentConfig
    timeline: LatencyTimeline
    migrations: list[MigrationResult] = field(default_factory=list)
    memory: list[MemoryTimeline] = field(default_factory=list)
    records_injected: int = 0
    sim_events: int = 0
    wall_seconds: float = 0.0
    # Present when the config asked for trace collection.
    migration_trace: Optional[MigrationTrace] = None
    # Chaos outcome (None unless the config carried a ChaosConfig):
    # verdict is the watchdog's "completed" / "recovered" / "stalled".
    chaos_verdict: Optional[str] = None
    chaos_recoveries: int = 0
    chaos_diagnoses: list = field(default_factory=list)
    abandoned_steps: int = 0
    fault_log: Optional[FaultLog] = None
    # Durable recovery outcome (wal backend under chaos): per-worker state
    # fingerprints taken right after log replay, and the structured damage
    # reports the replay surfaced.
    recovered_fingerprints: dict = field(default_factory=dict)
    storage_faults: list = field(default_factory=list)
    # Planner outcome (None unless the config carried a PlannerConfig):
    # the decision log plus the end-of-run max/mean worker-load ratio.
    planner: Optional[PlannerReport] = None
    final_imbalance: float = 0.0
    # The calibrated cost model (post-run), for prediction-vs-observed checks.
    cost_model: Optional[MigrationCostModel] = None
    # Sharded-run report (None for serial runs): domains, rounds,
    # lookahead, per-domain event and record counts, per-worker state
    # fingerprints.
    parallel: Optional[dict] = None
    # Per-topic bus event counts (when the config asked for them).
    topic_counts: dict = field(default_factory=dict)
    # Per-worker final state fingerprints (sharded always; serial when the
    # config sets ``fingerprint_state``).
    state_fingerprints: dict = field(default_factory=dict)
    # Elastic membership outcome (None unless the run was elastic): the
    # directory's transition history, the coordinator's per-operation
    # report, the autoscaler's decision log, and an owner-independent
    # digest of all bin state (the pin against a static-membership twin).
    membership: list = field(default_factory=list)
    scaling: Optional[ScalingReport] = None
    autoscale_decisions: list = field(default_factory=list)
    cluster_fingerprint: Optional[str] = None

    def migration_window(self, index: int) -> tuple[float, float]:
        """(start, end) of migration ``index``, padded by one window."""
        migration = self.migrations[index]
        start = migration.started_at or 0.0
        end = migration.completed_at or start
        return (start - 0.25, end + self.timeline.window_s + 0.25)

    def migration_max_latency(self, index: int) -> float:
        """Largest latency observed during migration ``index``."""
        start, end = self.migration_window(index)
        return self.timeline.max_between(start, end)

    def migration_duration(self, index: int) -> float:
        """Duration of migration ``index`` (first issue to last completion)."""
        return self.migrations[index].duration or 0.0

    def steady_max_latency(self, warmup_s: float = 1.0) -> float:
        """Largest latency outside every migration window (after warmup)."""
        best = 0.0
        for stats in self.timeline.series():
            if stats.start_s < warmup_s:
                continue
            inside = any(
                self.migration_window(i)[0] <= stats.start_s < self.migration_window(i)[1]
                for i in range(len(self.migrations))
            )
            if not inside:
                best = max(best, stats.max_s)
        return best

    def overall_max_latency(self, warmup_s: float = 1.0) -> float:
        """Largest latency after warmup, migrations included."""
        best = 0.0
        for stats in self.timeline.series():
            if stats.start_s >= warmup_s:
                best = max(best, stats.max_s)
        return best


class MigrationExperiment:
    """Drives a dataflow with open-loop input and scheduled migrations.

    The builder callback receives ``(dataflow, control_stream, data_stream,
    config)`` and returns ``(probe_stream, migrateable_op_or_None,
    state_bytes_fn_or_None)``; everything else — ticking, load, migration
    control, sampling, shutdown — is shared orchestration.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        build: Callable,
        generator: Callable[[int, int, int], list],
        record_extra: Optional[dict] = None,
    ) -> None:
        self.config = config
        self._build = build
        self._generator = generator
        # Event-log header extras (the nexmark harness records its query
        # number here so replay can dispatch the right runner).
        self._record_extra = record_extra

    def run(self) -> ExperimentResult:
        cfg = self.config
        started = wallclock.perf_counter()
        sim = Simulator()
        cluster = Cluster(
            sim,
            num_workers=cfg.num_workers,
            workers_per_process=cfg.workers_per_process,
            bandwidth_bytes_per_s=cfg.bandwidth_bytes_per_s,
            network_latency_s=cfg.network_latency_s,
            cost=cfg.resolved_cost(),
        )
        df = Dataflow(cluster)
        control, control_group = df.new_input("control")
        data, data_group = df.new_input("data")
        probe_stream, op, state_bytes_fn = self._build(df, control, data, cfg)
        probe = df.probe(probe_stream)
        runtime = df.build()

        migration_trace = MigrationTrace(sim.trace) if cfg.collect_trace else None

        # -- observability (repro.obsv): exporter, recorder, topic counts ----
        # All of these are bus subscribers; the simulation is byte-identical
        # with or without them.  Imported lazily so the harness stays cheap
        # for the overwhelmingly common unobserved run.
        exporter = None
        if cfg.export_metrics:
            from repro.obsv.exporter import MetricsExporter

            exporter = MetricsExporter(sim.trace, jsonl=cfg.export_metrics)
        event_log = None
        if cfg.record_log:
            from repro.obsv.eventlog import EventLogRecorder

            event_log = EventLogRecorder(
                cfg, sim.trace, cfg.record_log, extra=self._record_extra
            )
        topic_counts: dict = {}
        if cfg.collect_topic_counts is not None:

            def _count_topic(event, _counts=topic_counts) -> None:
                _counts[event.topic] = _counts.get(event.topic, 0) + 1

            sim.trace.subscribe(
                _count_topic, topics=cfg.collect_topic_counts or None
            )

        timeline = LatencyTimeline()
        recorder = EpochLatencyRecorder(
            runtime, probe, cfg.granularity_ms, timeline, dilation=cfg.dilation
        )
        source_kwargs = dict(
            rate=cfg.rate,
            duration_s=cfg.duration_s,
            granularity_ms=cfg.granularity_ms,
            recorder=recorder,
            dilation=cfg.dilation,
        )
        if cfg.elastic:
            # Dynamic feed set over a fixed virtual record universe: final
            # bin state is pinned to a static-membership twin's.
            source = ElasticOpenLoopSource(
                runtime,
                data_group,
                self._generator,
                active=list(range(cfg.initial_active)),
                **source_kwargs,
            )
        else:
            source = OpenLoopSource(
                runtime, data_group, self._generator, **source_kwargs
            )
        ticker = EpochTicker(
            runtime,
            control_group,
            granularity_ms=cfg.granularity_ms,
            dilation=cfg.dilation,
        )

        # -- fault injection (inert unless the config carries a ChaosConfig) --
        chaos = cfg.chaos
        injector = None
        watchdog = None
        ledger = None
        coordinator = None
        fault_log = None
        snapshot_box: dict = {}
        # Every controller of the run (scheduled, planner- and scaling-
        # spawned) in construction order: the order the watchdog nudges them
        # in and the result lists their migrations in.
        controllers: list[MigrationController] = []
        if chaos is not None:
            fault_log = FaultLog(sim.trace)
            injector = ChaosInjector(runtime, chaos.plan)
            injector.install()
            if op is not None:
                op.config.recovery_mode = True
                ledger = ConfigurationLedger(op.config.initial)
                # Durable storage: crashes damage the worker logs (per the
                # plan's storage-fault knobs), and restarts recover from
                # those logs instead of in-memory snapshots.
                wal_registry = op.config.backend_options.get("wal_registry")
                if wal_registry is not None:
                    plan_seed = chaos.plan.seed

                    def _crash_storage(crash, workers, _reg=wal_registry):
                        _reg.apply_crash_faults(
                            workers,
                            lose_unsynced_tail=crash.lose_unsynced_tail,
                            torn_write=crash.torn_write,
                            bit_flips=crash.bit_flips,
                            seed=plan_seed,
                        )

                    injector.on_crash_storage(_crash_storage)
                coordinator = RecoveryCoordinator(
                    runtime,
                    op,
                    ledger,
                    injector=injector,
                    snapshot_provider=lambda: snapshot_box.get("snapshot"),
                    durable=wal_registry is not None,
                )
                if chaos.snapshot_at_s is not None:
                    # Capture a consistent cut at the epoch corresponding to
                    # the requested simulated time (EpochTicker's mapping).
                    snap_epoch = (
                        int(round(chaos.snapshot_at_s * 1000 / cfg.granularity_ms))
                        * cfg.granularity_ms
                        * cfg.dilation
                    )
                    SnapshotCoordinator(
                        runtime,
                        op,
                        probe,
                        snap_epoch,
                        on_complete=lambda s: snapshot_box.update(snapshot=s),
                    )
            watchdog = LivenessWatchdog(
                runtime,
                probe,
                config=chaos.watchdog
                if chaos.watchdog is not None
                else WatchdogConfig(),
                injector=injector,
                on_stall=lambda _diag: [c.nudge() for c in controllers],
            )
            watchdog.start()

        # -- closed-loop planner (inert unless the config carries one) --------
        planner = None
        telemetry = None
        cost_model = None
        if cfg.planner is not None and op is not None:
            telemetry = LoadTelemetry(
                runtime, op, cfg.planner.telemetry, num_workers=cfg.num_workers
            )
            cost_model = MigrationCostModel(
                sim.trace,
                prior=cfg.resolved_cost(),
                bandwidth_bytes_per_s=cfg.bandwidth_bytes_per_s,
                network_latency_s=cfg.network_latency_s,
            )

        def _membership_placeable(worker: int) -> bool:
            # Crash retargeting must respect membership in elastic runs:
            # orphaned bins may only land on active or joining workers,
            # never on a draining evacuee or an idle standby slot.  The
            # directory is created further down (elastic block) and read
            # late-bound; non-elastic runs see no directory and keep the
            # original any-live-worker behavior.
            if directory is None:
                return True
            return directory.state_of(worker) in ("joining", "active")

        def make_controller(plan, *, gap_s, pace_s=None, reconcile=False, on_done=None):
            # All controllers share one ledger, so exactly one reconciles
            # crashes: the first scheduled migration.  (Controllers exist
            # only with a migrateable op, hence with a recovery coordinator.)
            faults = None
            if chaos is not None:
                faults = FaultHandling(
                    retry=chaos.retry if chaos.retry is not None else RetryPolicy(),
                    injector=injector,
                    ledger=ledger,
                    on_recovery_step=coordinator.on_recovery_step,
                    reconcile=reconcile,
                    placeable=_membership_placeable,
                )
            controller = MigrationController(
                runtime, control_group, ticker, probe, plan,
                gap_s=gap_s, pace_s=pace_s, on_done=on_done, faults=faults,
            )
            controllers.append(controller)
            return controller

        if op is not None and cfg.migrate_at_s:
            initial = op.config.initial
            current = initial
            for i, at_s in enumerate(cfg.migrate_at_s):
                target = imbalanced_target(initial) if i % 2 == 0 else initial
                plan = make_plan(cfg.strategy, current, target, cfg.batch_size)
                controller = make_controller(
                    plan, gap_s=cfg.gap_s, pace_s=cfg.pace_s, reconcile=(i == 0)
                )
                controller.start_at(at_s)
                current = target

        planner_box: dict = {}
        if telemetry is not None:
            planner = ClosedLoopPlanner(
                runtime,
                op,
                control_group,
                ticker,
                probe,
                telemetry,
                cost_model,
                cfg.planner,
                controller_factory=lambda plan: make_controller(
                    plan, gap_s=cfg.planner.gap_s
                ),
                stop_s=cfg.duration_s,
            )
            telemetry.start(0.0)
            planner.start()
            # The reported imbalance is the ratio while load still flows;
            # sampling after the source stops would read an empty window.
            sim.schedule_at(
                cfg.duration_s,
                lambda: planner_box.update(imbalance=telemetry.imbalance()),
            )

        # -- elastic membership (inert unless the config is elastic) ----------
        directory = None
        scaling = None
        autoscaler = None
        if cfg.elastic and op is not None:
            directory = MembershipDirectory(
                cfg.num_workers, cfg.initial_active, sim=sim
            )
            if cfg.autoscale is not None and telemetry is None:
                # The autoscaler needs load telemetry even without a
                # planner; default sampling knobs match the planner's.
                telemetry = LoadTelemetry(
                    runtime, op, num_workers=cfg.num_workers
                )
                telemetry.start(0.0)

            scaling = ScalingCoordinator(
                runtime,
                op,
                directory,
                source,
                controller_factory=lambda plan, on_done: make_controller(
                    plan, gap_s=cfg.gap_s, pace_s=cfg.pace_s, on_done=on_done
                ),
                strategy=cfg.strategy,
                batch_size=cfg.batch_size,
                telemetry=telemetry,
                ledger=ledger,
            )
            if cfg.scaling_plan is not None:
                for event in cfg.scaling_plan.events:
                    request = (
                        scaling.request_join
                        if event.action == "join"
                        else scaling.request_leave
                    )
                    sim.schedule_at(
                        event.at_s,
                        lambda req=request, ws=event.workers: req(ws),
                    )
            if cfg.autoscale is not None:
                autoscaler = Autoscaler(
                    runtime, telemetry, directory, scaling, cfg.autoscale,
                    stop_s=cfg.duration_s,
                )
                autoscaler.start()

        if cfg.sample_memory:
            memory_recorder = MemoryTimelineRecorder(
                sim.trace, len(cluster.processes)
            )
            memory_timelines = memory_recorder.timelines
            self._schedule_memory_sampler(
                runtime, cluster, state_bytes_fn, injector
            )
        else:
            memory_timelines = [
                MemoryTimeline(process=p.index) for p in cluster.processes
            ]

        ticker.start()
        source.start()

        runtime.run(until=cfg.duration_s + 1.0)
        if planner is not None:
            planner.stop()
        if autoscaler is not None:
            autoscaler.stop()

        def _pending() -> bool:
            return (
                any(not c.done for c in controllers)
                or (scaling is not None and scaling.busy)
                or (planner is not None and not planner.done)
            )

        def _settled() -> bool:
            # A gave-up watchdog also settles the run: stop driving and
            # report the stall (verdict + diagnosis) instead of spinning.
            settled = not _pending() or (watchdog is not None and watchdog.failed)
            if settled and telemetry is not None:
                telemetry.stop()  # sampling ends at the tick that settles
            return settled

        if _settled():
            ticker.stop()
        else:
            # Drain in simulated time: the ticker closes the control input
            # at the first tick where nothing is pending, so the idle tail
            # the timeline records does not depend on the chunk size below.
            ticker.stop_when(_settled)
            guard = 0
            while not ticker.closed:
                runtime.sim.run(max_events=100_000)
                guard += 1
                if guard > 10_000:
                    if chaos is not None:
                        break
                    raise RuntimeError(
                        "migration did not complete; dataflow stalled"
                    )
            if telemetry is not None:
                telemetry.stop()
            ticker.stop()
        runtime.run_to_quiescence()

        if fault_log is not None:
            fault_log.close()
        result = ExperimentResult(
            config=cfg,
            timeline=timeline,
            migrations=[c.result for c in controllers],
            memory=memory_timelines,
            records_injected=source.records_injected,
            sim_events=sim.events_processed,
            wall_seconds=wallclock.perf_counter() - started,
            migration_trace=migration_trace,
        )
        if watchdog is not None:
            result.chaos_verdict = watchdog.verdict
            result.chaos_recoveries = watchdog.recoveries
            result.chaos_diagnoses = list(watchdog.diagnoses)
        if chaos is not None:
            result.abandoned_steps = sum(len(c.abandoned) for c in controllers)
            result.fault_log = fault_log
            if coordinator is not None:
                result.recovered_fingerprints = dict(
                    coordinator.recovered_fingerprints
                )
                result.storage_faults = list(coordinator.storage_faults)
        if planner is not None:
            result.planner = planner.report
            result.final_imbalance = planner_box.get(
                "imbalance", telemetry.imbalance()
            )
            cost_model.close()
            result.cost_model = cost_model
        if directory is not None:
            result.membership = list(directory.history)
            result.scaling = scaling.report
            if autoscaler is not None:
                result.autoscale_decisions = list(autoscaler.decisions)
        # Recording forces state fingerprints: the log's footer fingerprint
        # must cover final state, or replay would verify a weaker pin.
        if (cfg.fingerprint_state or event_log is not None) and op is not None:
            from repro.chaos.recovery import cluster_fingerprint, store_fingerprint

            result.state_fingerprints = {
                w: store_fingerprint(store) for w, store in op.stores(runtime)
            }
            result.cluster_fingerprint = cluster_fingerprint(
                store for _w, store in op.stores(runtime)
            )
        result.topic_counts = topic_counts
        if exporter is not None:
            exporter.close()
        if event_log is not None:
            event_log.finalize(result)
        return result

    def _schedule_memory_sampler(
        self, runtime, cluster, state_bytes_fn, injector=None
    ) -> None:
        """Publish a ``MemorySampled`` event per process every sampling tick.

        The sampler is part of the simulation (it refreshes modeled state
        bytes and runs whether or not anyone subscribed), so attaching or
        detaching memory consumers cannot perturb determinism.
        """
        cfg = self.config
        sim = runtime.sim
        trace = sim.trace

        def sample() -> None:
            for process in cluster.processes:
                dead = injector is not None and injector.is_dead(
                    process.worker_ids[0]
                )
                if state_bytes_fn is not None and not dead:
                    resident = 0
                    spilled = 0
                    for w in process.worker_ids:
                        measured = state_bytes_fn(w)
                        # Backend-aware builders report (resident, spilled);
                        # scalar returns mean everything is resident.
                        if isinstance(measured, tuple):
                            resident += measured[0]
                            spilled += measured[1]
                        else:
                            resident += measured
                    process.memory.set_state(resident, spilled)
                trace.publish(
                    MemorySampled(
                        process=process.index,
                        rss_bytes=process.memory.rss_bytes,
                        at=sim.now,
                        spilled_bytes=process.memory.spilled_state_bytes,
                    )
                )
            if sim.now < cfg.duration_s + 1.0:
                sim.schedule(cfg.memory_sample_s, sample)

        sim.schedule_at(0.0, sample)


# -- the counting microbenchmark ------------------------------------------------


def _build_megaphone_count(df, control, data, cfg: ExperimentConfig):
    workload = cfg.make_workload()
    # Bins start on the initially-active prefix only; standby slots own
    # nothing until a scale-out seeds them.
    initial = BinnedConfiguration.round_robin(cfg.num_bins, cfg.initial_active)
    op = state_machine(
        control,
        data,
        exchange=lambda key: key,
        fold=count_fold,
        num_bins=cfg.num_bins,
        initial=initial,
        name="count",
        state_factory=workload.state_factory_for(cfg.num_bins),
        state_size_fn=lambda state: len(state) * cfg.bytes_per_key,
        state_backend=cfg.state_backend,
        codec=cfg.codec,
        backend_options=cfg.backend_options(),
        columnar_applier=columnar_count_fold,
        delta_migration=cfg.delta_migration,
    )

    def state_bytes_fn(worker: int) -> tuple:
        runtime = df._runtime
        shared = runtime.workers[worker].shared
        store = shared.get("megaphone:count")
        if store is None:
            return (0, 0)
        return (store.resident_state_size(), store.spilled_state_size())

    return op.output, op, state_bytes_fn


class _NativeCountLogic:
    """Hand-tuned non-migrateable count operator (the paper's 'Native')."""

    def __init__(self, cfg: ExperimentConfig, worker_id: int) -> None:
        from repro.harness.workloads import ModeledCountState

        self._state = ModeledCountState(
            expected_keys=cfg.domain / cfg.num_workers
        )
        self._pending: dict[int, int] = {}

    def on_input(self, ctx, port, time, records):
        if time not in self._pending:
            self._pending[time] = 0
            ctx.notify_at(time)
        self._pending[time] += len(records)
        state = self._state
        for key, diff in records:
            state.add(key, diff)

    def on_notify(self, ctx, time):
        # Emission point: counts for `time` are final.
        self._pending.pop(time, None)


def _build_native_count(df, control, data, cfg: ExperimentConfig):
    from repro.timely.graph import Exchange

    out = data.unary(
        "native_count",
        lambda worker_id: _NativeCountLogic(cfg, worker_id),
        pact=Exchange(lambda record: record[0]),
    )
    # The control stream still needs a consumer so its frontier drains.
    control.sink(name="control_sink")

    def state_bytes_fn(worker: int) -> float:
        return (cfg.domain / cfg.num_workers) * cfg.bytes_per_key

    return out, None, state_bytes_fn


def run_count_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the counting microbenchmark under ``cfg``."""
    if cfg.parallel is not None:
        from repro.parallel.runner import run_parallel_count_experiment

        return run_parallel_count_experiment(cfg)
    workload = cfg.make_workload()
    build = _build_native_count if cfg.native else _build_megaphone_count
    experiment = MigrationExperiment(cfg, build, workload.make_generator())
    return experiment.run()


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
