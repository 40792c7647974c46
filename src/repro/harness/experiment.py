"""Experiment orchestration: the reproduction's equivalent of the paper's
test harness.

``MigrationExperiment`` builds a run's core (cluster, dataflow, probe,
latency recorder, open-loop source, ticker and the one migration
controller) and attaches each optional part to it: observability, chaos,
the paper's migration schedule, the planner, elastic membership and
memory sampling, each from its own package, imported only when the
config asks for the part.  ``run_count_experiment``
runs the counting microbenchmark (paper §5.2-5.3) through it; NEXMark
passes its own dataflow builder.  ``result_fingerprint`` condenses the
determinism-relevant outputs of any run into the one digest that replay,
the matrix gate and the host-only contract pin.
"""

from __future__ import annotations

import hashlib
import importlib
import time as wallclock
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

# The config classes ``ExperimentConfig`` names: the settings codec
# resolves its type hints, so they are imported here, from modules that
# import no part code.
from repro.chaos.plan import ChaosConfig
from repro.elastic.plan import AutoscalerConfig, ScalingPlan
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
    MigrationController,
    MigrationResult,
)
from repro.megaphone.migration import STRATEGIES, MigrationPlan, imbalanced_target, make_plan
from repro.megaphone.operators import MigrateableOperator
from repro.nexmark.config import NexmarkConfig
from repro.planner.config import PlannerConfig
from repro.runtime_events.events import TOPICS
from repro.settings import check_fields
from repro.sim.cost import CostModel
from repro.sim.engine import Simulator
from repro.sim.memory import MemoryTimeline
from repro.sim.network import Cluster
from repro.state.registry import resolve_backend, resolve_codec
from repro.timely.dataflow import Dataflow, Runtime
from repro.timely.probe import Probe

if TYPE_CHECKING:  # result field types, from the parts that fill them
    from repro.chaos.inject import FaultLog
    from repro.elastic.coordinator import ScalingReport
    from repro.planner.policy import PlannerReport
    from repro.runtime_events.analyze import MigrationTrace

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
    ("record_log", "event-log recording (record_log)"),
    ("export_metrics", "metrics export (export_metrics)"),
    # The sharded engine partitions a fixed worker set.
    ("elastic", "elastic membership"),
    # The sharded runner builds the count dataflow only.
    ("query", "NEXMark queries"),
)
# Fields that must be positive when set.
_POSITIVE_FIELDS = (
    "num_workers", "workers_per_process", "rate", "duration_s", "batch_size",
    "granularity_ms", "network_latency_s", "hot_capacity_bytes", "hot_keys",
    "pace_s",
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
    migrate_at_s: tuple[float, ...] = ()
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
    # Base-then-delta migration shipping (needs the wal backend, the one
    # that tracks per-key dirty epochs; a bin whose state it cannot track,
    # such as the count workload's, still ships whole).
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
    collect_topic_counts: Optional[tuple[str, ...]] = None
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
    # NEXMark (repro.nexmark): run query ``query`` (1-8) instead of the
    # counting workload, on the auction site ``nexmark`` describes (a table
    # of NexmarkConfig fields; None is its defaults).
    query: Optional[int] = None
    nexmark: Optional[NexmarkConfig] = None
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
        # Settings arrive as tables from the CLI, matrix specs and event
        # logs: every field, nested tables included, takes its type first.
        check_fields(self)
        if self.collect_topic_counts is not None:
            unknown = sorted(set(self.collect_topic_counts) - set(TOPICS))
            if unknown:
                raise ConfigError(
                    f"collect_topic_counts names unknown topics {unknown}; "
                    f"known: {', '.join(TOPICS)}"
                )
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
                f"strategy must be one of {tuple(STRATEGIES)}, got {self.strategy!r}"
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
        if self.delta_migration and self.state_backend != "wal":
            raise ConfigError(
                f"delta_migration needs a state_backend that tracks dirty "
                f"keys (wal), got state_backend {self.state_backend!r}: no "
                "delta can ship from it"
            )
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"workload must be one of {WORKLOADS}, got {self.workload!r}"
            )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigError(
                f"hot_fraction must be within [0, 1], got {self.hot_fraction}"
            )
        if self.active_workers is not None and not (
            1 <= self.active_workers <= self.num_workers
        ):
            raise ConfigError(
                f"active_workers must be in 1..{self.num_workers}, "
                f"got {self.active_workers}"
            )
        if self.scaling_plan is not None:
            with _lower_check(f"scaling_plan {self.scaling_plan.spec()!r}: "):
                self.scaling_plan.validate(self.num_workers, self.initial_active)
        if self.autoscale is not None:
            self.autoscale.validate(self.num_workers)
        if self.nexmark is not None and self.query is None:
            raise ConfigError("nexmark settings need a query (1-8) to run")
        if self.query is not None:
            from repro.nexmark.queries import QUERIES

            if self.query not in QUERIES:
                raise ConfigError(
                    f"query must be one of {sorted(QUERIES)}, got {self.query!r}"
                )
        if self.planner is not None and self.elastic:
            name = (
                "scaling_plan" if self.scaling_plan is not None
                else "autoscale" if self.autoscale is not None
                else "active_workers"
            )
            raise ConfigError(
                f"planner cannot be combined with {name}: the planner's "
                "telemetry and objectives count every provisioned slot, so "
                "it would balance load onto standby and retired workers"
            )
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
                "execution (parallel=N, N >= 1) was removed, having "
                "measured 0.3x the in-process engine it matched byte for "
                "byte; parallel=0 runs the sharded engine in-process"
            )
        for attr, label in _SHARDED_UNSUPPORTED:
            value = getattr(self, attr)
            if value is not None and value is not False:
                raise ConfigError(
                    f"parallel: the sharded engine (parallel=0) does not "
                    f"support {label}; run it serially (leave parallel unset)"
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
    # Callbacks the simulator fired: the count digests hash.
    sim_callbacks: int = 0
    # Heap entries they fired from: the engine's own bookkeeping, reported
    # but in no digest.
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
    # The planner's calibrated cost model (post-run), for prediction checks.
    cost_model: object = None
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


@dataclass(eq=False)
class Run:
    """One run's core, which each part in :data:`_PARTS` attaches to.

    A part may set ``injector`` or add hooks: ``busy`` (the run does not
    settle while one returns True), ``on_input_closed``, ``on_settled``
    (called once the input closes, and when the run settles), and
    ``gave_up`` (the run then settles and reports the stall).
    """

    config: ExperimentConfig
    sim: Simulator
    runtime: Runtime  # its ``cluster`` is the simulated cluster
    op: Optional[MigrateableOperator]
    probe: Probe
    source: OpenLoopSource
    # The one writer of the control stream (None for a native run).
    controller: Optional[MigrationController]
    state_bytes_fn: Optional[Callable] = None  # the builder's, if any
    injector: object = None  # the chaos part's: who is dead right now
    busy: list = field(default_factory=list)
    on_input_closed: list = field(default_factory=list)
    on_settled: list = field(default_factory=list)
    gave_up: Optional[Callable[[], bool]] = None


def schedule_migrations(controller: MigrationController, cfg: ExperimentConfig) -> None:
    """The paper's schedule: even entries of ``migrate_at_s`` move half of
    the first half of the workers' bins onto the second half, odd entries
    send those bins home.  Each plan is built from the controller's
    assignment when its migration starts, so a move another writer already
    made (a drain, the planner) is not sent again."""
    initial = controller.current
    imbalanced = imbalanced_target(initial)
    scripted = (initial.moved_bins(imbalanced), imbalanced.moved_bins(initial))
    for i, at_s in enumerate(cfg.migrate_at_s):
        controller.submit(
            partial(_scheduled_plan, cfg.strategy, scripted[i % 2], cfg.batch_size),
            at_s=at_s, gap_s=cfg.gap_s, pace_s=cfg.pace_s,
        )


def _attach_schedule(run: Run) -> None:
    if run.controller is not None:
        schedule_migrations(run.controller, run.config)


def _part(module: str, wanted: Callable[[ExperimentConfig], bool]) -> Callable:
    """Attach part ``module`` to a run whose config ``wanted``; the module
    is imported then, so a run loads only the parts it asks for."""

    def attach(run: Run):
        if not wanted(run.config):
            return None
        return importlib.import_module(module).attach(run)

    return attach


def _observed(cfg: ExperimentConfig) -> bool:
    return bool(
        cfg.collect_trace or cfg.export_metrics or cfg.record_log
        or cfg.collect_topic_counts is not None
    )


# The optional parts, in attach order, which decides the order of callbacks
# due at one instant.  Each returns None when its config is off or the run
# gives it nothing to do, else an object whose ``finish(result)`` fills its
# own result fields; they finish in reverse order, so the event log
# (attached first) sees a full result.
_PARTS = (
    _part("repro.obsv.part", _observed),
    _part("repro.chaos.part", lambda cfg: cfg.chaos is not None),
    _attach_schedule,
    _part("repro.planner.part", lambda cfg: cfg.planner is not None),
    _part("repro.elastic.part", lambda cfg: cfg.elastic),
    _part("repro.sim.memory", lambda cfg: cfg.sample_memory),
)


class MigrationExperiment:
    """Drives a dataflow with open-loop input and scheduled migrations.

    The builder callback receives ``(dataflow, control_stream, data_stream,
    config)`` and returns ``(probe_stream, migrateable_op_or_None,
    state_bytes_fn_or_None)``; ``state_bytes_fn(worker)`` gives the memory
    sampler the state bytes of an operator that is not migrateable (a
    migrateable one's stores are read directly).  The core — cluster,
    dataflow, probe, latency recorder, source, ticker and the one
    controller — is built here; every optional part attaches to it.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        build: Callable,
        generator: Callable[[int, int, int], list],
    ) -> None:
        self.config = config
        self._build = build
        self._generator = generator

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
        controller = None
        if op is not None:
            controller = MigrationController(
                runtime, control_group, probe, op.config.initial
            )
        run = Run(cfg, sim, runtime, op, probe, source, controller, state_bytes_fn)
        parts = [part for part in (attach(run) for attach in _PARTS) if part]

        ticker.start()
        source.start()
        runtime.run(until=cfg.duration_s + 1.0)
        for hook in run.on_input_closed:
            hook()

        def _settled() -> bool:
            pending = (controller is not None and not controller.done) or any(
                busy() for busy in run.busy
            )
            settled = not pending or (run.gave_up is not None and run.gave_up())
            if settled:
                for hook in run.on_settled:
                    hook()
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
                    if run.gave_up is not None:
                        break
                    raise RuntimeError(
                        "migration did not complete; dataflow stalled"
                    )
            for hook in run.on_settled:
                hook()
            ticker.stop()
        runtime.run_to_quiescence()

        result = ExperimentResult(
            config=cfg,
            timeline=timeline,
            migrations=controller.results if controller is not None else [],
            memory=[MemoryTimeline(process=p.index) for p in cluster.processes],
            records_injected=source.records_injected,
            sim_callbacks=sim.callbacks_fired,
            sim_events=sim.events_processed,
            wall_seconds=wallclock.perf_counter() - started,
        )
        # Recording forces state fingerprints: the log's footer fingerprint
        # must cover final state, or replay would verify a weaker pin.
        if (cfg.fingerprint_state or cfg.record_log) and op is not None:
            from repro.megaphone.bins import cluster_fingerprint, store_fingerprint

            result.state_fingerprints = {
                w: store_fingerprint(store) for w, store in op.stores(runtime)
            }
            result.cluster_fingerprint = cluster_fingerprint(
                store for _w, store in op.stores(runtime)
            )
        for part in reversed(parts):
            part.finish(result)
        return result


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

    return op.output, op, None


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


def _scheduled_plan(strategy, moves, batch_size, current) -> MigrationPlan:
    """A scheduled migration's plan: its moves, applied to ``current``."""
    return make_plan(strategy, current, current.apply(moves), batch_size)


def result_fingerprint(result: ExperimentResult) -> str:
    """One digest over everything determinism promises to reproduce.

    Covers final per-worker state fingerprints, global and per-domain
    callback counts, injected records, migration step timings, and the
    latency timeline — byte-identical runs agree on all of it.  Heap
    entries (``sim_events``) are left out: how the engine groups callbacks
    is not something the simulation did.
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
    digest.update(f"events={result.sim_callbacks};".encode())
    for d, n in sorted(parallel.get("sim_callbacks_per_domain", {}).items()):
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
