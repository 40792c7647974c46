"""The outside-in stage ledger: spans around calls into each layer.

Nothing inside ``src/`` is instrumented.  For one traced run this module
replaces, by attribute assignment, the callables listed in ``_METHODS`` /
``_FUNCTIONS`` with wrappers that record a span ``(name, start_ns, end_ns,
parent)``, and restores every one afterwards.  Classes are patched before
the experiment is built, so bound methods cached during construction
(worker hook tables, scheduled callbacks, bus subscriptions) already are
the wrappers.  Operator logic is wrapped where ``WorkerRuntime.install``
caches its hooks, and attributed to the module that defines the hook.

A span's *self time* is its duration minus the durations of its child
spans (and minus a calibrated per-child wrapper cost, so that a parent
with many small children is not charged for their wrappers).  Per name the
tracer keeps calls, total and self time exactly; the spans themselves are
kept up to ``SPAN_CAP`` — enough to read a trace file, not a second copy of
a million-span run.

Closures the runtime schedules directly (activation completions, link
deliveries) cannot be wrapped from outside; their time is the self time of
the ``sim.engine`` span that fired them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import metrics

SPAN_CAP = 50_000
TRACE_SCHEMA = "e2e-trace/1"


class Tracer:
    """In-memory span recorder with exact per-name self-time accounting."""

    def __init__(self, clock=time.perf_counter_ns, span_cap: int = SPAN_CAP) -> None:
        self._clock = clock
        self._span_cap = span_cap
        # name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        # (name, start_ns, end_ns, parent index or -1), in start order.
        self.spans: list = []
        # One frame per open span: [child_ns, span index or -1].
        self._stack: list = []
        # Wrapper cost charged to the parent per child span (see calibrate).
        self.overhead_ns = 0

    def stats_for(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0, 0])

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span named ``name`` around every call.

        ``after(args, result)`` (optional) runs once the span is closed —
        for counts taken at the boundary, outside the timed interval.
        """
        stats = self.stats_for(name)
        stack = self._stack
        spans = self.spans
        clock = self._clock
        cap = self._span_cap
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(spans) < cap:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
            frame = [0, index]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration + tracer.overhead_ns
                if index >= 0:
                    spans[index] = (
                        name, start, end, parent[1] if parent is not None else -1
                    )
            if after is not None:
                after(args, result)
            return result

        return traced

    def calibrate(self, calls: int = 20_000) -> int:
        """Measure what one wrapper costs its caller beyond the span itself.

        Times ``calls`` invocations of a wrapped no-op from outside and
        subtracts the spans' own durations and the bare loop; the remainder
        per call is ``overhead_ns``, which every child span from now on adds
        to its parent's child time.  The calibration spans are discarded.
        """
        probe = Tracer(clock=self._clock, span_cap=0)

        def noop():
            return None

        traced = probe.wrap(noop, "calibration")
        clock = self._clock
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        outer = clock() - start
        inner = probe.stats["calibration"][1]
        self.overhead_ns = max(0, (outer - bare - inner) // calls)
        return self.overhead_ns

    # -- reading -------------------------------------------------------------

    def self_ns(self, *prefixes: str) -> int:
        """Summed self time of every span name equal to, or below, a prefix."""
        return sum(
            stats[2]
            for name, stats in self.stats.items()
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        )

    def calls(self, *prefixes: str) -> int:
        return sum(
            stats[0]
            for name, stats in self.stats.items()
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        )

    def ledger(self, root: str) -> list:
        """One row per span name, largest self time first.

        The last row, ``trace.wrappers``, is the calibrated wrapper cost the
        spans charged to their parents; with it the self times sum to the
        root span's duration.
        """
        wall = self.stats[root][1]
        rows = [
            {"name": name, "calls": calls, "total_ns": total, "self_ns": self_}
            for name, (calls, total, self_) in self.stats.items()
            if calls
        ]
        children = sum(row["calls"] for row in rows) - self.stats[root][0]
        wrappers = children * self.overhead_ns
        rows.append(
            {"name": "trace.wrappers", "calls": children, "total_ns": wrappers,
             "self_ns": wrappers}
        )
        for row in rows:
            row["self_share"] = row["self_ns"] / wall if wall else 0.0
        rows.sort(key=lambda row: -row["self_ns"])
        return rows

    def dump(self, path, header: dict, root: str) -> None:
        """Write the kept spans, the ledger and the counters as JSON."""
        names = sorted({span[0] for span in self.spans if span is not None})
        index = {name: i for i, name in enumerate(names)}
        document = dict(
            header,
            schema=TRACE_SCHEMA,
            span_cap=self._span_cap,
            spans_total=sum(stats[0] for stats in self.stats.values()),
            overhead_ns_per_span=self.overhead_ns,
            ledger=self.ledger(root),
            counters=self.counters,
            names=names,
            columns=["name", "start_ns", "end_ns", "parent"],
            spans=[
                [index[s[0]], s[1], s[2], s[3]] for s in self.spans if s is not None
            ],
        )
        with open(path, "w") as handle:
            json.dump(document, handle)


# -- what gets wrapped --------------------------------------------------------------

# (module, class, attributes, span name).  An attribute is wrapped on the class
# that defines it; subclasses listed separately wrap their own overrides.
_METHODS = (
    ("repro.sim.engine", "Simulator", ("run", "run_below", "step"), "sim.engine"),
    ("repro.sim.engine", "Simulator", ("schedule", "schedule_fast"), "sim.schedule"),
    ("repro.sim.engine", "Simulator", ("schedule_at", "schedule_fast_at"),
     "sim.schedule.push"),
    ("repro.parallel.engine", "DomainSimulator",
     ("schedule_at", "schedule_fast_at", "inject_remote"), "sim.schedule.push"),
    ("repro.parallel.domain", "ShardCluster", ("send",), "sim.network.shard_send"),
    ("repro.sim.network", "Link", ("transmit",), "sim.network.transmit"),
    ("repro.timely.progress", "ProgressTracker",
     ("capability_update", "message_sent", "message_consumed"),
     "timely.progress.update"),
    ("repro.timely.progress", "ProgressTracker", ("propagate",),
     "timely.progress.propagate"),
    ("repro.timely.progress", "ProgressTracker", ("drain_changes",),
     "timely.progress.drain"),
    ("repro.timely.dataflow", "Runtime", ("mark_progress", "_progress_step"),
     "timely.progress.pump"),
    ("repro.timely.worker", "WorkerRuntime", ("enqueue_message", "enqueue_source"),
     "timely.worker.enqueue"),
    ("repro.timely.worker", "WorkerRuntime", ("activate", "note_frontier"),
     "timely.worker.activate"),
    ("repro.timely.worker", "WorkerRuntime", ("_run_activation",),
     "timely.worker.activation"),
    ("repro.timely.worker", "OpContext",
     ("notify_at", "hold_capability", "release_capability"), "timely.worker.context"),
    ("repro.timely.worker", "OpContext", ("send",), "timely.send"),
    ("repro.timely.dataflow", "InputHandle", ("send", "advance_to", "close"),
     "timely.input"),
    ("repro.runtime_events.columns", "ColumnBatch",
     ("take", "slice", "concat", "to_records", "from_objects"),
     "runtime_events.columns"),
    ("repro.runtime_events.columns", "VectorLcg", ("next_batch",),
     "runtime_events.columns"),
    ("repro.megaphone.routing", "RoutingTable", ("worker_for",),
     "megaphone.routing.worker_for"),
    ("repro.megaphone.routing", "RoutingTable",
     ("integrate", "compact", "owners_vector"), "megaphone.routing"),
    ("repro.megaphone.controller", "MigrationController",
     ("start_at", "_issue_next", "_check_progress"), "megaphone.controller"),
    ("repro.megaphone.controller", "EpochTicker", ("_tick",), "megaphone.ticker"),
    ("repro.megaphone.bins", "BinStore",
     ("get", "group_states", "note_applied", "note_applied_group"),
     "state.access.store"),
    ("repro.megaphone.bins", "BinStore", ("extract", "take"), "state.extract.store"),
    ("repro.megaphone.bins", "BinStore", ("install",), "state.install.store"),
    ("repro.state.backend", "BinPayload", ("decode_state",), "state.install.codec"),
    ("repro.state.wal", "WorkerWal", ("append",), "state.wal.append"),
    ("repro.state.wal", "WorkerWal", ("sync",), "state.wal.sync"),
    ("repro.state.wal", "WorkerWal", ("reset",), "state.wal.reset"),
    ("repro.state.wal", "WalBackend", ("compact",), "state.wal.compact"),
    ("repro.state.wal", "WalBackend", ("note_applied",), "state.wal.commit"),
    ("repro.harness.latency", "EpochLatencyRecorder", ("_on_event", "note_injected"),
     "harness.latency"),
    ("repro.harness.latency", "LatencyTimeline", ("record",), "harness.latency"),
    ("repro.parallel.supervisor", "LocalExecutor", ("run_round",),
     "parallel.window.round"),
    ("repro.parallel.domain", "DomainHost", ("run_window",), "parallel.window.run"),
    ("repro.parallel.domain", "DomainHost", ("inject",), "parallel.inject"),
    ("repro.parallel.domain", "DomainHost", ("_note_remote",), "parallel.remote_out"),
    ("repro.parallel.progress", "DomainTracker",
     ("capability_update", "message_sent", "message_consumed", "seed_capability",
      "take_update_batches", "apply_remote"), "parallel.progress"),
)

# Backends and codecs override each other's methods; each class that defines
# one of these gets it wrapped under the same name.
_STATE_CLASSES = (
    ("repro.state.backend", "StateBackend"),
    ("repro.state.backend", "DictBackend"),
    ("repro.state.wal", "WalBackend"),
)
_STATE_METHODS = (
    (("states_of_group", "note_applied_group", "note_applied", "note_records",
      "state_of", "get", "put"), "state.access.backend"),
    (("extract_bin",), "state.extract.backend"),
    (("install_bin",), "state.install.backend"),
)
_CODEC_CLASSES = ("Codec", "ModeledCodec", "PickleCodec", "StructCodec")

# (module, function, span name): every repro module holding a reference to
# the function under any name gets the wrapper.
_FUNCTIONS = (
    ("repro.runtime_events.columns", "gather", "runtime_events.columns"),
    ("repro.runtime_events.columns", "split_by_destination", "runtime_events.columns"),
    ("repro.runtime_events.columns", "group_by_bin_sorted", "runtime_events.columns"),
    ("repro.runtime_events.columns", "make_index_vector", "runtime_events.columns"),
    ("repro.runtime_events.columns", "mod_column", "runtime_events.columns"),
    ("repro.runtime_events.columns", "ones_column", "runtime_events.columns"),
    ("repro.runtime_events.columns", "merge_segments", "runtime_events.columns"),
    ("repro.parallel.sync", "run_protocol", "parallel.window.protocol"),
)

# Imported before patching so that every module holding a by-name reference
# to a patched function is loaded and found.
_ENTRY_MODULES = (
    "repro.harness.experiment",
    "repro.nexmark.harness",
    "repro.parallel.runner",
    "repro.state.wal",
)


def _hook_span_name(hook, kind: str) -> str:
    """Span name for an operator hook, from the module that defines it."""
    module = getattr(hook, "__module__", None) or "repro.timely.operators"
    qualname = getattr(hook, "__qualname__", "")
    if module == "repro.nexmark.queries.common" and "split" in qualname:
        return f"nexmark.split.{kind}"
    parts = module.split(".")
    layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"
    role = {"_FLogic": "f", "_SLogic": "s"}.get(qualname.split(".")[0], "operator")
    return f"{layer}.{role}.{kind}"


def _layer_of(fn) -> str:
    parts = (getattr(fn, "__module__", "") or "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


class Patches:
    """Every attribute replaced for a traced run, and how to put it back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    # -- primitives ------------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def replaced(self) -> list:
        """(owner, attribute, original) for everything currently replaced."""
        return list(self._undo)

    def method(self, cls, attr: str, name: str, after=None) -> None:
        raw = vars(cls)[attr]
        wrap = self.tracer.wrap
        if isinstance(raw, classmethod):
            new = classmethod(wrap(raw.__func__, name, after))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrap(raw.__func__, name, after))
        else:
            new = wrap(raw, name, after)
        self._set(cls, attr, new)

    def function(self, module, attr: str, new) -> None:
        """Replace ``module.attr`` wherever a repro module refers to it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, new)

    # -- the full set ------------------------------------------------------------

    def apply(self) -> None:
        tracer = self.tracer
        count = tracer.count
        modules = {name: importlib.import_module(name) for name in _ENTRY_MODULES}
        for module_name, cls_name, attrs, name in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in attrs:
                self.method(cls, attr, name)
        for module_name, cls_name in _STATE_CLASSES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attrs, name in _STATE_METHODS:
                for attr in attrs:
                    if attr in vars(cls):
                        self.method(cls, attr, name)
        codecs = importlib.import_module("repro.state.codecs")
        for cls_name in _CODEC_CLASSES:
            cls = getattr(codecs, cls_name)
            if "encode" in vars(cls):
                self.method(cls, "encode", "state.extract.codec")
            if "decode" in vars(cls):
                self.method(cls, "decode", "state.install.codec")
        for module_name, attr, name in _FUNCTIONS:
            module = importlib.import_module(module_name)
            self.function(module, attr, tracer.wrap(getattr(module, attr), name))

        # Boundaries where a count is taken along with the span.
        network = importlib.import_module("repro.sim.network")
        self.method(
            network.Cluster, "send", "sim.network.send",
            after=lambda args, _r: count("network.bytes", args[1].size_bytes),
        )
        columns = importlib.import_module("repro.runtime_events.columns")
        self.function(
            columns, "bin_ids_for",
            tracer.wrap(
                columns.bin_ids_for, "runtime_events.columns.bin_ids_for",
                after=lambda args, _r: count("columns.batch_records", len(args[0])),
            ),
        )
        bus = importlib.import_module("repro.runtime_events.bus")

        def note_publish(args, _result) -> None:
            if not getattr(args[0], f"wants_{args[1].topic}"):
                count("bus.unsubscribed")

        self.method(bus.TraceBus, "publish", "runtime_events.bus", after=note_publish)
        wal = modules["repro.state.wal"]
        self.function(
            wal, "encode_frame",
            tracer.wrap(
                wal.encode_frame, "state.wal.encode",
                after=lambda _a, frame: count("wal.bytes", len(frame)),
            ),
        )
        self._patch_operator_hooks()
        self._patch_sources()
        self._patch_folds()
        self._patch_migration_counts()

    def _patch_operator_hooks(self) -> None:
        """Wrap operator logic where the worker caches its hooks."""
        tracer = self.tracer
        worker_cls = importlib.import_module("repro.timely.worker").WorkerRuntime
        original = vars(worker_cls)["install"]
        worker_for = tracer.stats_for("megaphone.routing.worker_for")

        def f_hook(traced, counts_batches: bool):
            # F on its data ports: did this batch need per-bin owner lookups?
            def hook(*args):
                if counts_batches and args[1] >= 1:
                    tracer.count("f.data_batches")
                before = worker_for[0]
                result = traced(*args)
                if worker_for[0] != before:
                    tracer.count("f.slow_batches")
                return result

            return hook

        @functools.wraps(original)
        def install(worker, desc, logic):
            ctx = original(worker, desc, logic)
            tables = (
                (worker._on_input, "on_input"),
                (worker._on_frontier, "on_frontier"),
                (worker._on_notify, "on_notify"),
                (worker._input_cost, "input_cost"),
            )
            for table, kind in tables:
                hook = table[-1]
                if hook is None:
                    continue
                name = _hook_span_name(hook, kind)
                traced = tracer.wrap(hook, name)
                if name in ("megaphone.f.on_input", "megaphone.f.on_frontier"):
                    traced = f_hook(traced, kind == "on_input")
                table[-1] = traced
            return ctx

        self._set(worker_cls, "install", install)

    def _patch_sources(self) -> None:
        """Wrap the record generator and the per-epoch tick closures."""
        tracer = self.tracer
        source_cls = importlib.import_module("repro.harness.openloop").OpenLoopSource
        init = vars(source_cls)["__init__"]

        @functools.wraps(init)
        def traced_init(self_, runtime, group, generator, *args, **kwargs):
            traced = tracer.wrap(generator, f"{_layer_of(generator)}.generator")
            init(self_, runtime, group, traced, *args, **kwargs)

        self._set(source_cls, "__init__", traced_init)
        for attr in ("_make_tick", "_make_resident_tick"):
            make = vars(source_cls)[attr]

            def traced_make(self_, index, per_tick, _make=make):
                return tracer.wrap(_make(self_, index, per_tick), "harness.source.tick")

            self._set(source_cls, attr, functools.wraps(make)(traced_make))

    def _patch_folds(self) -> None:
        """Wrap the user folds handed to Megaphone's operator constructors."""
        tracer = self.tracer
        api = importlib.import_module("repro.megaphone.api")

        def count_outputs(_args, result) -> None:
            if result is not None:
                tracer.count("fold.outputs", len(result))

        for attr in ("state_machine", "unary", "binary"):
            constructor = getattr(api, attr)

            def traced_constructor(*args, _constructor=constructor, **kwargs):
                for key in ("fold", "columnar_applier"):
                    fold = kwargs.get(key)
                    if fold is not None:
                        kwargs[key] = tracer.wrap(
                            fold, f"{_layer_of(fold)}.fold", after=count_outputs
                        )
                return _constructor(*args, **kwargs)

            self.function(api, attr, functools.wraps(constructor)(traced_constructor))

    def _patch_migration_counts(self) -> None:
        """Subscribe a counting handler to each simulator's migration topic."""
        tracer = self.tracer
        simulator = importlib.import_module("repro.sim.engine").Simulator
        init = vars(simulator)["__init__"]

        def on_migration(event) -> None:
            kind = type(event).__name__
            tracer.count(f"migration.{kind}")
            if kind == "BinStateExtracted":
                tracer.count(f"migration.bytes.{event.kind}", event.size_bytes)
            elif kind == "MigrationStepOutcome":
                tracer.count("migration.attempts", event.attempts)

        @functools.wraps(init)
        def traced_init(self_, *args, **kwargs):
            init(self_, *args, **kwargs)
            self_.trace.subscribe(on_migration, topics=("migration",))

        self._set(simulator, "__init__", traced_init)


@contextmanager
def tracing(tracer: Tracer):
    """Patch on entry, restore on exit — also when the run raises."""
    patches = Patches(tracer)
    try:
        patches.apply()
        yield patches
    finally:
        patches.restore()


# -- from a traced run to per-layer metrics --------------------------------------------

ROOT = "experiment"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, result, duration_s: float, granularity_ms: int) -> dict:
    """Per-layer metrics of one traced run.

    A metric whose layer did no work in the run is left out; the caller
    decides how to print an inactive layer.
    """
    records = result.records_injected
    self_ns = tracer.self_ns
    calls = tracer.calls
    counters = tracer.counters
    epochs = int(round(duration_s * 1000 / granularity_ms))
    out: dict = {}

    # repro.sim
    out["sim.engine_self_ns_per_event"] = _ratio(self_ns("sim.engine"), result.sim_events)
    out["sim.schedule_calls_per_record"] = _ratio(calls("sim.schedule.push"), records)
    messages = calls("sim.network.send")
    out["sim.network_self_ns_per_msg"] = _ratio(self_ns("sim.network"), messages)
    out["sim.network_msgs_per_record"] = _ratio(messages, records)
    out["sim.network_bytes_per_record"] = _ratio(counters.get("network.bytes", 0), records)

    # repro.timely
    out["timely.progress_self_ns_per_record"] = _ratio(self_ns("timely.progress"), records)
    out["timely.progress_updates_per_record"] = _ratio(
        calls("timely.progress.update"), records
    )
    out["timely.propagate_calls_per_epoch"] = _ratio(
        calls("timely.progress.propagate"), epochs
    )
    activations = calls("timely.worker.activation")
    out["timely.worker_self_ns_per_activation"] = _ratio(
        self_ns("timely.worker", "timely.send"), activations
    )
    out["timely.activations_per_record"] = _ratio(activations, records)
    out["timely.sends_per_record"] = _ratio(calls("timely.send"), records)
    out["timely.input_self_ns_per_record"] = _ratio(self_ns("timely.input"), records)

    # repro.runtime_events
    out["runtime_events.columns_self_ns_per_record"] = _ratio(
        self_ns("runtime_events.columns"), records
    )
    batches = calls("runtime_events.columns.bin_ids_for")
    if batches:
        out["runtime_events.records_per_batch"] = (
            counters.get("columns.batch_records", 0) / batches
        )
    out["runtime_events.bus_publishes_unsubscribed"] = counters.get("bus.unsubscribed", 0)

    # repro.megaphone
    out["megaphone.f_self_ns_per_record"] = _ratio(
        self_ns("megaphone.f", "megaphone.routing"), records
    )
    out["megaphone.s_self_ns_per_record"] = _ratio(self_ns("megaphone.s"), records)
    out["megaphone.worker_for_calls_per_record"] = _ratio(
        calls("megaphone.routing.worker_for"), records
    )
    out["megaphone.slow_route_batch_share"] = _ratio(
        counters.get("f.slow_batches", 0), counters.get("f.data_batches", 0)
    )
    durations = [result.migration_duration(i) for i in range(len(result.migrations))]
    out["megaphone.migrating_time_share"] = sum(durations) / duration_s
    out["megaphone.ticker_self_ns_per_epoch"] = _ratio(self_ns("megaphone.ticker"), epochs)
    steps = sum(len(m.steps) for m in result.migrations)
    if steps:
        out["megaphone.migration_steps"] = steps
        out["megaphone.bins_moved"] = sum(
            step.moves for m in result.migrations for step in m.steps
        )
        out["megaphone.state_bytes_moved"] = sum(
            v for k, v in counters.items() if k.startswith("migration.bytes.")
        )
        out["megaphone.controller_self_ns_per_step"] = (
            self_ns("megaphone.controller") / steps
        )
        out["megaphone.step_attempts_per_step"] = (
            sum(m.total_attempts for m in result.migrations) / steps
        )

    # repro.state
    out["state.apply_access_self_ns_per_record"] = _ratio(self_ns("state.access"), records)
    # Only with a migration: sharded runs also extract every bin once, to
    # fingerprint it, when they finalize.
    extracted = calls("state.extract.store")
    if steps and extracted:
        out["state.extract_self_ns_per_bin"] = self_ns("state.extract") / extracted
        out["state.install_self_ns_per_bin"] = _ratio(
            self_ns("state.install"), calls("state.install.store")
        )
    frames = calls("state.wal.append")
    if frames:
        out["state.wal_append_self_ns_per_record"] = self_ns("state.wal") / records
        out["state.wal_frames_per_record"] = frames / records
        out["state.wal_bytes_per_record"] = counters.get("wal.bytes", 0) / records
        out["state.wal_syncs"] = calls("state.wal.sync")
        out["state.wal_compactions"] = calls("state.wal.compact")
    base_bytes = counters.get("migration.bytes.base", 0)
    if base_bytes:
        out["state.delta_bytes_ratio"] = (
            counters.get("migration.bytes.delta", 0) / base_bytes
        )

    # repro.harness
    out["harness.source_self_ns_per_record"] = _ratio(
        self_ns("harness.source", "harness.generator"), records
    )
    if calls("harness.fold"):
        out["harness.fold_self_ns_per_record"] = self_ns("harness.fold") / records
    out["harness.latency_recorder_self_ns_per_epoch"] = _ratio(
        self_ns("harness.latency"), epochs
    )
    out["harness.epochs"] = epochs
    out["harness.completed_minus_injected"] = metrics.completed_records(result) - records

    # repro.nexmark
    if calls("nexmark"):
        out["nexmark.generator_self_ns_per_record"] = self_ns("nexmark.generator") / records
        out["nexmark.split_self_ns_per_record"] = self_ns("nexmark.split") / records
        out["nexmark.q3_self_ns_per_record"] = self_ns("nexmark.fold") / records
        out["nexmark.outputs_per_input"] = counters.get("fold.outputs", 0) / records

    # repro.parallel (extra_events_ratio and sharded_tax need the serial twin;
    # the caller adds them)
    if result.parallel is not None:
        rounds = result.parallel["rounds"]
        out["parallel.rounds"] = rounds
        out["parallel.events_per_round"] = result.sim_events / rounds
        out["parallel.window_self_ns_per_round"] = self_ns("parallel.window") / rounds
        out["parallel.progress_self_ns_per_record"] = self_ns("parallel.progress") / records
        out["parallel.remote_msgs_per_record"] = calls("parallel.inject") / records

    root = tracer.stats[ROOT]
    out["trace.unattributed_share"] = root[2] / root[1]
    return out
