"""Megaphone's migration mechanism: the F (routing) and S (hosting) operators.

Paper §3.4 and §4: a migrateable operator L is realized as a pair (F, S).

* **F** receives the configuration stream (broadcast to every worker) and
  the data stream.  It routes data records according to the configuration at
  their timestamp, buffering records whose time is in advance of the control
  frontier (the configuration there is not yet final).  F holds timely
  capabilities at every pending reconfiguration time, observes the output
  frontier of S, and — once a reconfiguration time is present in that
  frontier — uninstalls the affected bins from the co-located S (through a
  shared pointer) and ships them, bearing the reconfiguration timestamp,
  through a regular dataflow channel to the new owner's S.  F has one data
  path: a plain record list is columnised on entry with the port's exchange
  function, and every batch leaves as one columnar ``DestinationBatch`` per
  destination.

* **S** hosts the bins.  It buffers arriving data records by timestamp,
  installs migrated bins immediately, and applies records in timestamp order
  once their time is not in advance of either the data or the state input
  frontier — which is exactly when no earlier record and no state movement
  can interfere.

The public constructors (``state_machine``, ``unary``, ``binary``) in
``repro.megaphone.api`` wrap this pair behind the operator interface of
Listing 1.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.megaphone.bins import Bin, BinStore
from repro.state.registry import DEFAULT_BACKEND, DEFAULT_CODEC, resolve_codec
from repro.runtime_events.events import (
    BinMigrationPlanned,
    BinRecreated,
    BinStateExtracted,
    BinStateInstalled,
)
from repro.megaphone.control import BinnedConfiguration, ControlInst, bin_bits
from repro.megaphone.routing import RoutingTable
from repro.runtime_events import columns
from repro.runtime_events.columns import MASK64, ColumnBatch, ColumnGroup, merge_segments
from repro.runtime_events.items import DestinationBatch, batch_record_count
from repro.timely.antichain import Antichain
from repro.timely.dataflow import Stream
from repro.timely.graph import Broadcast, Exchange, GroupedExchange, Pipeline
from repro.timely.notificator import PendingQueue
from repro.timely.timestamp import Timestamp, less_equal, order_key

CONTROL_PORT = 0
DATA_PORT_BASE = 1

# S ports.
S_DATA_PORT = 0
S_STATE_PORT = 1


class ApplicationContext:
    """What the user's fold sees when a (time, bin) group is applied.

    ``entries`` are ``(tag, record)`` pairs: the input port tag (0 for unary
    and state-machine operators) and the record itself.  ``emit`` produces
    output at the group's time; ``schedule`` post-dates a record to a future
    time for the same bin (Megaphone's extended notificator idiom).
    """

    __slots__ = ("time", "bin", "entries", "worker", "outputs", "scheduled")

    def __init__(
        self, time: Timestamp, bin_: Bin, entries: list, worker: int = -1
    ) -> None:
        self.time = time
        self.bin = bin_
        self.entries = entries
        self.worker = worker
        self.outputs: list = []
        self.scheduled: list[tuple[Timestamp, tuple]] = []

    @property
    def state(self) -> object:
        """The bin's user state."""
        return self.bin.state

    def emit(self, records) -> None:
        """Emit output records at the group's time."""
        self.outputs.extend(records)

    def schedule(self, time: Timestamp, record: object, tag: int = 0) -> None:
        """Present ``record`` to the operator again at a future ``time``."""
        if not less_equal(self.time, time):
            raise ValueError(
                f"cannot schedule at {time!r}: before current time {self.time!r}"
            )
        self.scheduled.append((time, (tag, record)))


# The applier turns buffered entries into outputs:
#   applier(app: ApplicationContext) -> None
Applier = Callable[[ApplicationContext], None]


class _FLogic:
    """One worker's F instance."""

    def __init__(self, config: "MegaphoneConfig", worker_id: int) -> None:
        self._config = config
        self._worker_id = worker_id
        self._table = RoutingTable(config.initial)
        # Control updates received but not yet final (time in advance of the
        # control frontier), keyed by their timestamp.
        self._pending_updates: dict[Timestamp, list[ControlInst]] = {}
        # Finalized reconfiguration steps awaiting S's output frontier:
        # (time, [(bin, src, dst), ...]); kept in time order.
        self._pending_migrations: list[tuple[Timestamp, list[tuple[int, int, int]]]] = []
        # Data batches whose time is in advance of the control frontier.
        self._buffered = PendingQueue()
        # Delta migration: epoch each shipped base snapshot was captured at,
        # keyed by (reconfiguration time, bin).  Present iff a base is in
        # flight for the move; execution then ships only newer keys.
        self._base_epochs: dict[tuple, int] = {}

    # -- helpers -------------------------------------------------------------

    def _store(self, ctx) -> BinStore:
        return self._config.store_for(ctx)

    def reset_routing(self, config: BinnedConfiguration) -> None:
        """Replace the routing table wholesale (restart recovery).

        A freshly reinstalled F believes the *initial* configuration; the
        recovery coordinator hands it the controller's current assignment,
        so it routes like the surviving workers instead of resurrecting
        stale ownership.
        """
        self._table = RoutingTable(config)

    def _route_batch(self, ctx, time: Timestamp, port_tag: int, records) -> None:
        """Route one data batch: hash, resolve owners, split by destination.

        A list batch is columnised on entry with this port's exchange
        function, masked to the unsigned 64-bit key column; a
        :class:`ColumnBatch`'s key column already is the routing key.  Each
        destination gets one :class:`DestinationBatch`, in first-occurrence
        order, carrying its records in arrival order.
        """
        config = self._config
        if type(records) is ColumnBatch:
            batch = records
        else:
            key_fn = config.key_fns[port_tag]
            batch = ColumnBatch.from_objects(
                records, [key_fn(record) & MASK64 for record in records]
            )
        table = self._table
        bin_col = columns.bin_ids_for(batch.keys, config.bin_shift)
        if (
            table.history_flat
            and not self._pending_updates
            and not self._pending_migrations
        ):
            # Steady state: every bin's history is its single base entry, so
            # the owner at any routable time is the current owner.  An
            # ndarray gathers from the cached owners column, an ``array`` of
            # bin ids from the flat owners list.
            owners = (
                table.owners_vector()
                if columns.is_numpy_column(bin_col)
                else table.current_owners
            )
            dsts = columns.gather(owners, bin_col)
        else:
            # Mid-migration: owners must be resolved at the batch's time.
            # All records share one timestamp, so memoize per unique bin.
            owner_cache: dict[int, int] = {}
            worker_for = table.worker_for
            dst_list = []
            append = dst_list.append
            for bin_id in bin_col.tolist():
                dst = owner_cache.get(bin_id)
                if dst is None:
                    dst = owner_cache[bin_id] = worker_for(bin_id, time)
                append(dst)
            dsts = columns.make_index_vector(dst_list, like=bin_col)
        order, bounds = columns.split_by_destination(dsts, ctx.num_workers)
        if not bounds:
            return
        if order is None:
            # Single destination: ship the batch whole, no copy.
            out = [
                DestinationBatch(
                    dst=bounds[0][0],
                    count=len(batch),
                    bin_ids=bin_col,
                    columns=batch,
                    tag=port_tag,
                )
            ]
        else:
            # One gather to destination-sorted layout, then per-destination
            # slices (views on numpy) instead of a fancy-index per segment.
            sorted_batch = batch.take(order)
            sorted_bins = columns.gather(bin_col, order)
            out = [
                DestinationBatch(
                    dst=dst,
                    count=hi - lo,
                    bin_ids=sorted_bins[lo:hi],
                    columns=sorted_batch.slice(lo, hi),
                    tag=port_tag,
                )
                for dst, lo, hi in bounds
            ]
        ctx.send(0, time, out)

    def input_cost(self, ctx, port: int, records: list, size_bytes: float) -> float:
        if port == CONTROL_PORT:
            return len(records) * ctx.cost.progress_update_cost
        return len(records) * self._config.route_cost(ctx)

    # -- dataflow hooks --------------------------------------------------------

    def on_input(self, ctx, port: int, time: Timestamp, records: list) -> None:
        if port == CONTROL_PORT:
            for inst in records:
                if time not in self._pending_updates:
                    self._pending_updates[time] = []
                    # Hold S's frontier at the reconfiguration time until
                    # this worker's part of the migration has been shipped.
                    ctx.hold_capability(time)
                self._pending_updates[time].append(inst)
            return
        port_tag = port - DATA_PORT_BASE
        control_frontier = ctx.input_frontier(CONTROL_PORT)
        if control_frontier.less_equal(time):
            # Configuration at `time` is not final yet: buffer, and keep the
            # right to send at `time` once it becomes routable.
            ctx.hold_capability(time)
            self._buffered.push(time, (port_tag, records))
        else:
            # The control frontier may have finalized updates that this
            # instance has not integrated yet (its on_frontier callback can
            # lag behind data arrival); integrate before routing so records
            # at or past a reconfiguration time go to the new owner.
            if self._pending_updates:
                self._integrate_updates(ctx, control_frontier)
            self._route_batch(ctx, time, port_tag, records)

    def on_frontier(self, ctx) -> None:
        # Steady state — no pending control updates, buffered data, or
        # unshipped migrations — skips every helper outright: each would be
        # a no-op, and the control-frontier query forces a propagation pass.
        if self._pending_updates or self._buffered:
            control_frontier = ctx.input_frontier(CONTROL_PORT)
            self._integrate_updates(ctx, control_frontier)
            self._drain_buffered(ctx, control_frontier)
        if self._pending_migrations:
            self._try_migrations(ctx)
        self._maybe_compact(ctx)

    def _maybe_compact(self, ctx) -> None:
        """Fold settled routing history into the base, re-arming the fast path.

        Every future route happens at a time this F can still send at —
        a time not in advance of its own output frontier — so entries
        strictly older than a single-element output frontier are
        unreachable and can be merged into each bin's base entry.
        """
        if (
            self._table.history_flat
            or self._pending_updates
            or self._pending_migrations
        ):
            return
        elements = ctx.output_frontier_of(ctx.op_index).elements()
        if len(elements) == 1:
            self._table.compact(elements[0])

    # -- steps -----------------------------------------------------------------

    def _integrate_updates(self, ctx, control_frontier: Antichain) -> None:
        ready = sorted(
            (t for t in self._pending_updates if not control_frontier.less_equal(t)),
            key=order_key,
        )
        for time in ready:
            insts = self._pending_updates.pop(time)
            moves = []
            for inst in insts:
                src = self._table.current_owner(inst.bin)
                if src != inst.worker:
                    moves.append((inst.bin, src, inst.worker))
            self._table.integrate(time, insts)
            my_moves = [m for m in moves if m[1] == self._worker_id]
            if my_moves:
                trace = ctx.trace
                if trace.wants_migration:
                    for bin_id, src, dst in my_moves:
                        trace.publish(
                            BinMigrationPlanned(
                                name=self._config.name,
                                time=time,
                                bin=bin_id,
                                src=src,
                                dst=dst,
                                at=ctx.now,
                            )
                        )
                self._pending_migrations.append((time, my_moves))
                if self._config.delta_migration:
                    self._ship_bases(ctx, time, my_moves)
            else:
                # Nothing to ship from this worker: stop holding S back.
                ctx.release_capability(time)

    def _ship_bases(self, ctx, time: Timestamp, moves: list) -> None:
        """Pre-copy: ship a base snapshot of each moving bin immediately.

        The bin keeps processing here until :meth:`_execute_moves`; the
        snapshot overlaps the bulk transfer with that processing, and the
        epoch recorded per move lets execution ship only the keys dirtied
        since.  Pending records are *not* shipped with the base — the delta
        carries the authoritative drain, so they never travel twice.
        """
        store = self._store(ctx)
        cost = ctx.cost
        codec = self._config.codec_obj
        trace = ctx.trace
        wants_migration = trace.wants_migration
        for bin_id, _src, dst in moves:
            if not store.has(bin_id) or not store.delta_capable(bin_id):
                continue
            payload = store.capture_base(bin_id)
            size = payload.size_bytes
            self._base_epochs[(time, bin_id)] = payload.base_epoch
            serialize_s = codec.encode_cost(cost, size)
            ctx.charge(serialize_s)
            ctx.memory.add_retained(size)
            if wants_migration:
                trace.publish(
                    BinStateExtracted(
                        name=self._config.name,
                        time=time,
                        bin=bin_id,
                        src=self._worker_id,
                        dst=dst,
                        size_bytes=size,
                        serialize_s=serialize_s,
                        at=ctx.now,
                        kind="base",
                    )
                )
            ctx.send(
                1,
                time,
                [(dst, payload, size)],
                size_bytes=size,
                retained_bytes=size,
            )

    def _drain_buffered(self, ctx, control_frontier: Antichain) -> None:
        ready = self._buffered.pop_ready(
            lambda t: not control_frontier.less_equal(t)
        )
        for time, (port_tag, records) in ready:
            self._route_batch(ctx, time, port_tag, records)
            ctx.release_capability(time)

    def _try_migrations(self, ctx) -> None:
        while self._pending_migrations:
            time, moves = self._pending_migrations[0]
            s_frontier = ctx.output_frontier_of(self._config.s_op)
            if s_frontier.less_than(time):
                # Records earlier than `time` may still be unprocessed at S.
                return
            self._execute_moves(ctx, time, moves)
            self._pending_migrations.pop(0)
            ctx.release_capability(time)

    def _execute_moves(self, ctx, time: Timestamp, moves: list) -> None:
        store = self._store(ctx)
        cost = ctx.cost
        memory = ctx.memory
        trace = ctx.trace
        wants_migration = trace.wants_migration
        codec = self._config.codec_obj
        for bin_id, _src, dst in moves:
            base_epoch = self._base_epochs.pop((time, bin_id), None)
            if self._config.recovery_mode and not store.has(bin_id):
                # The bin is not here to extract — it died with a crashed
                # process, or a retried control step repeats a move this
                # worker already shipped.  The destination's S will
                # recreate it empty on first use.
                continue
            if base_epoch is not None:
                payload = store.extract(bin_id, dirty_since=base_epoch)
            else:
                payload = store.extract(bin_id)
            # Fence the install: the (bin, destination) pair identifies this
            # logical move, so a duplicated delivery — a step retried after
            # its first ship already landed — is dropped at the destination
            # instead of double-applied.
            payload.fence = (bin_id, dst)
            size = payload.size_bytes
            serialize_s = codec.encode_cost(cost, size)
            ctx.charge(serialize_s)
            # The extracted original stays resident until the network has
            # drained the serialized copy (paper §5.3.5: the all-at-once
            # memory spike is send-queue backlog).  The cluster releases the
            # retained bytes at transmit-complete.
            memory.add_retained(size)
            if wants_migration:
                trace.publish(
                    BinStateExtracted(
                        name=self._config.name,
                        time=time,
                        bin=bin_id,
                        src=self._worker_id,
                        dst=dst,
                        size_bytes=size,
                        serialize_s=serialize_s,
                        at=ctx.now,
                        kind=payload.kind,
                    )
                )
            ctx.send(
                1,
                time,
                [(dst, payload, size)],
                size_bytes=size,
                retained_bytes=size,
            )


class _SLogic:
    """One worker's S instance."""

    def __init__(self, config: "MegaphoneConfig", worker_id: int) -> None:
        self._config = config
        self._worker_id = worker_id
        # Data buffered until the frontier passes its time, as F's carriers
        # delivered it: time -> [(tag, bin_ids, columns), ...] in arrival
        # order.  Grouping by bin happens once, at notification.
        self._segments: dict[Timestamp, list] = {}
        # Bins with scheduled (post-dated) work at a time: time -> set of ids.
        self._scheduled_bins: dict[Timestamp, set[int]] = {}
        # Delta migration: base snapshots received ahead of their move,
        # waiting for the delta that completes them.
        self._staged_bases: dict[int, object] = {}

    def _store(self, ctx) -> BinStore:
        return self._config.store_for(ctx)

    def input_cost(self, ctx, port: int, records: list, size_bytes: float) -> float:
        if port == S_STATE_PORT:
            return self._config.codec_obj.decode_cost(ctx.cost, size_bytes)
        # Buffering only; the application cost is charged at notification.
        return batch_record_count(records) * ctx.cost.progress_update_cost

    def on_input(self, ctx, port: int, time: Timestamp, records: list) -> None:
        if port == S_STATE_PORT:
            self._install_state(ctx, time, records)
            return
        # ``records`` are DestinationBatch carriers: stash their segments
        # untouched.
        segments = self._segments.get(time)
        if segments is None:
            segments = self._segments[time] = []
            ctx.notify_at(time)
        for batch in records:
            segments.append((batch.tag, batch.bin_ids, batch.columns))

    def _install_state(self, ctx, time: Timestamp, records: list) -> None:
        store = self._store(ctx)
        trace = ctx.trace
        codec = self._config.codec_obj
        for dst, payload, size in records:
            kind = payload.kind
            if kind == "base":
                # Pre-copy: hold the snapshot aside.  The bin is still live
                # at its source; it becomes resident here only when the
                # delta (or a full payload) completes the move.
                self._staged_bases[payload.bin_id] = payload
                if trace.wants_migration:
                    trace.publish(
                        BinStateInstalled(
                            name=self._config.name,
                            time=time,
                            bin=payload.bin_id,
                            worker=ctx.worker_id,
                            size_bytes=size,
                            deserialize_s=codec.decode_cost(ctx.cost, size),
                            at=ctx.now,
                            kind="base",
                        )
                    )
                continue
            if kind == "delta":
                install_payload = self._merge_delta(ctx, store, payload)
            else:
                # A full payload supersedes any staged base (the source fell
                # back to whole-bin shipping, e.g. an opaque state).
                self._staged_bases.pop(payload.bin_id, None)
                install_payload = payload
            bin_ = store.install(install_payload)
            if trace.wants_migration:
                trace.publish(
                    BinStateInstalled(
                        name=self._config.name,
                        time=time,
                        bin=bin_.bin_id,
                        worker=ctx.worker_id,
                        size_bytes=size,
                        deserialize_s=codec.decode_cost(ctx.cost, size),
                        at=ctx.now,
                        kind=kind,
                    )
                )
            for pending_time in bin_.pending.times():
                self._schedule_bin(ctx, pending_time, bin_.bin_id)

    def _merge_delta(self, ctx, store: BinStore, delta) -> object:
        """Fold a delta payload over its staged base into one full payload.

        The merged payload carries the delta's pending records (the
        authoritative drain from the source) and its fence.  A delta with
        no staged base means the base died in flight — tolerable only under
        recovery mode, where the dirty keys alone are installed (bounded,
        observable loss, same contract as ``_bin_for``).
        """
        base = self._staged_bases.pop(delta.bin_id, None)
        if base is None:
            if not self._config.recovery_mode:
                raise RuntimeError(
                    f"delta for bin {delta.bin_id} arrived with no staged base"
                )
            state = delta.decode_state(copy=True)
        else:
            state = base.decode_state()
            live = delta.decode_state()
            state.update(live)
            for key in delta.deleted:
                state.pop(key, None)
        codec = self._config.codec_obj
        encoded = codec.encode(state)
        state_bytes = store.backend.modeled_bytes(state)
        merged = type(delta)(
            bin_id=delta.bin_id,
            codec=delta.codec,
            payload=encoded,
            pending=delta.pending,
            state_bytes=state_bytes,
            size_bytes=state_bytes,
            keys=len(state) if hasattr(state, "__len__") else 0,
            fence=delta.fence,
        )
        return merged

    def _schedule_bin(self, ctx, time: Timestamp, bin_id: int) -> None:
        bins = self._scheduled_bins.get(time)
        if bins is None:
            bins = self._scheduled_bins[time] = set()
        if bin_id not in bins:
            bins.add(bin_id)
            ctx.notify_at(time)

    def _bin_for(self, ctx, store: BinStore, time: Timestamp, bin_id: int) -> Bin:
        """Fetch a bin for application, recreating it under recovery.

        Outside recovery mode a missing bin is a routing bug and raises.
        Under recovery a miss means the bin's state died with a crashed
        process and a recovery control step retargeted it here before any
        replacement state could be shipped: create it empty (bounded,
        observable data loss — the documented fault-model trade) so the
        stream keeps its Completion guarantee.
        """
        if self._config.recovery_mode and not store.has(bin_id):
            store.create(bin_id)
            trace = ctx.trace
            if trace.wants_recovery:
                trace.publish(
                    BinRecreated(
                        name=self._config.name,
                        bin=bin_id,
                        worker=ctx.worker_id,
                        time=time,
                        at=ctx.now,
                    )
                )
        return store.get(bin_id)

    def on_notify(self, ctx, time: Timestamp) -> None:
        store = self._store(ctx)
        segments = self._segments.pop(time, None)
        if (
            segments is not None
            and self._config.columnar_applier is not None
            and time not in self._scheduled_bins
        ):
            self._apply_columns(ctx, store, time, segments)
            return
        groups: dict[int, list] = {}
        if segments:
            # No columnar applier, or post-dated work joins this time:
            # decode the segments into the per-bin entry lists the
            # per-record apply loop consumes.  Segment order is arrival
            # order, so per-bin entry order is too.
            for tag, bin_ids, colbatch in segments:
                for bin_id, record in zip(bin_ids.tolist(), colbatch.to_records()):
                    entries = groups.get(bin_id)
                    if entries is None:
                        groups[bin_id] = [(tag, record)]
                    else:
                        entries.append((tag, record))
        # Post-dated records go first per bin: they were produced at
        # earlier times than anything arriving at ``time``.
        for bin_id in sorted(self._scheduled_bins.pop(time, ())):
            if not store.has(bin_id):
                continue  # The bin migrated away; its pending work went along.
            bin_ = store.get(bin_id)
            ready = [
                entry
                for _t, entry in bin_.pending.pop_ready(lambda t: less_equal(t, time))
            ]
            if ready:
                existing = groups.get(bin_id)
                groups[bin_id] = ready + existing if existing else ready
        if not groups:
            return
        cost = ctx.cost
        applier = self._config.applier
        recovery = self._config.recovery_mode
        worker_id = ctx.worker_id
        total = 0
        outputs: list = []
        for bin_id in sorted(groups):
            entries = groups[bin_id]
            total += len(entries)
            bin_ = (
                self._bin_for(ctx, store, time, bin_id)
                if recovery
                else store.get(bin_id)
            )
            app = ApplicationContext(time, bin_, entries, worker=worker_id)
            applier(app)
            outputs.extend(app.outputs)
            for sched_time, entry in app.scheduled:
                bin_.pending.push(sched_time, entry)
                self._schedule_bin(ctx, sched_time, bin_id)
            # Backends with maintenance policies (log compaction, tier
            # spill) react to the mutation here; flat backends no-op.  The
            # record count accumulates into per-bin load statistics.
            store.note_applied(bin_id, len(entries))
        ctx.charge(total * cost.record_cost)
        if outputs:
            ctx.send(0, time, outputs)

    def _apply_columns(self, ctx, store: BinStore, time: Timestamp, segments) -> None:
        """Vectorized application: one merged, bin-sorted fold per notification.

        Equivalent to the per-record loop above for a time with no
        scheduled (post-dated) bins: bins are visited ascending, per-bin
        record order is arrival order, the same per-bin ``note_applied``
        counts land in the backend stats, and the CPU charge is the same
        ``total * record_cost``.
        """
        merged = merge_segments(segments, self._config.num_bins)
        if merged is None:
            return
        batch, ubins, starts = merged
        if self._config.recovery_mode:
            states = [
                self._bin_for(ctx, store, time, bin_id).state for bin_id in ubins
            ]
        else:
            states = store.group_states(ubins)
        group = ColumnGroup(
            time, batch.keys, batch.vals, ubins, starts, states, ctx.worker_id
        )
        outputs = self._config.columnar_applier(group)
        store.note_applied_group(ubins, starts)
        ctx.charge(len(batch) * ctx.cost.record_cost)
        if outputs is not None and len(outputs):
            ctx.send(0, time, outputs)


class MegaphoneConfig:
    """Shared construction-time configuration of one migrateable operator."""

    def __init__(
        self,
        name: str,
        num_bins: int,
        initial: BinnedConfiguration,
        key_fns: list[Callable[[object], int]],
        applier: Applier,
        state_factory: Callable[[], object],
        state_size_fn: Optional[Callable[[object], float]],
        state_backend: str = DEFAULT_BACKEND,
        codec: str = DEFAULT_CODEC,
        backend_options: Optional[dict] = None,
        columnar_applier: Optional[Callable] = None,
        delta_migration: bool = False,
    ) -> None:
        self.name = name
        self.num_bins = num_bins
        self.initial = initial
        self.key_fns = key_fns
        self.applier = applier
        # Optional whole-group fold over a ColumnGroup; when set, S applies
        # a notification without post-dated work in one vectorized call
        # instead of one ApplicationContext per bin.  Must be behaviorally
        # identical to ``applier`` — the per-record path remains the pin.
        self.columnar_applier = columnar_applier
        self.state_factory = state_factory
        self.state_size_fn = state_size_fn
        # Backend selection is per-operator; stores on every worker share
        # the names, each worker constructs its own backend instance.
        self.state_backend = state_backend
        self.codec = codec
        self.backend_options = dict(backend_options) if backend_options else {}
        self.codec_obj = resolve_codec(codec)
        # Base-then-delta shipping: F pre-copies moving bins at plan time
        # and ships only the keys dirtied since at execution.  Requires a
        # delta-capable backend; others silently fall back to whole-bin.
        self.delta_migration = delta_migration
        self.s_op: int = -1  # wired by the builder
        # When True (set by fault-injection harnesses) the pair tolerates
        # missing bins: S recreates them empty on first use and F skips
        # extraction of bins it no longer holds.  False keeps the strict
        # fail-loud behavior of fault-free runs.
        self.recovery_mode = False
        self._store_key = f"megaphone:{name}"
        self._route_cost: Optional[float] = None
        # The column kernels take the shift directly; 64 means one bin.
        self.bin_shift = 64 - bin_bits(num_bins)

    def route_cost(self, ctx) -> float:
        if self._route_cost is None:
            self._route_cost = ctx.cost.route_cost_for_bins(self.num_bins)
        return self._route_cost

    def store_for(self, ctx) -> BinStore:
        store = ctx.shared.get(self._store_key)
        if store is None:
            store = self.store_on(ctx.shared, ctx.worker_id, ctx.cost, self.initial)
        return store

    def store_on(self, shared: dict, worker_id: int, cost, seed) -> BinStore:
        """``worker_id``'s bin store in its ``shared`` map, created on first
        use holding ``seed``'s bins for the worker (none when ``seed`` is
        None), as S creates it."""
        store = shared.get(self._store_key)
        if store is None:
            store = BinStore(
                self.num_bins,
                self.state_factory,
                self.state_size_fn,
                bytes_per_key=cost.state_bytes_per_key,
                backend=self.state_backend,
                codec=self.codec,
                backend_options=self.backend_options,
                worker_id=worker_id,
            )
            for bin_id in seed.bins_of(worker_id) if seed is not None else ():
                # A durable backend may have adopted this bin already while
                # replaying the worker's log at bind time.
                if not store.has(bin_id):
                    store.create(bin_id)
            shared[self._store_key] = store
        return store


class MigrateableOperator:
    """Handle to a constructed Megaphone operator pair."""

    def __init__(
        self,
        config: MegaphoneConfig,
        output: Stream,
        f_op: int,
        s_op: int,
    ) -> None:
        self.config = config
        self.output = output
        self.f_op = f_op
        self.s_op = s_op

    def store(self, runtime, worker_id: int) -> BinStore:
        """The bin store resident on ``worker_id`` (tests/metrics)."""
        return runtime.workers[worker_id].shared[f"megaphone:{self.config.name}"]

    def stores(self, runtime, workers=None):
        """Yield ``(worker_id, store)`` for workers with a materialized store.

        A worker that never processed a record has no store; sharded
        runtimes host only their resident workers.  ``workers`` restricts
        the sweep (e.g. to a shard's residents); None sweeps everyone.
        """
        key = f"megaphone:{self.config.name}"
        ids = range(runtime.num_workers) if workers is None else workers
        for worker_id in ids:
            store = runtime.workers[worker_id].shared.get(key)
            if store is not None:
                yield worker_id, store


def build_migrateable(
    control: Stream,
    data_streams: list[Stream],
    key_fns: list[Callable[[object], int]],
    applier: Applier,
    num_bins: int,
    name: str,
    initial: Optional[BinnedConfiguration] = None,
    state_factory: Callable[[], object] = dict,
    state_size_fn: Optional[Callable[[object], float]] = None,
    state_backend: str = DEFAULT_BACKEND,
    codec: str = DEFAULT_CODEC,
    backend_options: Optional[dict] = None,
    columnar_applier: Optional[Callable] = None,
    delta_migration: bool = False,
) -> MigrateableOperator:
    """Assemble the F/S pair for a migrateable operator.

    ``data_streams`` and ``key_fns`` run in parallel: one exchange function
    per data input (paper Listing 1).  Returns a handle whose ``output`` is
    the operator's output stream.  ``state_backend``/``codec`` name the
    registered state representation and serialized form (``repro.state``).
    """
    if len(data_streams) != len(key_fns):
        raise ValueError("one key function per data stream is required")
    if not data_streams:
        raise ValueError("at least one data stream is required")
    dataflow = control.dataflow
    if initial is None:
        initial = BinnedConfiguration.round_robin(num_bins, dataflow.num_workers)
    if initial.num_bins != num_bins:
        raise ValueError("initial configuration has the wrong number of bins")
    config = MegaphoneConfig(
        name=name,
        num_bins=num_bins,
        initial=initial,
        key_fns=key_fns,
        applier=applier,
        state_factory=state_factory,
        state_size_fn=state_size_fn,
        state_backend=state_backend,
        codec=codec,
        backend_options=backend_options,
        columnar_applier=columnar_applier,
        delta_migration=delta_migration,
    )

    f_inputs = [(control, Broadcast())]
    f_inputs.extend((stream, Pipeline()) for stream in data_streams)
    f_outputs = dataflow.add_operator(
        name=f"{name}/F",
        inputs=f_inputs,
        n_outputs=2,
        logic_factory=lambda worker_id: _FLogic(config, worker_id),
    )
    data_out, state_out = f_outputs
    f_op = data_out.op_index

    # Data batches are destination-grouped by F; migrating state still
    # travels as per-bin (dst, bin, size) records on a keyed exchange.
    s_outputs = dataflow.add_operator(
        name=f"{name}/S",
        inputs=[
            (data_out, GroupedExchange()),
            (state_out, Exchange(lambda record: record[0])),
        ],
        n_outputs=1,
        logic_factory=lambda worker_id: _SLogic(config, worker_id),
    )
    output = s_outputs[0]
    s_op = output.op_index
    config.s_op = s_op
    dataflow.watch_output(s_op, f_op)
    return MigrateableOperator(config=config, output=output, f_op=f_op, s_op=s_op)
