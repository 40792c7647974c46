"""Recovery: reconciling Megaphone state with cluster membership.

Two cooperating pieces:

* :class:`ConfigurationLedger` — the controller-side record of the intended
  bin-to-worker assignment.  Every control step a fault-handling controller
  sends (planned, retried, or recovery) is applied to the ledger, so it is
  always the configuration the *control stream* converges to — which is what
  crash reconciliation and restart reseeding must agree with.

* :class:`RecoveryCoordinator` — restores Megaphone bin state around
  membership changes.  On a crash it (via the controller's
  ``on_recovery_step`` hook) installs the latest snapshot's state for the
  orphaned bins into their new owners — the paper's §4.4 observation that
  migration-grade snapshots "feed back into finer-grained fault-tolerance
  mechanisms" made concrete.  On a restart it reseeds the returned workers'
  bin stores and routing tables from the ledger, because a freshly
  reinstalled F/S pair believes the initial configuration.

Pending (post-dated) records in a snapshot are intentionally *not* restored
on the crash path: their notification times may already lie behind the
surviving frontier.  Recovery restores state, not in-flight work — bounded,
observable loss is the fault model's documented trade.
"""

from __future__ import annotations

import hashlib
import pickle
from collections.abc import MutableMapping
from typing import Callable, Optional

from repro.megaphone.bins import BinStore
from repro.megaphone.control import BinnedConfiguration, ControlInst
from repro.runtime_events.events import StateReinstalled, StorageFaultReport


def store_fingerprint(store: BinStore) -> str:
    """Deterministic digest of a store's resident bin states.

    Bins are visited in sorted order; mapping states are canonicalized by
    sorted items, so two stores holding equal state hash equally regardless
    of insertion order or representation (dict vs durable log).  Pending
    (in-flight) records are excluded — they die with a crash by design, so
    fingerprints compare exactly what recovery guarantees: the state.
    """
    digest = hashlib.sha256()
    for bin_id in sorted(store.resident_bins()):
        payload = store.extract(bin_id, remove=False)
        state = payload.decode_state(copy=False)
        if isinstance(state, (dict, MutableMapping)):
            canonical = sorted(state.items())
        else:
            canonical = state
        digest.update(pickle.dumps((bin_id, canonical), protocol=4))
    return digest.hexdigest()


def cluster_fingerprint(stores) -> str:
    """Owner-independent digest of the whole cluster's bin states.

    Hashes every resident bin across ``stores`` in global ``bin_id`` order
    (each bin is owned by exactly one store), canonicalized exactly like
    :func:`store_fingerprint` — so two runs that place the same per-bin
    state on *different* workers hash equally.  This is the pin for
    elastic-membership runs: a scripted join/drain run must match a
    static-membership twin bin for bin even though the final owner map
    differs (drain packs by load, round-robin deals by index).
    """
    entries = []
    for store in stores:
        for bin_id in store.resident_bins():
            payload = store.extract(bin_id, remove=False)
            state = payload.decode_state(copy=False)
            if isinstance(state, (dict, MutableMapping)):
                canonical = sorted(state.items())
            else:
                canonical = state
            entries.append((bin_id, canonical))
    entries.sort(key=lambda entry: entry[0])
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(pickle.dumps(entry, protocol=4))
    return digest.hexdigest()


class ConfigurationLedger:
    """The intended bin assignment, updated with every control step."""

    def __init__(self, initial: BinnedConfiguration) -> None:
        self.initial = initial
        self.current = initial
        self.history: list[BinnedConfiguration] = [initial]

    def apply(self, insts: list[ControlInst]) -> None:
        """Advance the ledger past one control step."""
        insts = list(insts)
        if not insts:
            return
        self.current = self.current.apply(insts)
        self.history.append(self.current)

    def bins_of(self, worker: int) -> list[int]:
        """Bins the current configuration places on ``worker``."""
        return self.current.bins_of(worker)


class RecoveryCoordinator:
    """Reinstalls Megaphone state for crashed-and-reassigned bins.

    ``snapshot_provider`` returns the most recent
    :class:`~repro.megaphone.snapshot.OperatorSnapshot` (or ``None`` when no
    checkpoint exists yet) — evaluated lazily at recovery time so a snapshot
    captured mid-run is picked up.
    """

    def __init__(
        self,
        runtime,
        op,
        ledger: ConfigurationLedger,
        injector=None,
        snapshot_provider: Optional[Callable[[], object]] = None,
        durable: bool = False,
    ) -> None:
        self._runtime = runtime
        self._op = op
        self._ledger = ledger
        self._snapshot_provider = snapshot_provider
        # Durable mode: restarted workers rebuild their bins by replaying
        # their own write-ahead log instead of reinstalling an in-memory
        # snapshot.  The log is the truth; snapshots are not consulted on
        # the restart path.  (The crash path is unchanged — a dead worker's
        # local log is unreachable until its process returns, so bins
        # retargeted to survivors still restore from the snapshot.)
        self.durable = durable
        self.restored_bins = 0
        self.recreated_stores = 0
        # worker -> fingerprint of the state its restart recovered (durable
        # mode only); experiments compare these across fault variants.
        self.recovered_fingerprints: dict[int, str] = {}
        self.storage_faults: list[StorageFaultReport] = []
        if injector is not None:
            injector.on_membership_change(self._on_membership)

    # -- crash path (driven by the reconciling controller) ---------------------

    def on_recovery_step(self, result) -> None:
        """Install snapshot state for a recovery step's retargeted bins.

        ``result`` is the controller's :class:`StepResult` for the step that
        reassigns orphaned bins to survivors.  Bins with no snapshot entry
        start empty at the new owner (S recreates them on first use).
        """
        snapshot = self._snapshot()
        if snapshot is None:
            return
        per_worker: dict[int, list] = {}
        for inst in result.insts:
            bin_snapshot = snapshot.bins.get(inst.bin)
            if bin_snapshot is not None:
                per_worker.setdefault(inst.worker, []).append(bin_snapshot)
        for worker, bin_snapshots in sorted(per_worker.items()):
            store = self._store_of(worker, seed=self._op.config.initial)
            installed = 0
            size = 0
            for bin_snapshot in bin_snapshots:
                store.restore_state(bin_snapshot.bin_id, bin_snapshot.payload)
                installed += 1
                size += store.state_size(bin_snapshot.bin_id)
            self.restored_bins += installed
            self._trace_reinstall(worker, len(bin_snapshots), installed, size)

    # -- restart path ----------------------------------------------------------

    def _on_membership(self, kind: str, process: int, workers: tuple) -> None:
        if kind != "restart":
            return
        snapshot = None if self.durable else self._snapshot()
        for worker in workers:
            # The reinstalled F believes the initial configuration; hand it
            # the assignment the control stream has converged to.
            self._runtime.logic_of(worker, self._op.f_op).reset_routing(
                self._ledger.current
            )
            # Fresh store seeded with the bins the ledger places here (the
            # worker's ``shared`` dict was wiped by the reinstall).  A
            # durable backend replays its surviving log inside the store
            # constructor, so the store may come back already holding bins.
            assigned = self._ledger.bins_of(worker)
            store = self._store_of(worker, seed=None)
            restored = 0
            size = 0
            if self.durable:
                restored, size = self._reconcile_durable(worker, store, assigned)
            else:
                for bin_id in assigned:
                    if not store.has(bin_id):
                        store.create(bin_id)
                    if snapshot is not None and bin_id in snapshot.bins:
                        store.restore_state(bin_id, snapshot.bins[bin_id].payload)
                        restored += 1
                        size += store.state_size(bin_id)
            self.recreated_stores += 1
            self.restored_bins += restored
            self._trace_reinstall(worker, len(assigned), restored, size)
        self._runtime.mark_progress()

    def _reconcile_durable(
        self, worker: int, store: BinStore, assigned: list
    ) -> tuple[int, float]:
        """Align a log-replayed store with the ledger's current assignment.

        The configuration may have moved bins off this worker while it was
        dead (a recovery control step retargeted them to survivors): those
        replayed bins are stale and dropped.  Bins the ledger assigns here
        that the log does not hold start empty.  Publishes a
        :class:`StorageFaultReport` when the replay found crash damage, and
        fingerprints what survived.
        """
        recovered = set(store.resident_bins())
        assigned_set = set(assigned)
        for bin_id in sorted(recovered - assigned_set):
            store.drop(bin_id)
        for bin_id in sorted(assigned_set - recovered):
            store.create(bin_id)
        restored = 0
        size = 0
        for bin_id in sorted(recovered & assigned_set):
            restored += 1
            size += store.state_size(bin_id)
        recovery = getattr(store.backend, "last_recovery", None)
        if recovery is not None and not recovery.clean:
            report = StorageFaultReport(
                worker=worker,
                torn_frame=recovery.torn_frame,
                corrupt_frame=recovery.corrupt_frame,
                lost_tail_bytes=recovery.lost_tail_bytes,
                truncated_bytes=recovery.truncated_bytes,
                frames_replayed=recovery.frames_replayed,
                bins_recovered=recovery.bins_recovered,
                at=self._runtime.sim.now,
            )
            self.storage_faults.append(report)
            trace = self._runtime.sim.trace
            if trace.wants_faults:
                trace.publish(report)
        self.recovered_fingerprints[worker] = store_fingerprint(store)
        return restored, size

    # -- helpers ---------------------------------------------------------------

    def _snapshot(self):
        if self._snapshot_provider is None:
            return None
        return self._snapshot_provider()

    def _store_of(
        self, worker: int, seed: Optional[BinnedConfiguration]
    ) -> BinStore:
        """Get or create ``worker``'s bin store.

        ``seed`` (when creating) decides which bins to pre-create, matching
        ``MegaphoneConfig.store_for``'s lazy-initialization semantics.
        """
        config = self._op.config
        shared = self._runtime.workers[worker].shared
        key = f"megaphone:{config.name}"
        store = shared.get(key)
        if store is None:
            store = BinStore(
                config.num_bins,
                config.state_factory,
                config.state_size_fn,
                bytes_per_key=self._runtime.cluster.cost.state_bytes_per_key,
                backend=config.state_backend,
                codec=config.codec,
                backend_options=config.backend_options,
                worker_id=worker,
            )
            if seed is not None:
                for bin_id in seed.bins_of(worker):
                    # A durable backend may have adopted the bin already
                    # while replaying its log in the constructor.
                    if not store.has(bin_id):
                        store.create(bin_id)
            shared[key] = store
        return store

    def _trace_reinstall(
        self, worker: int, bins: int, restored: int, size_bytes: float
    ) -> None:
        trace = self._runtime.sim.trace
        if trace.wants_recovery:
            trace.publish(
                StateReinstalled(
                    worker=worker,
                    bins=bins,
                    restored_bins=restored,
                    size_bytes=size_bytes,
                    at=self._runtime.sim.now,
                )
            )
