"""Bins: the unit of state organization and migration.

Paper §4.2: keys are statically grouped into a power-of-two number of bins;
the configuration function maps ``(time, bin)`` to a worker.  A bin carries
both the user state for its keys and the pending ``(time, tag, key, val)``
records scheduled for future times — both migrate together (paper §3.4:
"The state includes both the state for operator, as well as the list of
pending (val, time) records").

``BinStore`` is the per-worker container shared between the F and S operator
instances of one migrateable operator (the paper's shared pointer, possible
because timely multiplexes all operators of a worker on one thread).  Where
the state bytes actually live is a :class:`repro.state.StateBackend`
decision: the store owns one backend, and every serialization — migration
shipping, snapshots, crash recovery — goes through the backend's
``extract_bin`` + codec path.
"""

from __future__ import annotations

import hashlib
import pickle
from collections.abc import MutableMapping
from typing import Callable, Optional

from repro.state.backend import (
    BinNotResident,
    BinPayload,
    BinStats,
    StateBackend,
    default_state_size,
)
from repro.state.registry import DEFAULT_BACKEND, DEFAULT_CODEC, make_backend
from repro.timely.notificator import PendingQueue


class Bin:
    """One bin: a view of its backend-held user state plus pending records."""

    __slots__ = ("bin_id", "pending", "_backend")

    def __init__(self, bin_id: int, backend: StateBackend) -> None:
        self.bin_id = bin_id
        self.pending = PendingQueue()
        self._backend = backend

    @property
    def state(self) -> object:
        """The bin's mutable user state (fetched from the backend)."""
        return self._backend.state_of(self.bin_id)

    @state.setter
    def state(self, value: object) -> None:
        self._backend.put_state(self.bin_id, value)

    def pending_len(self) -> int:
        """Number of buffered future records."""
        return len(self.pending)


class BinStore:
    """All bins of one migrateable operator resident on one worker."""

    def __init__(
        self,
        num_bins: int,
        state_factory: Callable[[], object],
        state_size_fn: Optional[Callable[[object], float]] = None,
        bytes_per_key: float = 8.0,
        backend: str = DEFAULT_BACKEND,
        codec: str = DEFAULT_CODEC,
        backend_options: Optional[dict] = None,
        worker_id: int = -1,
    ) -> None:
        self.num_bins = num_bins
        self.worker_id = worker_id
        self._state_factory = state_factory
        self._bytes_per_key = bytes_per_key
        if state_size_fn is not None:
            size_fn = lambda state: int(round(state_size_fn(state)))  # noqa: E731
        else:
            size_fn = lambda state: default_state_size(state, bytes_per_key)  # noqa: E731
        self.backend = make_backend(
            backend, state_factory, size_fn, codec=codec, options=backend_options
        )
        self._bins: dict[int, Bin] = {}
        # Fence of the last installed payload per bin: a duplicated install
        # (a migration step retried after its first delivery succeeded) is
        # recognized here and dropped instead of double-applied.
        self._install_fences: dict[int, object] = {}
        # Durable backends recover at bind time: replaying the worker's log
        # may leave bins already resident, which the store must adopt so
        # ``has``/``get`` see them.
        self.backend.bind_worker(worker_id)
        for bin_id in self.backend.bin_ids():
            self._bins[bin_id] = Bin(bin_id, self.backend)

    @property
    def codec(self):
        """The codec every serialization of this store goes through."""
        return self.backend.codec

    def create(self, bin_id: int) -> Bin:
        """Create an empty bin locally (initial placement)."""
        if bin_id in self._bins:
            raise ValueError(f"bin {bin_id} already present")
        self.backend.create_bin(bin_id)
        bin_ = Bin(bin_id, self.backend)
        self._bins[bin_id] = bin_
        return bin_

    def get(self, bin_id: int) -> Bin:
        """The locally resident bin ``bin_id`` (BinNotResident if absent)."""
        try:
            return self._bins[bin_id]
        except KeyError:
            raise BinNotResident(bin_id, self.worker_id, self._bins) from None

    def has(self, bin_id: int) -> bool:
        """Whether ``bin_id`` is resident on this worker."""
        return bin_id in self._bins

    def resident_bins(self) -> list[int]:
        """Ids of bins currently on this worker."""
        return list(self._bins)

    # -- the single serialization path ------------------------------------------

    def extract(
        self,
        bin_id: int,
        *,
        remove: bool = True,
        dirty_since: Optional[int] = None,
    ) -> BinPayload:
        """Serialize ``bin_id`` (state through the codec, pending attached).

        ``remove=True`` uninstalls the bin (migration/extraction);
        ``remove=False`` reads a consistent copy (snapshots, fingerprints)
        without disturbing the resident bin, its pending queue or a durable
        log.  ``dirty_since`` asks for only the keys dirtied after that
        epoch; pass it only for a bin whose base :meth:`capture_base`
        returned (F does).
        """
        bin_ = self.get(bin_id)
        if dirty_since is not None:
            payload = self.backend.extract_bin(
                bin_id, remove=remove, dirty_since=dirty_since
            )
        else:
            payload = self.backend.extract_bin(bin_id, remove=remove)
        if remove:
            del self._bins[bin_id]
            # The bin is leaving: a later re-install at this worker is a new
            # logical move, so the old fence must not suppress it.
            self._install_fences.pop(bin_id, None)
            payload.pending = bin_.pending.drain()
        else:
            entries = bin_.pending.drain()
            bin_.pending.extend(entries)
            payload.pending = [(time, entry) for time, entry in entries]
        payload.size_bytes = payload.state_bytes + int(
            round(len(payload.pending) * self._bytes_per_key)
        )
        return payload

    def delta_capable(self, bin_id: int) -> bool:
        """Whether ``bin_id`` can ship base-then-delta (backend tracks dirty
        epochs and the bin's state is a tracked mapping)."""
        return self.backend.bin_delta_capable(bin_id)

    def capture_base(self, bin_id: int) -> BinPayload:
        """A base of ``bin_id`` to pre-copy (the backend must be the wal):
        its state alone, stamped with the epoch a later delta is cut from."""
        payload = self.backend.capture_base(bin_id)
        payload.kind = "base"
        return payload

    def take(self, bin_id: int) -> BinPayload:
        """Remove and return ``bin_id``'s payload for migration
        (BinNotResident if absent)."""
        return self.extract(bin_id, remove=True)

    def install(self, payload: BinPayload, *, replace: bool = False) -> Bin:
        """Install a payload produced by :meth:`extract` (migration arrival,
        snapshot restore, crash recovery — one path for all three).

        Fenced: a payload whose ``fence`` matches the last one installed
        for its bin is a duplicate delivery (retried step) and returns the
        resident bin untouched — neither state nor pending records are
        applied twice.
        """
        fence = payload.fence
        if (
            fence is not None
            and payload.bin_id in self._bins
            and self._install_fences.get(payload.bin_id) == fence
        ):
            return self._bins[payload.bin_id]
        self.backend.install_bin(payload, replace=replace)
        bin_ = self._bins.get(payload.bin_id)
        if bin_ is None:
            bin_ = Bin(payload.bin_id, self.backend)
            self._bins[payload.bin_id] = bin_
        if fence is not None:
            self._install_fences[payload.bin_id] = fence
        bin_.pending.extend(payload.pending)
        return bin_

    def drop(self, bin_id: int) -> None:
        """Discard a resident bin outright (no payload) — durable-recovery
        reconciliation when the configuration moved a bin away while its
        worker was dead.  No-op if absent."""
        if bin_id in self._bins:
            del self._bins[bin_id]
            self.backend.drop_bin(bin_id)
            self._install_fences.pop(bin_id, None)

    def restore_state(self, bin_id: int, payload: BinPayload) -> Bin:
        """Overwrite ``bin_id``'s state from a snapshot payload, leaving the
        resident pending queue untouched (the crash-recovery contract)."""
        if bin_id not in self._bins:
            self.create(bin_id)
        bin_ = self._bins[bin_id]
        # Copy on decode: the snapshot payload outlives this install and may
        # be restored again (repeated crashes), so never alias it.
        self.backend.put_state(bin_id, payload.decode_state(copy=True))
        return bin_

    # -- byte accounting --------------------------------------------------------

    def state_size(self, bin_id: int) -> int:
        """Modeled bytes of one bin's state (including pending records)."""
        bin_ = self.get(bin_id)
        size = self.backend.state_bytes(bin_id)
        return size + int(round(bin_.pending_len() * self._bytes_per_key))

    def total_state_size(self) -> int:
        """Modeled bytes of all resident bins (hot and spilled tiers)."""
        return sum(self.state_size(b) for b in self._bins)

    def resident_state_size(self) -> int:
        """Modeled bytes occupying RAM: hot-tier state plus pending records."""
        pending = sum(
            int(round(b.pending_len() * self._bytes_per_key))
            for b in self._bins.values()
        )
        return self.backend.resident_bytes() + pending

    def spilled_state_size(self) -> int:
        """Modeled bytes the backend holds on the cold tier (0 when flat)."""
        return self.backend.spilled_bytes()

    # -- statistics -------------------------------------------------------------

    def stats(self) -> dict[int, BinStats]:
        """Stats for every resident bin."""
        return {b: self.backend.bin_stats(b) for b in self._bins}

    def note_applied(self, bin_id: int, records: int = 0) -> None:
        """Tell the backend an applier just mutated ``bin_id`` with
        ``records`` records (compaction and spill policies hook on the
        mutation; the record count feeds per-bin load telemetry)."""
        if records:
            self.backend.note_records(bin_id, records)
        self.backend.note_applied(bin_id)

    # -- batched application (the columnar hot path) -----------------------------

    def group_states(self, bin_ids) -> list:
        """States of several resident bins, in order (BinNotResident on a
        miss).  One backend round-trip for the whole group instead of a
        ``get`` + ``state`` property chain per bin."""
        try:
            return self.backend.states_of_group(bin_ids)
        except KeyError as missing:
            raise BinNotResident(
                missing.args[0], self.worker_id, self._bins
            ) from None

    def note_applied_group(self, bin_ids, starts) -> None:
        """Batched :meth:`note_applied` over one sorted application group
        (bin ``j`` applied ``starts[j+1] - starts[j]`` records)."""
        self.backend.note_applied_group(bin_ids, starts)


def _canonical(store: BinStore, bin_ids):
    """``(bin_id, state)`` per bin, a mapping state as its sorted items."""
    for bin_id in bin_ids:
        state = store.extract(bin_id, remove=False).decode_state(copy=False)
        if isinstance(state, (dict, MutableMapping)):
            state = sorted(state.items())
        yield bin_id, state


def store_fingerprint(store: BinStore) -> str:
    """Deterministic digest of a store's resident bin states.

    Bins are visited in sorted order; mapping states are canonicalized by
    sorted items, so two stores holding equal state hash equally regardless
    of insertion order or representation (dict vs durable log).  Pending
    (in-flight) records are excluded — they die with a crash by design, so
    fingerprints compare exactly what recovery guarantees: the state.
    """
    digest = hashlib.sha256()
    for entry in _canonical(store, sorted(store.resident_bins())):
        digest.update(pickle.dumps(entry, protocol=4))
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
    entries = [e for store in stores for e in _canonical(store, store.resident_bins())]
    entries.sort(key=lambda entry: entry[0])
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(pickle.dumps(entry, protocol=4))
    return digest.hexdigest()
