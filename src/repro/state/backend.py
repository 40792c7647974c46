"""The state-backend layer: where bin state bytes live.

Megaphone's mechanism (paper §3-4) only needs operator state to be
*extractable* and *installable* at a timestamp; everything else about the
representation — dicts in RAM, an append-only log, a tiered store that
spills cold bins to modeled disk — is a backend decision the operator never
sees.  :class:`StateBackend` is that seam: ``BinStore`` owns one backend
per worker-operator pair, and migration, snapshots, and crash recovery all
serialize through :meth:`StateBackend.extract_bin` +
:meth:`~StateBackend.install_bin` (one path, one codec).

The backend also owns byte accounting (``state_bytes``, resident vs
spilled) and per-bin statistics (key counts and records applied), which
load telemetry and tiered-memory accounting consume.  Access order is
bookkeeping only the tiered backend's LRU spill reads, so it lives there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable

from repro.state.codecs import Codec


def default_state_size(state: object, bytes_per_key: float) -> int:
    """Modeled size of a bin's state in integer bytes: entries x bytes-per-key."""
    try:
        size = len(state) * bytes_per_key  # type: ignore[arg-type]
    except TypeError:
        size = bytes_per_key
    return int(round(size))


class BinNotResident(KeyError):
    """A bin was requested on a worker that does not hold it.

    Carries the bin id, the requesting worker, and the worker's resident
    set so chaos stall diagnoses name the disagreement instead of showing a
    bare dict ``KeyError``.
    """

    def __init__(self, bin_id: object, worker: int, resident: Iterable) -> None:
        self.bin_id = bin_id
        self.worker = worker
        self.resident = tuple(resident)
        super().__init__(bin_id)

    def __str__(self) -> str:
        where = f"worker {self.worker}" if self.worker >= 0 else "this worker"
        shown = ", ".join(str(b) for b in self.resident[:16])
        if len(self.resident) > 16:
            shown += f", ... ({len(self.resident)} total)"
        return (
            f"bin {self.bin_id} is not resident on {where} "
            f"(resident bins: [{shown}])"
        )


@dataclass(frozen=True)
class BinStats:
    """Per-bin metadata a placement policy can act on."""

    bin_id: object
    keys: int
    resident_bytes: int
    spilled_bytes: int
    # Records applied to the bin since creation/installation: key skew in
    # the offered load, the signal the migration planner's telemetry
    # aggregates.
    records: int = 0

    @property
    def resident(self) -> bool:
        return self.spilled_bytes == 0

    @property
    def total_bytes(self) -> int:
        return self.resident_bytes + self.spilled_bytes


@dataclass
class BinPayload:
    """A bin's serialized form: the unit migration, snapshots, and crash
    recovery all ship and install.

    ``payload`` is codec-encoded state (for the ``modeled`` codec, the
    state object itself); ``pending`` is the bin's post-dated record list
    in drain order.  ``state_bytes`` covers the state alone and
    ``size_bytes`` adds the modeled pending-record bytes — the number a
    migration ships over the simulated network.
    """

    bin_id: object
    codec: str
    payload: object
    pending: list = field(default_factory=list)
    state_bytes: int = 0
    size_bytes: int = 0
    keys: int = 0
    # Delta-migration wire metadata.  ``kind`` is "full" (a complete
    # state), "base" (a pre-copy snapshot shipped ahead of the move), or
    # "delta" (only keys dirtied strictly after ``base_epoch``, plus the
    # keys ``deleted`` since then).  ``fence`` names the migration step
    # that produced the payload so a duplicated install (retried step) is
    # recognized and dropped instead of double-applied.
    kind: str = "full"
    base_epoch: int = -1
    deleted: tuple = ()
    fence: object = None

    def decode_state(self, *, copy: bool = False) -> object:
        """Decode the payload with its codec (registry-resolved).

        ``copy=True`` guarantees a fresh object even for identity codecs —
        required when the payload outlives the install (snapshot restore).
        """
        from repro.state.registry import resolve_codec

        codec = resolve_codec(self.codec)
        state = codec.decode(self.payload)
        return codec.copy(state) if copy else state


def _as_bytes(value: float) -> int:
    """Coerce a modeled size to integer bytes (non-negative)."""
    size = int(round(value))
    return size if size > 0 else 0


def _key_count(state: object) -> int:
    try:
        return len(state)  # type: ignore[arg-type]
    except TypeError:
        return 0


class StateBackend:
    """Base class: bin-granular state storage behind a uniform interface.

    Subclasses choose the representation; this base owns the pieces every
    backend shares — the size model, the codec, and per-bin record counts.
    ``size_fn(state) -> bytes`` is the modeled size of one bin's resident
    state (the seed's ``keys x bytes-per-key`` model by default).
    """

    name: ClassVar[str] = ""

    def __init__(
        self,
        state_factory: Callable[[], object],
        size_fn: Callable[[object], float],
        codec: Codec,
    ) -> None:
        self._state_factory = state_factory
        self._size_fn = size_fn
        self.codec = codec
        self._records: dict[object, int] = {}

    def bind_worker(self, worker_id: int) -> None:
        """Attach the backend to its owning worker (default no-op).

        Durable backends locate their per-worker log here and replay it if
        non-empty — recovery after a crash/restart happens at bind time.
        """

    def bin_delta_capable(self, bin_id: object) -> bool:
        """Whether this bin can serve a delta extraction
        (``extract_bin(..., dirty_since=E)``); only a backend that tracks
        per-key dirty epochs says yes, and only for a tracked state."""
        return False

    # -- bookkeeping shared by all backends ------------------------------------

    def _forget(self, bin_id: object) -> None:
        self._records.pop(bin_id, None)

    def note_records(self, bin_id: object, count: int) -> None:
        """Account ``count`` records applied to ``bin_id`` (load telemetry).

        Pure bookkeeping — no representation change, no access — so calling
        it never perturbs spill/compaction policies.
        """
        if count > 0:
            self._records[bin_id] = self._records.get(bin_id, 0) + count

    def records_applied(self, bin_id: object) -> int:
        """Records applied to ``bin_id`` since creation/installation."""
        return self._records.get(bin_id, 0)

    def modeled_bytes(self, state: object) -> int:
        """Modeled resident bytes of one state object."""
        return _as_bytes(self._size_fn(state))

    # -- bin lifecycle ----------------------------------------------------------

    def create_bin(self, bin_id: object) -> object:
        raise NotImplementedError

    def has_bin(self, bin_id: object) -> bool:
        raise NotImplementedError

    def drop_bin(self, bin_id: object) -> None:
        raise NotImplementedError

    def bin_ids(self) -> list:
        raise NotImplementedError

    # -- whole-state access -----------------------------------------------------

    def state_of(self, bin_id: object) -> object:
        """The bin's mutable user state (a tiered backend may promote it)."""
        raise NotImplementedError

    def put_state(self, bin_id: object, state: object) -> None:
        """Replace the bin's state wholesale (restore paths)."""
        raise NotImplementedError

    def note_applied(self, bin_id: object) -> None:
        """Hook called after an applier mutated the bin (default no-op)."""

    def states_of_group(self, bin_ids) -> list:
        """States of several bins in order — one :meth:`state_of` each
        (``KeyError`` on a missing bin), so a tiered backend promotes and
        spills exactly as per-bin calls would."""
        return [self.state_of(bin_id) for bin_id in bin_ids]

    def note_applied_group(self, bin_ids, starts) -> None:
        """Batched applier bookkeeping for one sorted bin group.

        ``starts`` brackets each bin's records: bin ``j`` applied
        ``starts[j+1] - starts[j]`` records.  Equivalent to ``note_records``
        for every bin, then ``note_applied`` per bin in order (no
        ``note_applied`` hook reads the record counts).
        """
        self._note_group_records(bin_ids, starts)
        if type(self).note_applied is not StateBackend.note_applied:
            for bin_id in bin_ids:
                self.note_applied(bin_id)

    def _note_group_records(self, bin_ids, starts) -> None:
        """The ``note_records`` half of :meth:`note_applied_group`."""
        records = self._records
        get = records.get
        lo = starts[0]
        for bin_id, hi in zip(bin_ids, starts[1:]):
            if hi > lo:
                records[bin_id] = get(bin_id, 0) + hi - lo
            lo = hi

    # -- byte accounting --------------------------------------------------------

    def state_bytes(self, bin_id: object) -> int:
        """Modeled bytes of one bin's state (resident or spilled)."""
        raise NotImplementedError

    def resident_bytes(self) -> int:
        """Modeled bytes currently held in the hot tier (RAM)."""
        raise NotImplementedError

    def spilled_bytes(self) -> int:
        """Modeled bytes currently held in the cold tier (0 for flat backends)."""
        return 0

    def total_bytes(self) -> int:
        return self.resident_bytes() + self.spilled_bytes()

    # -- statistics -------------------------------------------------------------

    def bin_stats(self, bin_id: object) -> BinStats:
        raise NotImplementedError

    # -- the single serialization path ------------------------------------------

    def extract_bin(self, bin_id: object, *, remove: bool = True) -> BinPayload:
        """Serialize one bin's state through the codec.

        ``remove=True`` (migration, crash extraction) drops the bin;
        ``remove=False`` (snapshots) leaves it untouched and returns an
        independent payload.  Pending records are attached by the caller
        (``BinStore`` owns the pending queues).
        """
        raise NotImplementedError

    def install_bin(self, payload: BinPayload, *, replace: bool = False) -> object:
        """Install a payload produced by :meth:`extract_bin`.

        Returns the installed state object.  ``replace=True`` overwrites an
        existing bin (snapshot restore); otherwise an existing bin is an
        error, exactly as the seed's ``BinStore.install`` behaved.
        """
        raise NotImplementedError


class DictBackend(StateBackend):
    """The seed's representation: one in-memory object per bin.

    Every method is a dict operation; sizes come straight from the size
    model.  This backend is the default and must remain byte-identical to
    the pre-backend code — the equivalence tests pin that.
    """

    name = "dict"

    def __init__(
        self,
        state_factory: Callable[[], object],
        size_fn: Callable[[object], float],
        codec: Codec,
    ) -> None:
        super().__init__(state_factory, size_fn, codec)
        self._states: dict[object, object] = {}

    # -- bin lifecycle ----------------------------------------------------------

    def create_bin(self, bin_id: object) -> object:
        if bin_id in self._states:
            raise ValueError(f"bin {bin_id} already present")
        state = self._state_factory()
        self._states[bin_id] = state
        return state

    def has_bin(self, bin_id: object) -> bool:
        return bin_id in self._states

    def drop_bin(self, bin_id: object) -> None:
        self._states.pop(bin_id, None)
        self._forget(bin_id)

    def bin_ids(self) -> list:
        return list(self._states)

    # -- state access -----------------------------------------------------------

    def state_of(self, bin_id: object) -> object:
        return self._states[bin_id]

    def states_of_group(self, bin_ids) -> list:
        states = self._states
        return [states[bin_id] for bin_id in bin_ids]

    def put_state(self, bin_id: object, state: object) -> None:
        self._states[bin_id] = state

    # -- byte accounting --------------------------------------------------------

    def state_bytes(self, bin_id: object) -> int:
        return self.modeled_bytes(self._states[bin_id])

    def resident_bytes(self) -> int:
        return sum(self.modeled_bytes(s) for s in self._states.values())

    # -- statistics -------------------------------------------------------------

    def bin_stats(self, bin_id: object) -> BinStats:
        state = self._states[bin_id]
        return BinStats(
            bin_id=bin_id,
            keys=_key_count(state),
            resident_bytes=self.modeled_bytes(state),
            spilled_bytes=0,
            records=self._records.get(bin_id, 0),
        )

    # -- serialization ----------------------------------------------------------

    def extract_bin(self, bin_id: object, *, remove: bool = True) -> BinPayload:
        state = self._states[bin_id]
        keys = _key_count(state)
        if remove:
            del self._states[bin_id]
            self._forget(bin_id)
            payload = self.codec.encode(state)
        else:
            payload = self.codec.encode(self.codec.copy(state))
        measured = self.codec.measured_bytes(payload)
        nbytes = measured if measured is not None else self.modeled_bytes(state)
        return BinPayload(
            bin_id=bin_id,
            codec=self.codec.name,
            payload=payload,
            state_bytes=nbytes,
            size_bytes=nbytes,
            keys=keys,
        )

    def install_bin(self, payload: BinPayload, *, replace: bool = False) -> object:
        if not replace and payload.bin_id in self._states:
            raise ValueError(f"bin {payload.bin_id} already present")
        from repro.state.registry import resolve_codec

        state = resolve_codec(payload.codec).decode(payload.payload)
        self._states[payload.bin_id] = state
        return state
