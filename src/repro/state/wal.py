"""Durable write-ahead state: a segmented, checksummed log per worker.

The paper's future work calls for migrating state that lives on disk; this
backend is that representation.  A bin is persisted one way, whole: every
application commit checkpoints each bin it applied — an opaque state as
itself, a mapping state as a plain dict of its entries — and creates,
installs, drops and base captures are logged beside those checkpoints, each
as a CRC32-framed record in a per-worker :class:`WorkerWal`.  A key-level
log could not see a value changed in place (a NEXMark fold's
``entry[1] = bid.price``), so there is none.  The log is the bin's durable
truth: after a crash-and-restart wipes the worker's in-memory stores,
:meth:`WalBackend.bind_worker` replays the surviving log and rebuilds every
resident bin from frames alone (no in-memory snapshot is consulted).

Frame format (DESIGN.md §13)::

    <HBII little-endian  =  magic(0xWA1F) | kind(1B) | length(4B) | crc32(4B)
    followed by `length` payload bytes (pickled record tuple)

The CRC covers the kind and length bytes as well as the payload, so a bit
flip in either header field is caught like one in the body.  Kinds:
``K_CREATE``, ``K_CKPT`` (a checkpoint or an install: the bin's whole
state), ``K_DROP`` and ``K_EPOCH`` are record frames; two kinds hold several
under one header, CRC and pickle.  A ``K_BATCH`` frame's record is a tuple
of ``(kind, record)`` sub-frames of the record kinds.  A ``K_ROWS`` frame is
a group of checkpoints whose states are all instances of one plain slotted
class (:func:`_plain_slots`): ``(cls, slot_names, rows)``, one
``(bin_id, epoch, *values)`` row per bin, so the class and its slot names
are pickled once instead of once per bin.  :meth:`WorkerWal.scan` expands
either only after its CRC has passed, a row into exactly the ``K_CKPT``
sub-frame a batch would hold, so replay sees record frames only.

Recovery scans frames in order and stops at the first invalid one — bad
magic, a CRC mismatch (bit flip), a batch or rows body of the wrong shape,
or a frame that runs past the end of the log (torn final write).
Everything before the cut is intact by construction; everything after it
is truncated away, and the damage is summarized in a
:class:`WalRecovery` the chaos layer publishes as a ``StorageFaultReport``.

Crash-consistency model: :meth:`WorkerWal.sync` advances the fsync horizon.
Frames behind the horizon survive any crash; frames past it exist only in
the modeled page cache and are destroyed by the ``lose_unsynced_tail``
storage fault.  ``WalBackend`` syncs every frame it writes inside the
callback that writes it, and a crash lands between simulator callbacks, so
a crash never finds an unsynced tail on a backend's log.  One application
group — one ``note_applied_group`` call, or one ``note_applied`` — commits
as one frame (:func:`checkpoint_frame`: a ``K_ROWS``, a lone ``K_CKPT`` or a
``K_BATCH`` of them) and one sync, so at every crash point the log replays
to the bins and states one frame per bin would.

Epoch stamps: every applied bin closes one epoch (a group of ``n`` bins
stamps its checkpoints ``e, e+1, …, e+n-1``), and every frame carries the
epoch it was written under.  From its first base capture
(:meth:`WalBackend.capture_base`, which F calls to pre-copy a moving bin)
until it leaves, a mapping state stamps each key it hands out or changes
with the open epoch (a value that is read can be changed in place).
``extract_bin(..., dirty_since=E)`` produces a *delta* payload holding only
keys stamped strictly after ``E`` — the wire format of delta migration
(base payloads record their epoch at capture).  Stamps are not logged: a
recovered mapping bin counts as captured and stamps every key with the
reborn epoch, so a delta since a base shipped before the crash carries the
whole bin.  A base capture closes its epoch with a synced ``K_EPOCH``
frame, so replay resumes above every base epoch already shipped; a copy
(``extract_bin(..., remove=False)``: snapshots, fingerprints) writes
nothing.

Compaction: once ``compact_threshold`` records (sub-frames counted) have
accumulated, the whole log is rewritten as one frame holding a
checkpoint per resident bin.
"""

from __future__ import annotations

import copyreg
import pickle
import random
import struct
import zlib
from collections.abc import MutableMapping
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from typing import Callable, Iterator, Optional

from repro.state.backend import BinPayload, DictBackend
from repro.state.codecs import Codec

# Frame header: magic, kind, payload length, crc32 of (kind, length, payload).
_HEADER = struct.Struct("<HBII")
_MAGIC = 0xA51F
# The header fields the CRC covers, packed exactly as in ``_HEADER``.
_CRC_FIELDS = struct.Struct("<BI")

# Frame kinds (the numbers are on disk; gaps are kinds no longer written).
K_CREATE = 1  # (bin_id, epoch)
K_CKPT = 4  # (bin_id, epoch, state): the bin's whole state
K_DROP = 6  # (bin_id, epoch)
K_BATCH = 7  # ((kind, record), ...): sub-frames of the kinds above
K_EPOCH = 8  # (bin_id, epoch): a base capture closed this epoch
K_ROWS = 9  # (cls, slot_names, ((bin_id, epoch, *values), ...)): K_CKPTs

# Kinds a batch may hold; a batch never nests.
_RECORD_KINDS = (K_CREATE, K_CKPT, K_DROP, K_EPOCH)
_KINDS = (*_RECORD_KINDS, K_BATCH, K_ROWS)


def frame_crc(kind: int, length: int, payload: bytes) -> int:
    """CRC32 of a frame's kind and length fields followed by its payload."""
    return zlib.crc32(payload, zlib.crc32(_CRC_FIELDS.pack(kind, length)))


def _is_batch(record: object) -> bool:
    """Whether ``record`` is a well-formed batch body: a non-empty tuple of
    ``(kind, record)`` pairs of non-batch kinds."""
    return (
        type(record) is tuple
        and len(record) > 0
        and all(
            type(sub) is tuple
            and len(sub) == 2
            and sub[0] in _RECORD_KINDS
            and type(sub[1]) is tuple
            for sub in record
        )
    )


def _plain_slots(cls: type) -> Optional[tuple[str, ...]]:
    """The slots pickle's default reduction saves for ``cls``'s instances,
    or None unless ``cls`` is a plain slotted class: every class in its MRO
    declares ``__slots__`` (so no instance ``__dict__``), it keeps the
    default ``__reduce__``, ``__reduce_ex__`` and ``__getstate__``, has no
    ``__setstate__`` or ``__getnewargs*__``, and ``copyreg`` has no reducer
    for it.  Such an instance pickles as its class plus its slot values and
    unpickles as ``cls.__new__(cls)`` plus one ``setattr`` per slot."""
    if (
        cls in copyreg.dispatch_table
        or cls.__reduce_ex__ is not object.__reduce_ex__
        or cls.__reduce__ is not object.__reduce__
        or cls.__getstate__ is not object.__getstate__
        or any(
            hasattr(cls, name)
            for name in ("__setstate__", "__getnewargs__", "__getnewargs_ex__")
        )
    ):
        return None
    names = []
    for klass in cls.__mro__[:-1]:  # every class but ``object``
        slots = klass.__dict__.get("__slots__")
        if slots is None:
            return None
        for name in (slots,) if isinstance(slots, str) else slots:
            if name == "__dict__":
                return None
            if name == "__weakref__":
                continue
            # Private names are stored mangled, as ``copyreg._slotnames`` does.
            stripped = klass.__name__.lstrip("_")
            if name.startswith("__") and not name.endswith("__") and stripped:
                name = f"_{stripped}{name}"
            names.append(name)
    return tuple(names)


@cache
def _row_layout(cls: type) -> Optional[tuple[tuple[str, ...], Callable]]:
    """``(slot_names, values_of)`` for a plain slotted class (see
    :func:`_plain_slots`), where ``values_of(state)`` is the tuple of its
    slot values and raises ``AttributeError`` on an unset slot; else None.
    Decided once per class."""
    names = _plain_slots(cls)
    if names is None:
        return None
    if len(names) > 1:
        return names, attrgetter(*names)
    # attrgetter of one name returns the value, not a tuple
    return names, lambda state: tuple(getattr(state, n) for n in names)


def checkpoint_frame(ckpts: list[tuple]) -> tuple[int, tuple]:
    """The one frame that commits ``ckpts``, a non-empty list of ``K_CKPT``
    records ``(bin_id, epoch, state)``.

    When every state is an instance of one plain slotted class with every
    slot set, that is a ``K_ROWS``
    record; otherwise the lone ``K_CKPT`` or a ``K_BATCH`` of them.  Either
    way :meth:`WorkerWal.scan` yields the same ``K_CKPT`` sub-frames.
    """
    cls = ckpts[0][2].__class__
    layout = _row_layout(cls)
    if layout is not None:
        names, values_of = layout
        try:
            rows = tuple(
                [(bin_id, epoch) + values_of(state)
                 for bin_id, epoch, state in ckpts if state.__class__ is cls]
            )
        except AttributeError:  # an unset slot
            rows = ()
        if len(rows) == len(ckpts):
            return K_ROWS, (cls, names, rows)
    if len(ckpts) == 1:
        return K_CKPT, ckpts[0]
    return K_BATCH, tuple([(K_CKPT, record) for record in ckpts])


def _row_frames(record: object) -> list[tuple[int, tuple]]:
    """The ``K_CKPT`` sub-frames a rows record stands for, each state rebuilt
    as pickle's default reduction rebuilds it.  Raises ``ValueError`` unless
    ``record`` is ``(cls, slot_names, rows)`` with ``cls`` a plain slotted
    class whose slots are ``slot_names`` and every row one
    ``(bin_id, epoch, *values)`` tuple with a value per slot."""
    if type(record) is not tuple or len(record) != 3:
        raise ValueError("a rows record is (cls, slot_names, rows)")
    cls, names, rows = record
    layout = _row_layout(cls) if isinstance(cls, type) else None
    if layout is None or layout[0] != names:
        raise ValueError("a rows record names a plain slotted class and its slots")
    if type(rows) is not tuple or not rows:
        raise ValueError("a rows record holds a non-empty tuple of rows")
    width = 2 + len(names)
    new = cls.__new__
    frames = []
    for row in rows:
        if type(row) is not tuple or len(row) != width:
            raise ValueError("a row is (bin_id, epoch, *values), a value per slot")
        state = new(cls)
        for name, value in zip(names, row[2:]):
            setattr(state, name, value)
        frames.append((K_CKPT, (row[0], row[1], state)))
    return frames


def encode_frame(kind: int, record: tuple) -> bytes:
    """One framed record: header (magic, kind, length, crc) + payload."""
    if kind not in _KINDS:
        raise ValueError(f"unknown frame kind {kind}")
    # The writer's check is the cheap half of ``_is_batch``: no empty batch,
    # no nested one.  ``scan`` checks the whole shape of what it reads.
    if kind == K_BATCH and not (record and all(sub[0] in _RECORD_KINDS for sub in record)):
        raise ValueError("a batch holds one or more non-batch (kind, record) sub-frames")
    if kind == K_ROWS and not record[2]:
        raise ValueError("a rows record holds one or more rows")
    payload = pickle.dumps(record, protocol=4)
    length = len(payload)
    return _HEADER.pack(_MAGIC, kind, length, frame_crc(kind, length, payload)) + payload


@dataclass
class WalRecovery:
    """What one log replay found: intact frames, and how the tail died."""

    frames_replayed: int = 0  # records replayed, batch sub-frames counted
    bins_recovered: int = 0
    bytes_scanned: int = 0
    truncated_bytes: int = 0  # bytes discarded at the first invalid frame
    torn_frame: bool = False  # log ended inside a frame (torn final write)
    corrupt_frame: bool = False  # CRC or magic mismatch (bit flip)
    lost_tail_bytes: int = 0  # unsynced bytes destroyed by the crash itself
    max_epoch: int = 0

    @property
    def clean(self) -> bool:
        """True when every byte of the log parsed as valid frames."""
        return not (self.torn_frame or self.corrupt_frame or self.truncated_bytes)


class WorkerWal:
    """One worker's durable log: segments of framed records + fsync horizon.

    The byte store is a list of ``bytearray`` segments (the modeled disk);
    ``synced`` marks how far :meth:`sync` has pushed the fsync horizon, as a
    total byte offset across segments.  Frames never straddle segments.
    Everything that changes a segment's length goes through ``_total`` too,
    so the per-batch :meth:`sync` does not re-sum the segments.
    """

    def __init__(self, worker_id: int, segment_bytes: int = 1 << 16) -> None:
        if segment_bytes < _HEADER.size + 1:
            raise ValueError("segment_bytes too small to hold a frame")
        self.worker_id = worker_id
        self.segment_bytes = segment_bytes
        self.segments: list[bytearray] = [bytearray()]
        self._total = 0  # bytes across all segments
        self.synced = 0  # fsync horizon, total bytes across segments
        self.frames_appended = 0
        self.syncs = 0

    # -- writing ---------------------------------------------------------------

    def total_bytes(self) -> int:
        return self._total

    def unsynced_bytes(self) -> int:
        return self._total - self.synced

    def append(self, kind: int, record: tuple) -> None:
        """Append one framed record (rolls to a new segment on overflow)."""
        frame = encode_frame(kind, record)
        seg = self.segments[-1]
        if seg and len(seg) + len(frame) > self.segment_bytes:
            seg = bytearray()
            self.segments.append(seg)
        seg.extend(frame)
        self._total += len(frame)
        self.frames_appended += 1

    def sync(self) -> None:
        """Advance the fsync horizon to the end of the log."""
        self.synced = self._total
        self.syncs += 1

    def reset(self, frames: list[tuple[int, tuple]]) -> None:
        """Rewrite the log wholesale as ``frames`` (compaction passes one);
        ends synced."""
        self.segments = [bytearray()]
        self._total = 0
        self.synced = 0
        for kind, record in frames:
            self.append(kind, record)
        self.sync()

    # -- crash faults ----------------------------------------------------------

    def apply_crash(
        self,
        *,
        lose_unsynced_tail: bool = False,
        torn_write: bool = False,
        bit_flips: int = 0,
        rng: Optional[random.Random] = None,
    ) -> dict:
        """Mutate the byte store the way a crash with storage faults would.

        ``lose_unsynced_tail`` drops every byte past the fsync horizon (the
        page cache died with the process).  ``torn_write`` appends a
        partial frame — a write that was in flight when the power went.
        ``bit_flips`` flips that many seeded bits anywhere in the log
        (recovery detects them via CRC and truncates).  Returns a summary
        of the damage inflicted for the fault log.
        """
        rng = rng if rng is not None else random.Random(0)
        lost = 0
        if lose_unsynced_tail:
            lost = self.unsynced_bytes()
            self._truncate_to(self.synced)
        torn = 0
        if torn_write:
            # Header claims a full payload; only part of it hit the disk.
            claimed = 64 + rng.randrange(64)
            body = bytes(rng.randrange(256) for _ in range(claimed // 2))
            frame = _HEADER.pack(
                _MAGIC, K_CKPT, claimed, frame_crc(K_CKPT, claimed, body)
            ) + body
            self.segments[-1].extend(frame)
            torn = len(frame)
            self._total += torn
        flipped: list[int] = []
        total = self.total_bytes()
        if bit_flips > 0 and total > 0:
            for _ in range(bit_flips):
                offset = rng.randrange(total)
                seg_index, local = self._locate(offset)
                self.segments[seg_index][local] ^= 1 << rng.randrange(8)
                flipped.append(offset)
        return {
            "lost_tail_bytes": lost,
            "torn_bytes": torn,
            "bit_flips": flipped,
        }

    def _locate(self, offset: int) -> tuple[int, int]:
        for i, seg in enumerate(self.segments):
            if offset < len(seg):
                return i, offset
            offset -= len(seg)
        raise IndexError("offset past end of log")

    def _truncate_to(self, offset: int) -> None:
        kept: list[bytearray] = []
        remaining = offset
        for seg in self.segments:
            if remaining >= len(seg):
                kept.append(seg)
                remaining -= len(seg)
            else:
                kept.append(seg[:remaining])
                remaining = 0
        while kept and not kept[-1] and len(kept) > 1:
            kept.pop()
        self.segments = kept or [bytearray()]
        self._total = sum(len(seg) for seg in self.segments)
        self.synced = min(self.synced, self._total)

    # -- reading ---------------------------------------------------------------

    def scan(self) -> tuple[list[tuple[int, tuple]], WalRecovery]:
        """Parse every valid frame in order; truncate at the first bad one.

        A batch or rows frame yields its sub-frames, in order, once its CRC
        has passed.  Mutates the log: everything from the first invalid frame
        onward is discarded, so the surviving store and the replayed state
        agree.
        """
        data = b"".join(bytes(seg) for seg in self.segments)
        recovery = WalRecovery(bytes_scanned=len(data))
        frames: list[tuple[int, tuple]] = []
        pos = 0
        valid_end = 0
        while pos < len(data):
            if pos + _HEADER.size > len(data):
                recovery.torn_frame = True
                break
            magic, kind, length, crc = _HEADER.unpack_from(data, pos)
            if magic != _MAGIC or kind not in _KINDS:
                recovery.corrupt_frame = True
                break
            body_start = pos + _HEADER.size
            if body_start + length > len(data):
                recovery.torn_frame = True
                break
            body = data[body_start : body_start + length]
            if frame_crc(kind, length, body) != crc:
                recovery.corrupt_frame = True
                break
            try:
                record = pickle.loads(body)
                if kind == K_ROWS:
                    frames.extend(_row_frames(record))
                elif kind != K_BATCH:
                    frames.append((kind, record))
                elif _is_batch(record):
                    frames.extend(record)
                else:
                    raise ValueError("malformed batch")
            except Exception:
                recovery.corrupt_frame = True
                break
            pos = body_start + length
            valid_end = pos
        recovery.frames_replayed = len(frames)
        recovery.truncated_bytes = len(data) - valid_end
        if recovery.truncated_bytes:
            self._truncate_to(valid_end)
            self.synced = min(self.synced, valid_end)
        return frames, recovery


class WalRegistry:
    """Per-run home of every worker's durable log.

    Backends live in ``worker.shared`` and die on restart; the registry is
    threaded through ``backend_options`` and owned by the experiment run,
    so the logs survive a crash/restart cycle exactly like a local disk
    would — and two separate runs of the same config never share state.
    """

    def __init__(self, segment_bytes: int = 1 << 16) -> None:
        self.segment_bytes = segment_bytes
        self._wals: dict[int, WorkerWal] = {}
        # Damage summaries from the latest crash, keyed by worker.
        self.crash_damage: dict[int, dict] = {}

    def wal_for(self, worker_id: int, segment_bytes: Optional[int] = None) -> WorkerWal:
        wal = self._wals.get(worker_id)
        if wal is None:
            wal = self._wals[worker_id] = WorkerWal(
                worker_id,
                segment_bytes=segment_bytes
                if segment_bytes is not None
                else self.segment_bytes,
            )
        return wal

    def workers(self) -> list[int]:
        return sorted(self._wals)

    def apply_crash_faults(
        self,
        worker_ids,
        *,
        lose_unsynced_tail: bool = False,
        torn_write: bool = False,
        bit_flips: int = 0,
        seed: int = 0,
    ) -> dict[int, dict]:
        """Inflict a crash's storage faults on the named workers' logs.

        Randomness is drawn from a seed derived per worker, independent of
        the injector's lossy-link RNG — crashes stay deterministic.
        """
        damage: dict[int, dict] = {}
        for worker_id in sorted(worker_ids):
            wal = self._wals.get(worker_id)
            if wal is None:
                continue
            rng = random.Random((seed << 8) ^ (worker_id * 0x9E3779B1))
            damage[worker_id] = wal.apply_crash(
                lose_unsynced_tail=lose_unsynced_tail,
                torn_write=torn_write,
                bit_flips=bit_flips,
                rng=rng,
            )
        self.crash_damage.update(damage)
        return damage


class WalState(MutableMapping):
    """A mapping bin's state: a dict that stamps each key's dirty epoch.

    A stamp matters only to a delta since a base captured before it, so
    ``dirty`` is ``None`` until the bin's first base capture
    (:meth:`WalBackend.capture_base`) and records stamps from then until
    the bin leaves.  Then every key read, written or deleted is stamped
    with the owning backend's open epoch; a read stamps too, because a
    value that is read can be changed in place.  ``get``, ``setdefault``,
    ``pop``, ``items()`` and ``values()`` all pass through
    :meth:`__getitem__`; observers that must not stamp read :attr:`data`.
    Nothing is logged here: the backend checkpoints the whole dict at each
    commit.
    """

    __slots__ = ("data", "dirty", "_owner")

    def __init__(self, owner: "WalBackend", base: dict | None = None):
        self.data: dict = dict(base) if base else {}
        self.dirty: Optional[dict] = None
        self._owner = owner

    def __getitem__(self, key):
        value = self.data[key]
        if self.dirty is not None:
            self.dirty[key] = self._owner._epoch
        return value

    def __setitem__(self, key, value) -> None:
        self.data[key] = value
        if self.dirty is not None:
            self.dirty[key] = self._owner._epoch

    def __delitem__(self, key) -> None:
        del self.data[key]
        if self.dirty is not None:
            self.dirty[key] = self._owner._epoch

    def __iter__(self) -> Iterator:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, key) -> bool:
        return key in self.data


def _durable(state: object) -> object:
    """The object a checkpoint embeds: a mapping bin's entries as a plain
    dict, an opaque state as itself.  ``is``, not ``isinstance``: WalState
    is a MutableMapping, whose ABC instance check is slow on the per-bin
    commit path."""
    return dict(state.data) if state.__class__ is WalState else state


def replay_frames(
    frames: list[tuple[int, tuple]], state_factory: Callable[[], object]
) -> tuple[dict, int]:
    """Fold a frame sequence into per-bin states.

    Returns ``(states, max_epoch)``: bin id to the state its last
    ``K_CREATE`` (a fresh ``state_factory()``) or ``K_CKPT`` left, for every
    bin not dropped since.  A ``K_EPOCH`` frame changes no bin; it only
    raises ``max_epoch``.  Pure function of the frames — the property
    tests drive it directly.
    """
    states: dict = {}
    max_epoch = 0
    for kind, record in frames:
        bin_id = record[0]
        epoch = record[1]
        if epoch > max_epoch:
            max_epoch = epoch
        if kind == K_CREATE:
            states[bin_id] = state_factory()
        elif kind == K_DROP:
            states.pop(bin_id, None)
        elif kind == K_CKPT:
            states[bin_id] = record[2]
    return states, max_epoch


class WalBackend(DictBackend):
    """In-memory working set + durable per-worker write-ahead log."""

    name = "wal"

    def __init__(
        self,
        state_factory: Callable[[], object],
        size_fn: Callable[[object], float],
        codec: Codec,
        wal_registry: Optional[WalRegistry] = None,
        segment_bytes: int = 1 << 16,
        compact_threshold: int = 512,
    ) -> None:
        super().__init__(state_factory, size_fn, codec)
        if compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive")
        self._registry = wal_registry if wal_registry is not None else WalRegistry()
        self._segment_bytes = segment_bytes
        self.compact_threshold = compact_threshold
        self.worker_id = -1
        self._wal: Optional[WorkerWal] = None
        self._epoch = 0
        self._frames_since_compaction = 0  # records, batch sub-frames counted
        self.compactions = 0
        # Recovery summary from bind time (None when the log was empty).
        self.last_recovery: Optional[WalRecovery] = None

    # -- binding and recovery ---------------------------------------------------

    def bind_worker(self, worker_id: int) -> None:
        """Attach to the worker's durable log; replay it if non-empty.

        Called by ``BinStore`` right after construction.  A non-empty log
        means this backend is the reincarnation of a crashed worker: the
        resident bins are rebuilt from frames alone.
        """
        self.worker_id = worker_id
        self._wal = self._registry.wal_for(worker_id, segment_bytes=self._segment_bytes)
        if self._wal.total_bytes() == 0:
            return
        frames, recovery = self._wal.scan()
        damage = self._registry.crash_damage.get(worker_id)
        if damage is not None:
            recovery.lost_tail_bytes = damage.get("lost_tail_bytes", 0)
        states, max_epoch = replay_frames(frames, self._state_factory)
        # Stamps are not logged: a recovered mapping bin counts as captured,
        # and every key as written in the reborn epoch, so a delta since any
        # earlier base ships it.
        reborn = max_epoch + 1
        for bin_id, state in states.items():
            if isinstance(state, dict):
                state = WalState(self, state)
                state.dirty = dict.fromkeys(state.data, reborn)
            self._states[bin_id] = state
        recovery.bins_recovered = len(states)
        recovery.max_epoch = max_epoch
        self._epoch = reborn
        self.last_recovery = recovery

    def _log(self) -> WorkerWal:
        if self._wal is None:
            self.bind_worker(self.worker_id)
        return self._wal

    # -- logging helpers --------------------------------------------------------

    def _append(self, kind: int, record: tuple) -> None:
        """Append one record frame and sync it."""
        wal = self._log()
        wal.append(kind, record)
        wal.sync()
        self._frames_since_compaction += 1
        if self._frames_since_compaction >= self.compact_threshold:
            self.compact()

    # -- maintenance ------------------------------------------------------------

    def current_epoch(self) -> int:
        """The open application epoch (stamped on keys accessed now)."""
        return self._epoch

    def note_applied(self, bin_id: object) -> None:
        """Commit one application batch (see :meth:`_commit`)."""
        self._commit((bin_id,))

    def note_applied_group(self, bin_ids, starts) -> None:
        """Commit one application group as one frame and one sync."""
        self._note_group_records(bin_ids, starts)
        self._commit(bin_ids)

    def _commit(self, bin_ids) -> None:
        """Checkpoint every resident bin of one group in one frame, close
        one epoch per bin, and fsync once.

        A bin's mutations are invisible to the log, so each commit writes
        its whole state (:func:`_durable`).
        """
        states = self._states
        epoch = self._epoch
        ckpts = []
        for bin_id in bin_ids:
            state = states.get(bin_id)
            if state is not None:
                ckpts.append((bin_id, epoch, _durable(state)))
            epoch += 1
        self._epoch = epoch
        wal = self._log()
        if ckpts:
            wal.append(*checkpoint_frame(ckpts))
            self._frames_since_compaction += len(ckpts)
        if bin_ids:
            wal.sync()
        if self._frames_since_compaction >= self.compact_threshold:
            self.compact()

    def compact(self) -> None:
        """Rewrite the log as one frame: a checkpoint per resident bin."""
        epoch = self._epoch
        ckpts = [
            (bin_id, epoch, _durable(state)) for bin_id, state in self._states.items()
        ]
        self._log().reset([checkpoint_frame(ckpts)] if ckpts else [])
        self._frames_since_compaction = 0
        self.compactions += 1

    # -- bin lifecycle ----------------------------------------------------------

    def create_bin(self, bin_id: object) -> object:
        state = super().create_bin(bin_id)
        if isinstance(state, dict):
            state = WalState(self, state)
            self._states[bin_id] = state
        self._append(K_CREATE, (bin_id, self._epoch))
        return state

    def drop_bin(self, bin_id: object) -> None:
        present = bin_id in self._states
        super().drop_bin(bin_id)
        if present:
            self._append(K_DROP, (bin_id, self._epoch))

    def put_state(self, bin_id: object, state: object) -> None:
        if isinstance(state, dict):
            state = WalState(self, state)
        super().put_state(bin_id, state)
        self._append(K_CKPT, (bin_id, self._epoch, _durable(state)))

    # -- serialization ----------------------------------------------------------

    def bin_delta_capable(self, bin_id: object) -> bool:
        return isinstance(self._states.get(bin_id), WalState)

    def extract_bin(
        self,
        bin_id: object,
        *,
        remove: bool = True,
        dirty_since: Optional[int] = None,
    ) -> BinPayload:
        """``remove=False`` reads a copy and writes nothing: a snapshot or a
        fingerprint is not a base (see :meth:`capture_base`)."""
        state = self._states[bin_id]
        if dirty_since is not None and isinstance(state, WalState):
            return self._extract_delta(bin_id, state, dirty_since, remove)
        if isinstance(state, WalState):
            flat = dict(state.data)
            keys = len(flat)
            if remove:
                del self._states[bin_id]
                self._forget(bin_id)
                self._append(K_DROP, (bin_id, self._epoch))
                payload = self.codec.encode(flat)
            else:
                payload = self.codec.encode(self.codec.copy(flat))
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
        result = super().extract_bin(bin_id, remove=remove)
        if remove:
            self._append(K_DROP, (bin_id, self._epoch))
        return result

    def capture_base(self, bin_id: object) -> BinPayload:
        """A copy of ``bin_id`` to ship as a base.

        The payload carries the open epoch as ``base_epoch``, and the epoch
        closes, so writes that land after the capture are strictly newer.
        The close is logged and synced: a worker reborn from the log must
        not reopen an epoch a shipped base was stamped with.  A mapping bin
        records dirty stamps from its first base on.
        """
        state = self._states[bin_id]
        result = self.extract_bin(bin_id, remove=False)
        result.base_epoch = self._epoch
        if state.__class__ is WalState and state.dirty is None:
            state.dirty = {}
        self._append(K_EPOCH, (bin_id, self._epoch))
        self._epoch += 1
        return result

    def _extract_delta(
        self, bin_id: object, state: WalState, since: int, remove: bool
    ) -> BinPayload:
        if state.dirty is None:
            raise ValueError(f"bin {bin_id} has no base to cut a delta from")
        data = state.data
        live = {}
        deleted = []
        for key, epoch in state.dirty.items():
            if epoch <= since:
                continue
            if key in data:
                live[key] = data[key]
            else:
                deleted.append(key)
        payload = self.codec.encode(
            live if remove else self.codec.copy(live)
        )
        measured = self.codec.measured_bytes(payload)
        nbytes = measured if measured is not None else self.modeled_bytes(live)
        if remove:
            del self._states[bin_id]
            self._forget(bin_id)
            self._append(K_DROP, (bin_id, self._epoch))
        result = BinPayload(
            bin_id=bin_id,
            codec=self.codec.name,
            payload=payload,
            state_bytes=nbytes,
            size_bytes=nbytes,
            keys=len(live),
            kind="delta",
            base_epoch=since,
            deleted=tuple(deleted),
        )
        return result

    def install_bin(self, payload: BinPayload, *, replace: bool = False) -> object:
        state = super().install_bin(payload, replace=replace)
        if isinstance(state, dict):
            state = WalState(self, state)
            self._states[payload.bin_id] = state
        self._append(K_CKPT, (payload.bin_id, self._epoch, _durable(state)))
        return state
