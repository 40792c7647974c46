"""Durable write-ahead state: a segmented, checksummed log per worker.

The paper's future work calls for migrating state that lives on disk; this
backend is that representation.  Every mutation of a bin — key-level writes
for mapping states, whole-state checkpoints for opaque ones — appends a
CRC32-framed record to a per-worker :class:`WorkerWal`.  The log is the
bin's durable truth: after a crash-and-restart wipes the worker's in-memory
stores, :meth:`WalBackend.bind_worker` replays the surviving log and
rebuilds every resident bin from frames alone (no in-memory snapshot is
consulted).

Frame format (DESIGN.md §13)::

    <HBII little-endian  =  magic(0xWA1F) | kind(1B) | length(4B) | crc32(4B)
    followed by `length` payload bytes (pickled record tuple)

The CRC covers the kind and length bytes as well as the payload, so a bit
flip in either header field is caught like one in the body.  A ``K_BATCH``
frame's record is a tuple of ``(kind, record)`` sub-frames of the other
kinds under that one header, CRC and pickle; :meth:`WorkerWal.scan` expands
it only after its CRC has passed, so replay sees the sub-frames.

Recovery scans frames in order and stops at the first invalid one — bad
magic, a CRC mismatch (bit flip), a batch whose body is not a tuple of
sub-frames, or a frame that runs past the end of the log (torn final
write).  Everything before the cut is intact by construction; everything
after it is truncated away, and the damage is summarized in a
:class:`WalRecovery` the chaos layer publishes as a ``StorageFaultReport``.

Crash-consistency model: :meth:`WorkerWal.sync` advances the fsync horizon.
Frames behind the horizon survive any crash; frames past it exist only in
the modeled page cache and are destroyed by the ``lose_unsynced_tail``
storage fault (an optimistic disk keeps them when no fault is injected).
``WalBackend`` commits one application group — one ``note_applied_group``
call, or one ``note_applied`` — as one frame (a lone ``K_CKPT`` or a
``K_BATCH`` of them) and syncs once per ``sync_every`` applied bins
(default 1, i.e. one fsync per committed group).  A crash lands between
simulator callbacks and a group commits inside one, so at every crash point
the synced log replays to the bins and states one frame per bin would.

Epoch stamps: every applied bin closes one epoch (a group of ``n`` bins
stamps its checkpoints ``e, e+1, …, e+n-1``); every frame carries the epoch
it was written under and key-level writes additionally record a per-key
dirty epoch.  ``extract_bin(..., dirty_since=E)`` produces a *delta*
payload holding only keys dirtied strictly after ``E`` — the wire format of
delta migration (base payloads record their epoch at capture).  A base
capture closes its epoch with a synced ``K_EPOCH`` frame, so replay resumes
above every base epoch already shipped.

Compaction: once ``compact_threshold`` records (sub-frames counted) have
accumulated, the whole log is rewritten as one batch frame holding a
checkpoint per resident bin, a mapping bin's dirty stamps included, so a
delta extracted after a crash still sees every write since its base.
"""

from __future__ import annotations

import pickle
import random
import struct
import zlib
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.state.backend import BinPayload, DictBackend
from repro.state.codecs import Codec

# Frame header: magic, kind, payload length, crc32 of (kind, length, payload).
_HEADER = struct.Struct("<HBII")
_MAGIC = 0xA51F
# The header fields the CRC covers, packed exactly as in ``_HEADER``.
_CRC_FIELDS = struct.Struct("<BI")

# Frame kinds.
K_CREATE = 1  # ("create", bin_id, epoch)
K_PUT = 2  # ("put", bin_id, epoch, key, value)
K_DELETE = 3  # ("del", bin_id, epoch, key)
K_CKPT = 4  # ("ckpt", bin_id, epoch, state[, dirty])
K_INSTALL = 5  # ("install", bin_id, epoch, state)
K_DROP = 6  # ("drop", bin_id, epoch)
K_BATCH = 7  # ((kind, record), ...): sub-frames of the kinds above
K_EPOCH = 8  # ("epoch", bin_id, epoch): a base capture closed this epoch

# Kinds a batch may hold; a batch never nests.
_RECORD_KINDS = (K_CREATE, K_PUT, K_DELETE, K_CKPT, K_INSTALL, K_DROP, K_EPOCH)
_KINDS = (*_RECORD_KINDS, K_BATCH)


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


def encode_frame(kind: int, record: tuple) -> bytes:
    """One framed record: header (magic, kind, length, crc) + payload."""
    if kind not in _KINDS:
        raise ValueError(f"unknown frame kind {kind}")
    # The writer's check is the cheap half of ``_is_batch``: no empty batch,
    # no nested one.  ``scan`` checks the whole shape of what it reads.
    if kind == K_BATCH and not (record and all(sub[0] in _RECORD_KINDS for sub in record)):
        raise ValueError("a batch holds one or more non-batch (kind, record) sub-frames")
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

    def commit(self, frames: list[tuple[int, tuple]]) -> None:
        """Append ``frames`` as one frame: the lone frame itself, or a
        ``K_BATCH`` holding all of them (nothing for an empty list)."""
        if len(frames) == 1:
            self.append(*frames[0])
        elif frames:
            self.append(K_BATCH, tuple(frames))

    def sync(self) -> None:
        """Advance the fsync horizon to the end of the log."""
        self.synced = self._total
        self.syncs += 1

    def reset(self, frames: list[tuple[int, tuple]]) -> None:
        """Rewrite the log wholesale as one frame (compaction); ends synced."""
        self.segments = [bytearray()]
        self._total = 0
        self.synced = 0
        self.commit(frames)
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
                _MAGIC, K_PUT, claimed, frame_crc(K_PUT, claimed, body)
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

        A batch frame yields its sub-frames, in order, once its CRC has
        passed.  Mutates the log: everything from the first invalid frame
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
            except Exception:
                recovery.corrupt_frame = True
                break
            if kind != K_BATCH:
                frames.append((kind, record))
            elif _is_batch(record):
                frames.extend(record)
            else:
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
    """A mapping whose writes go to the owning backend's log, write-through.

    Reads and writes hit ``data`` directly (the log is durability, not the
    read path).  Each write stamps the key's dirty epoch for delta extraction.
    """

    __slots__ = ("data", "dirty", "_owner", "_bin_id")

    def __init__(self, owner: "WalBackend", bin_id: object, base: dict | None = None):
        self.data: dict = dict(base) if base else {}
        self.dirty: dict = {}
        self._owner = owner
        self._bin_id = bin_id

    def __getitem__(self, key):
        return self.data[key]

    def __setitem__(self, key, value) -> None:
        self.data[key] = value
        self._owner._log_put(self._bin_id, self, key, value)

    def __delitem__(self, key) -> None:
        del self.data[key]
        self._owner._log_delete(self._bin_id, self, key)

    def __iter__(self) -> Iterator:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, key) -> bool:
        return key in self.data


@dataclass
class _RecoveredBin:
    """Replay accumulator for one bin."""

    state: object
    mapping: bool
    dirty: dict = field(default_factory=dict)


def replay_frames(
    frames: list[tuple[int, tuple]], state_factory: Callable[[], object]
) -> tuple[dict, int]:
    """Fold a frame sequence into per-bin states.

    Returns ``(bins, max_epoch)`` where ``bins`` maps bin id to a
    :class:`_RecoveredBin`.  A ``K_EPOCH`` frame changes no bin; it only
    raises ``max_epoch``.  Pure function of the frames — the property
    tests drive it directly.
    """
    bins: dict[object, _RecoveredBin] = {}
    max_epoch = 0

    def fresh() -> _RecoveredBin:
        state = state_factory()
        return _RecoveredBin(state=state, mapping=isinstance(state, (dict, MutableMapping)))

    for kind, record in frames:
        bin_id = record[0]
        epoch = record[1]
        if epoch > max_epoch:
            max_epoch = epoch
        if kind == K_CREATE:
            bins[bin_id] = fresh()
        elif kind == K_DROP:
            bins.pop(bin_id, None)
        elif kind in (K_CKPT, K_INSTALL):
            state = record[2]
            mapping = isinstance(state, (dict, MutableMapping))
            # Later puts mutate the bin: copy, so the frames stay untouched.
            entry = bins[bin_id] = _RecoveredBin(
                state=dict(state) if mapping else state, mapping=mapping
            )
            if len(record) > 3:  # a compaction checkpoint's dirty stamps
                entry.dirty = dict(record[3])
        elif kind == K_PUT:
            entry = bins.get(bin_id)
            if entry is None:
                entry = bins[bin_id] = fresh()
            if entry.mapping:
                entry.state[record[2]] = record[3]
                entry.dirty[record[2]] = epoch
        elif kind == K_DELETE:
            entry = bins.get(bin_id)
            if entry is not None and entry.mapping:
                entry.state.pop(record[2], None)
                entry.dirty[record[2]] = epoch
    return bins, max_epoch


class WalBackend(DictBackend):
    """In-memory working set + durable per-worker write-ahead log."""

    name = "wal"
    supports_delta = True

    def __init__(
        self,
        state_factory: Callable[[], object],
        size_fn: Callable[[object], float],
        codec: Codec,
        wal_registry: Optional[WalRegistry] = None,
        segment_bytes: int = 1 << 16,
        compact_threshold: int = 512,
        sync_every: int = 1,
    ) -> None:
        super().__init__(state_factory, size_fn, codec)
        if compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive")
        if sync_every <= 0:
            raise ValueError("sync_every must be positive")
        self._registry = wal_registry if wal_registry is not None else WalRegistry()
        self._segment_bytes = segment_bytes
        self.compact_threshold = compact_threshold
        self.sync_every = sync_every
        self.worker_id = -1
        self._wal: Optional[WorkerWal] = None
        self._epoch = 0
        self._applies_since_sync = 0  # applied bins since the last sync
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
        bins, max_epoch = replay_frames(frames, self._state_factory)
        for bin_id, entry in bins.items():
            if entry.mapping:
                wrapped = WalState(self, bin_id, dict(entry.state))
                wrapped.dirty = dict(entry.dirty)
                self._states[bin_id] = wrapped
            else:
                self._states[bin_id] = entry.state
        recovery.bins_recovered = len(bins)
        recovery.max_epoch = max_epoch
        self._epoch = max_epoch + 1
        self.last_recovery = recovery

    def _log(self) -> WorkerWal:
        if self._wal is None:
            self.bind_worker(self.worker_id)
        return self._wal

    # -- logging helpers --------------------------------------------------------

    def _append(self, kind: int, record: tuple, *, sync: bool = False) -> None:
        wal = self._log()
        wal.append(kind, record)
        self._frames_since_compaction += 1
        if sync:
            wal.sync()
        if self._frames_since_compaction >= self.compact_threshold:
            self.compact()

    def _log_put(self, bin_id: object, state: WalState, key: object, value) -> None:
        state.dirty[key] = self._epoch
        self._append(K_PUT, (bin_id, self._epoch, key, value))

    def _log_delete(self, bin_id: object, state: WalState, key: object) -> None:
        state.dirty[key] = self._epoch
        self._append(K_DELETE, (bin_id, self._epoch, key))

    def _durable_form(self, state: object) -> object:
        """The object a checkpoint/install frame embeds (never a WalState)."""
        if isinstance(state, WalState):
            return dict(state.data)
        return state

    # -- maintenance ------------------------------------------------------------

    def current_epoch(self) -> int:
        """The open application epoch (stamped on in-flight mutations)."""
        return self._epoch

    def note_applied(self, bin_id: object) -> None:
        """Commit one application batch (see :meth:`_commit`)."""
        self._commit((bin_id,))

    def note_applied_group(self, bin_ids, starts) -> None:
        """Commit one application group as one frame and one sync."""
        self._note_group_records(bin_ids, starts)
        self._commit(bin_ids)

    def _commit(self, bin_ids) -> None:
        """Checkpoint the opaque bins of one group in one frame, close one
        epoch per bin, and fsync on the configured cadence.

        Opaque states' mutations are invisible to the log, so each commit
        writes the whole (small, modeled) object; mapping states already
        logged their writes key by key.
        """
        states = self._states
        epoch = self._epoch
        ckpts = []
        for bin_id in bin_ids:
            state = states.get(bin_id)
            # ``is``, not ``isinstance``: WalState is a MutableMapping, whose
            # ABC instance check is slow on this per-bin path.
            if state is not None and state.__class__ is not WalState:
                ckpts.append((K_CKPT, (bin_id, epoch, state)))
            epoch += 1
        self._epoch = epoch
        wal = self._log()
        if ckpts:
            wal.commit(ckpts)
            self._frames_since_compaction += len(ckpts)
        self._applies_since_sync += len(bin_ids)
        if self._applies_since_sync >= self.sync_every:
            wal.sync()
            self._applies_since_sync = 0
        if self._frames_since_compaction >= self.compact_threshold:
            self.compact()

    def compact(self) -> None:
        """Rewrite the log as one batch frame: a checkpoint per resident
        bin, carrying a mapping bin's dirty stamps for delta extraction."""
        epoch = self._epoch
        frames = [
            (K_CKPT, (bin_id, epoch, dict(state.data), state.dirty))
            if state.__class__ is WalState
            else (K_CKPT, (bin_id, epoch, state))
            for bin_id, state in self._states.items()
        ]
        self._log().reset(frames)
        self._frames_since_compaction = 0
        self.compactions += 1

    def wal_bytes(self) -> int:
        """Current size of the durable log (diagnostics/benchmarks)."""
        return self._log().total_bytes()

    # -- bin lifecycle ----------------------------------------------------------

    def create_bin(self, bin_id: object) -> object:
        state = super().create_bin(bin_id)
        if isinstance(state, dict):
            state = WalState(self, bin_id, state)
            self._states[bin_id] = state
        self._append(K_CREATE, (bin_id, self._epoch), sync=True)
        return state

    def drop_bin(self, bin_id: object) -> None:
        present = bin_id in self._states
        super().drop_bin(bin_id)
        if present:
            self._append(K_DROP, (bin_id, self._epoch), sync=True)

    def put_state(self, bin_id: object, state: object) -> None:
        if isinstance(state, dict):
            state = WalState(self, bin_id, state)
        super().put_state(bin_id, state)
        self._append(
            K_INSTALL, (bin_id, self._epoch, self._durable_form(state)), sync=True
        )

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
        state = self._states[bin_id]
        if dirty_since is not None and isinstance(state, WalState):
            return self._extract_delta(bin_id, state, dirty_since, remove)
        if isinstance(state, WalState):
            flat = dict(state.data)
            keys = len(flat)
            if remove:
                del self._states[bin_id]
                self._forget(bin_id)
                self._append(K_DROP, (bin_id, self._epoch), sync=True)
                payload = self.codec.encode(flat)
            else:
                payload = self.codec.encode(self.codec.copy(flat))
            measured = self.codec.measured_bytes(payload)
            nbytes = measured if measured is not None else self.modeled_bytes(state)
            result = BinPayload(
                bin_id=bin_id,
                codec=self.codec.name,
                payload=payload,
                state_bytes=nbytes,
                size_bytes=nbytes,
                keys=keys,
            )
        else:
            removed = remove
            result = super().extract_bin(bin_id, remove=remove)
            if removed:
                self._append(K_DROP, (bin_id, self._epoch), sync=True)
        # Stamp the capture epoch and close it, so writes that land after
        # this snapshot are strictly newer than ``base_epoch``.  The close is
        # logged and synced: a worker reborn from the log must not reopen an
        # epoch a shipped base was stamped with.
        result.base_epoch = self._epoch
        if not remove:
            self._append(K_EPOCH, (bin_id, self._epoch), sync=True)
            self._epoch += 1
        return result

    def _extract_delta(
        self, bin_id: object, state: WalState, since: int, remove: bool
    ) -> BinPayload:
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
            self._append(K_DROP, (bin_id, self._epoch), sync=True)
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
            state = WalState(self, payload.bin_id, state)
            self._states[payload.bin_id] = state
        self._append(
            K_INSTALL,
            (payload.bin_id, self._epoch, self._durable_form(state)),
            sync=True,
        )
        return state
