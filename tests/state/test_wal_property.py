"""Property tests for WAL recovery: truncation always yields a valid prefix.

The crash-consistency claim, stated as a property: however the log is cut —
at any byte offset, torn, or bit-flipped — recovery parses a checksum-valid
*prefix* of the original frame sequence and rebuilds exactly the state that
prefix implies, ending on a whole group commit.  No cut can make replay
invent, reorder, or corrupt state.  And a backend that commits each
application group as one frame recovers, after a crash at any group
boundary, exactly what one committing bin by bin recovers.  A group of
plain slotted states written as rows scans as exactly the checkpoints a
batch of them would.
"""

import copyreg
import pickle
import random
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.workloads import ModeledCountState
from repro.state import make_backend
from repro.state.wal import (
    _HEADER,
    K_BATCH,
    K_CKPT,
    K_CREATE,
    K_DROP,
    K_EPOCH,
    K_ROWS,
    WalRegistry,
    WalState,
    WorkerWal,
    checkpoint_frame,
    replay_frames,
)


class _SlotTally:
    """An opaque slotted bin state: a group of them commits as rows."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value

    def __eq__(self, other):
        return type(other) is _SlotTally and other.value == self.value

    def __repr__(self):
        return f"_SlotTally({self.value!r})"


# One logical operation: (op, bin, key, value) with small domains so ops
# collide on bins (creates, installs, base captures, drops and group commits
# all interleave).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "install", "epoch", "drop", "group"]),
        st.integers(0, 3),
        st.integers(0, 5),
        st.integers(-100, 100),
    ),
    min_size=1,
    max_size=60,
)


def _op_frames(ops):
    """The physical frame each op writes (or None), the way WalBackend
    frames it: a ``group`` op checkpoints up to three live bins from its
    bin upward as one commit, dict states (a lone ``K_CKPT`` or a
    ``K_BATCH``) for an even value and ``_SlotTally`` states (``K_ROWS``)
    for an odd one."""
    live = set()
    out = []
    for epoch, (op, bin_id, key, value) in enumerate(ops):
        frame = None
        if op == "create":
            if bin_id not in live:
                live.add(bin_id)
                frame = (K_CREATE, (bin_id, epoch))
        elif op == "drop":
            if bin_id in live:
                live.discard(bin_id)
                frame = (K_DROP, (bin_id, epoch))
        elif op == "group":
            members = sorted(b for b in live if b >= bin_id)[: 1 + key % 3]
            ckpts = [
                (b, epoch, _SlotTally(value + b) if value % 2 else {key: value + b})
                for b in members
            ]
            if ckpts:
                frame = checkpoint_frame(ckpts)
        elif bin_id in live:
            if op == "install":
                frame = (K_CKPT, (bin_id, epoch, {key: value}))
            else:
                frame = (K_EPOCH, (bin_id, epoch))
        out.append(frame)
    return out


def _build_log(ops, sync_at=None, segment_bytes=256):
    """Fold an op list into a WorkerWal.

    ``sync_at`` places the fsync horizon after that many ops (default: all
    of them).
    """
    wal = WorkerWal(0, segment_bytes=segment_bytes)
    for count, frame in enumerate(_op_frames(ops), start=1):
        if frame is not None:
            wal.append(*frame)
        if sync_at is not None and count == sync_at:
            wal.sync()
    if sync_at is None:
        wal.sync()
    return wal


def _group_ends(ops):
    """Record counts at which a physical frame ends: a recovered prefix may
    stop only there, never inside a batch."""
    ends = [0]
    for frame in _op_frames(ops):
        if frame is not None:
            kind, record = frame
            subs = record if kind == K_BATCH else record[2] if kind == K_ROWS else (1,)
            ends.append(ends[-1] + len(subs))
    return set(ends)


def _fold(frames):
    """Independent reference fold of a frame sequence: a create makes an
    empty bin, a checkpoint replaces the bin, a drop removes it."""
    bins = {}
    for kind, record in frames:
        bin_id = record[0]
        if kind == K_CREATE:
            bins[bin_id] = {}
        elif kind == K_DROP:
            bins.pop(bin_id, None)
        elif kind == K_CKPT:
            bins[bin_id] = record[2]
    return bins


def _replayed_state(frames):
    return replay_frames(frames, dict)[0]


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, cut=st.floats(0.0, 1.0))
def test_any_byte_truncation_recovers_a_valid_prefix(ops, cut):
    full_frames, full_recovery = _build_log(ops).scan()
    assert full_recovery.clean

    wal = _build_log(ops)
    offset = int(cut * wal.total_bytes())
    wal._truncate_to(offset)
    frames, recovery = wal.scan()

    # Whatever survived parses as an exact prefix of the original sequence,
    # ending on a whole group, and replay rebuilds exactly the state that
    # prefix implies.
    assert frames == full_frames[: len(frames)]
    assert len(frames) in _group_ends(ops)
    assert _replayed_state(frames) == _fold(frames)
    # A cut through the middle of a frame is detected, never absorbed.
    if recovery.truncated_bytes:
        assert recovery.torn_frame
    # The scan repaired the log: a second scan is clean and idempotent.
    again, second = wal.scan()
    assert again == frames
    assert second.clean


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 2**16), flips=st.integers(1, 4))
def test_bit_flips_never_corrupt_the_replayed_prefix(ops, seed, flips):
    full_frames, _ = _build_log(ops).scan()

    wal = _build_log(ops)
    wal.apply_crash(bit_flips=flips, rng=random.Random(seed))
    frames, recovery = wal.scan()

    # CRC catches damage: replay never yields a non-prefix (nor part of a
    # batch), and if any frame was lost the damage is reported, not
    # silently absorbed.
    assert frames == full_frames[: len(frames)]
    assert len(frames) in _group_ends(ops)
    if len(frames) < len(full_frames):
        assert not recovery.clean
    assert _replayed_state(frames) == _fold(frames)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(-300, 300), min_size=2, max_size=6),
    bit=st.integers(0, 2**20),
    slotted=st.booleans(),
)
def test_a_damaged_batch_replays_none_of_its_sub_frames(values, bit, slotted):
    # A group's CRC is checked before it is expanded: a flipped body bit
    # that still unpickles must not leak a single sub-frame into replay,
    # from a batch of dict checkpoints or from rows of slotted ones.
    ckpts = [
        (b, 1, _SlotTally(v) if slotted else {0: v}) for b, v in enumerate(values)
    ]
    wal = WorkerWal(0)
    wal.append(K_CREATE, (0, 0))
    body_start = wal.total_bytes() + _HEADER.size
    kind, record = checkpoint_frame(ckpts)
    assert kind == (K_ROWS if slotted else K_BATCH)
    wal.append(kind, record)
    bit %= (wal.total_bytes() - body_start) * 8
    wal.segments[0][body_start + bit // 8] ^= 1 << (bit % 8)
    frames, recovery = wal.scan()
    assert frames == [(K_CREATE, (0, 0))]
    assert recovery.corrupt_frame


@settings(max_examples=40, deadline=None)
@given(
    ops=_OPS,
    sync_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    torn=st.booleans(),
    lose_tail=st.booleans(),
)
def test_crash_fault_combinations_preserve_the_synced_prefix(
    ops, sync_fraction, seed, torn, lose_tail
):
    sync_at = int(sync_fraction * len(ops))
    synced_frames, _ = _build_log(ops[:sync_at]).scan()

    wal = _build_log(ops, sync_at=sync_at)
    wal.apply_crash(
        lose_unsynced_tail=lose_tail,
        torn_write=torn,
        rng=random.Random(seed),
    )
    frames, recovery = wal.scan()

    # Everything behind the fsync horizon survives any crash verbatim.
    assert frames[: len(synced_frames)] == synced_frames
    assert len(frames) in _group_ends(ops)
    assert _replayed_state(frames) == _fold(frames)
    if recovery.truncated_bytes:
        assert recovery.torn_frame or recovery.corrupt_frame


# -- group commit against per-bin commits --------------------------------------


class _Tally:
    """An opaque (non-mapping) bin state: only whole checkpoints log it."""

    def __init__(self, value=0):
        self.value = value


# -- row encoding against the batch encoding -----------------------------------


class _Base:
    __slots__ = ("a",)


class _Split(_Base):
    """Slots split between a base class and this one, one of them private."""

    __slots__ = ("b", "__c")

    def __init__(self, a=0, b=0, c=0):
        self.a, self.b, self.__c = a, b, c


class _Cached:
    """Slotted, but its own reduction keeps ``value`` only: unpickling it
    clears ``memo``, which a rebuild from every slot would keep."""

    __slots__ = ("value", "memo")

    def __init__(self, value=0):
        self.value = value
        self.memo = None

    def __reduce__(self):
        return _Cached, (self.value,)


@dataclass(slots=True, frozen=True)
class _Frozen:
    value: int
    label: str


def _group_state(family, i, v, pick):
    """The ``i``-th state of a drawn group of ``family``."""
    if family == "plain" or (family == "mixed" and i % 2 == 0):
        state = ModeledCountState(v / 4)
        state.records = v * 3
        return state
    if family in ("split", "mixed"):
        return _Split(v, -v, str(v))
    if family == "reduce":
        state = _Cached(v)
        state.memo = str(v)
        return state
    if family == "frozen":
        return _Frozen(v, str(v))
    if family == "dict":
        return _Tally(v)
    if family == "walstate":
        return WalState(None, {i: v})
    state = _Split.__new__(_Split)  # "unset": one state lacks its base slot
    state.b, state._Split__c = v, str(v)
    if i != pick:
        state.a = v
    return state


# Families whose groups go out as rows (``mixed`` only when all one class).
_ROW_FAMILIES = ("plain", "split", "walstate")
_UNSET = object()


def _fields(state):
    """Everything a state holds: its class, each slot pickle knows of (or a
    marker for an unset one) and its instance dict."""
    cls = type(state)
    slots = tuple(getattr(state, name, _UNSET) for name in copyreg._slotnames(cls))
    return cls, slots, getattr(state, "__dict__", None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(
        ["plain", "split", "mixed", "reduce", "frozen", "dict", "walstate", "unset"]
    ),
    values=st.lists(st.integers(-1000, 1000), max_size=70),
    start=st.integers(0, 2**20),
    step=st.integers(0, 2),
    pick=st.integers(0, 69),
)
def test_rows_scan_as_the_checkpoints_a_batch_holds(family, values, start, step, pick):
    """A checkpoint group written by ``checkpoint_frame`` scans as the same
    ``K_CKPT`` sub-frames, bins, epochs and states as the ``K_BATCH`` of
    them; rows are chosen exactly for one plain slotted class with every
    slot set."""
    pick %= max(len(values), 1)
    states = [_group_state(family, i, v, pick) for i, v in enumerate(values)]
    ckpts = [(bin_id, start + step * bin_id, state) for bin_id, state in enumerate(states)]
    written, batch = WorkerWal(0), WorkerWal(0)
    if ckpts:
        kind, record = checkpoint_frame(ckpts)
        one_class = len({type(state) for state in states}) == 1
        rows = family in _ROW_FAMILIES or (family == "mixed" and one_class)
        assert (kind == K_ROWS) == rows
        written.append(kind, record)
        batch.append(K_BATCH, tuple((K_CKPT, ckpt) for ckpt in ckpts))
    frames, recovery = written.scan()
    reference, _ = batch.scan()
    assert recovery.clean and recovery.frames_replayed == len(ckpts)
    heads = [(kind, record[0], record[1]) for kind, record in frames]
    assert heads == [(kind, record[0], record[1]) for kind, record in reference]
    assert heads == [(K_CKPT, bin_id, epoch) for bin_id, epoch, _ in ckpts]
    for (_, got), (_, want), original in zip(frames, reference, states):
        assert pickle.dumps(got[2]) == pickle.dumps(original)
        assert _fields(got[2]) == _fields(want[2])


# -- group commit against per-bin commits --------------------------------------


def _backend(registry):
    backend = make_backend(
        "wal", dict, lambda state: 8.0, codec="modeled",
        options={"wal_registry": registry, "compact_threshold": 6},
    )
    backend.bind_worker(0)
    return backend


def _opaque(bin_id):
    return bin_id % 2 == 1


def _opaque_state(bin_id):
    """Bin 1 holds a dict-based ``_Tally`` and bins 3 and 5 a ``_SlotTally``,
    so a group of only slotted bins commits as rows, a mixed one as a batch."""
    return _Tally() if bin_id == 1 else _SlotTally()


def _snapshot(backend):
    """Every resident bin's state as comparable data."""
    out = {}
    for bin_id in backend.bin_ids():
        state = backend._states[bin_id]
        out[bin_id] = dict(state.data) if isinstance(state, WalState) else state.value
    return out


def _payload(payload):
    state = payload.decode_state()
    state = state.value if isinstance(state, (_Tally, _SlotTally)) else dict(state)
    return payload.kind, payload.base_epoch, state, payload.deleted


# (op, bin, key, value, group mask) over bins 0-5, all created up front;
# odd bins hold opaque state (``_opaque_state``).  Application groups are drawn most often;
# ``crash`` crashes both logs wherever it lands, and it and base captures
# are drawn twice as often as the rest so that a crash often follows a
# capture with nothing synced in between.
_PROGRAM = st.lists(
    st.tuples(
        st.sampled_from(
            ["apply", "apply", "apply", "put", "put", "create", "extract",
             "extract", "delta", "ship", "install", "drop", "compact", "crash",
             "crash"]
        ),
        st.integers(0, 5),
        st.integers(0, 3),
        st.integers(-50, 50),
        st.integers(1, 63),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(program=_PROGRAM, seed=st.integers(0, 2**16))
def test_group_commit_recovers_what_per_bin_commits_recover(program, seed):
    """One backend commits each application group with ``note_applied_group``
    (one frame, one sync); the reference calls ``note_applied`` once per
    bin.  Both hand out the same bases and deltas.  Every write is
    committed (a ``put`` is an application of one bin) and every frame
    synced, so after a crash at any group boundary or anywhere else both
    replay to the bins and states that were live before it, and neither
    reborn backend reopens an epoch a base capture handed out."""
    registries = [WalRegistry(), WalRegistry()]
    grouped, reference = backends = [_backend(r) for r in registries]
    for backend in backends:
        for bin_id in range(6):
            backend.create_bin(bin_id)
            if _opaque(bin_id):
                backend.put_state(bin_id, _opaque_state(bin_id))
    bases = [{}, {}]  # bin -> base epoch of its last base snapshot
    deltas = [[], []]  # every delta payload extracted, decoded
    shipped = [{}, {}]  # bin -> payload extracted with remove=True
    for op, bin_id, key, value, mask in program:
        for side, backend in enumerate(backends):
            present = backend.has_bin(bin_id)
            if op == "create" and not present and bin_id not in shipped[side]:
                backend.create_bin(bin_id)
                if _opaque(bin_id):
                    backend.put_state(bin_id, _opaque_state(bin_id))
            elif op == "put" and present and not _opaque(bin_id):
                backend.state_of(bin_id)[key] = value
                backend.note_applied(bin_id)
            elif op == "apply":
                members = [b for b in sorted(backend.bin_ids()) if mask >> b & 1]
                for b in members:
                    state = backend._states[b]
                    if _opaque(b):
                        state.value += value + b
                    else:
                        state[key] = value + b
                if backend is grouped:
                    grouped.note_applied_group(members, list(range(len(members) + 1)))
                else:
                    for b in members:
                        reference.note_records(b, 1)
                        reference.note_applied(b)
            elif op == "extract" and present:
                bases[side][bin_id] = backend.capture_base(bin_id).base_epoch
            elif op == "delta" and present and bin_id in bases[side]:
                if backend.bin_delta_capable(bin_id):
                    delta = backend.extract_bin(
                        bin_id, remove=False, dirty_since=bases[side][bin_id]
                    )
                    deltas[side].append(_payload(delta))
            elif op == "ship" and present:
                shipped[side][bin_id] = backend.extract_bin(bin_id)
            elif op == "install" and bin_id in shipped[side] and not present:
                backend.install_bin(shipped[side].pop(bin_id))
            elif op == "drop" and present:
                backend.drop_bin(bin_id)
            elif op == "compact":
                backend.compact()
        assert bases[0] == bases[1] and deltas[0] == deltas[1]
        assert _snapshot(grouped) == _snapshot(reference)
        assert grouped.current_epoch() == reference.current_epoch()
        group_end = op == "apply" and any(mask >> b & 1 for b in grouped.bin_ids())
        if op != "crash" and not group_end:
            continue
        # Crash both logs, rebind, compare: nothing synced is lost.
        live = _snapshot(grouped)
        for side, registry in enumerate(registries):
            registry.apply_crash_faults(
                [0], lose_unsynced_tail=True, torn_write=True, seed=seed
            )
            backends[side] = _backend(registry)
            assert backends[side].last_recovery.lost_tail_bytes == 0
            # Base captures are logged: no base epoch handed out reopens.
            assert backends[side].current_epoch() > max(bases[side].values(), default=-1)
        grouped, reference = backends
        assert _snapshot(grouped) == _snapshot(reference) == live
        # Compaction may land at a different epoch on the two sides, so the
        # reborn epochs may differ; resume both from the later one, so the
        # two keep handing out equal base epochs.
        resume = max(b.current_epoch() for b in backends)
        for backend in backends:
            backend._epoch = resume
