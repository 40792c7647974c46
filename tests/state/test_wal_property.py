"""Property tests for WAL recovery: truncation always yields a valid prefix.

The crash-consistency claim, stated as a property: however the log is cut —
at any byte offset, torn, or bit-flipped — recovery parses a checksum-valid
*prefix* of the original frame sequence and rebuilds exactly the state that
prefix implies, ending on a whole group commit.  No cut can make replay
invent, reorder, or corrupt state.  And a backend that commits each
application group as one frame recovers, after a crash at any group
boundary, exactly what one committing bin by bin recovers.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state import make_backend
from repro.state.wal import (
    _HEADER,
    K_BATCH,
    K_CKPT,
    K_CREATE,
    K_DELETE,
    K_DROP,
    K_PUT,
    WalRegistry,
    WalState,
    WorkerWal,
    replay_frames,
)

# One logical operation: (op, bin, key, value) with small domains so ops
# collide on bins/keys (creates, overwrites, deletes, drops, group commits
# all interleave).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "put", "delete", "drop", "group"]),
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
    bin upward as one commit, a lone ``K_CKPT`` or a ``K_BATCH``."""
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
            ckpts = tuple(
                (K_CKPT, (b, epoch, {key: value + b})) for b in members
            )
            if len(ckpts) == 1:
                frame = ckpts[0]
            elif ckpts:
                frame = (K_BATCH, ckpts)
        elif bin_id in live:
            if op == "put":
                frame = (K_PUT, (bin_id, epoch, key, value))
            else:
                frame = (K_DELETE, (bin_id, epoch, key))
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
            ends.append(ends[-1] + (len(frame[1]) if frame[0] == K_BATCH else 1))
    return set(ends)


def _fold(frames):
    """Independent reference fold of a frame sequence (dict bins only)."""
    bins = {}
    for kind, record in frames:
        bin_id = record[0]
        if kind == K_CREATE:
            bins[bin_id] = {}
        elif kind == K_DROP:
            bins.pop(bin_id, None)
        elif kind == K_CKPT:
            bins[bin_id] = dict(record[2])
        elif kind == K_PUT and bin_id in bins:
            bins[bin_id][record[2]] = record[3]
        elif kind == K_DELETE and bin_id in bins:
            bins[bin_id].pop(record[2], None)
    return bins


def _replayed_state(frames):
    bins, _ = replay_frames(frames, dict)
    return {b: dict(e.state) for b, e in bins.items()}


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
)
def test_a_damaged_batch_replays_none_of_its_sub_frames(values, bit):
    # The batch's CRC is checked before it is expanded: a flipped body bit
    # that still unpickles must not leak a single sub-frame into replay.
    batch = tuple((K_CKPT, (b, 1, {0: v})) for b, v in enumerate(values))
    wal = WorkerWal(0)
    wal.append(K_CREATE, (0, 0))
    body_start = wal.total_bytes() + _HEADER.size
    wal.append(K_BATCH, batch)
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


def _backend(registry):
    backend = make_backend(
        "wal", dict, lambda state: 8.0, codec="modeled",
        options={"wal_registry": registry, "compact_threshold": 6},
    )
    backend.bind_worker(0)
    return backend


def _opaque(bin_id):
    return bin_id % 2 == 1


def _snapshot(backend):
    """Every resident bin as comparable data: (state, dirty stamps)."""
    out = {}
    for bin_id in backend.bin_ids():
        state = backend._states[bin_id]
        if isinstance(state, WalState):
            out[bin_id] = (dict(state.data), dict(state.dirty))
        else:
            out[bin_id] = (state.value, None)
    return out


def _stamped(registry, backend):
    """The newest epoch on any frame in the log or any live dirty stamp."""
    frames, _ = registry.wal_for(0).scan()
    epochs = [record[1] for _, record in frames]
    for state in backend._states.values():
        if isinstance(state, WalState):
            epochs.extend(state.dirty.values())
    return max(epochs, default=-1)


def _payload(payload):
    state = payload.decode_state()
    state = state.value if isinstance(state, _Tally) else dict(state)
    return payload.kind, payload.base_epoch, state, payload.deleted


# (op, bin, key, value, group mask) over bins 0-5, all created up front;
# odd bins hold opaque state.  Application groups are drawn most often;
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
    bin.  After a crash at any group boundary both replay to the same bins,
    states and dirty stamps, and those equal what was live before it.  After
    a crash anywhere else both lose the same unsynced writes and still agree,
    and neither reborn backend reopens an epoch a base capture handed out."""
    registries = [WalRegistry(), WalRegistry()]
    grouped, reference = backends = [_backend(r) for r in registries]
    for backend in backends:
        for bin_id in range(6):
            backend.create_bin(bin_id)
            if _opaque(bin_id):
                backend.put_state(bin_id, _Tally())
    bases = [{}, {}]  # bin -> base epoch of its last base snapshot
    deltas = [[], []]  # every delta payload extracted, decoded
    shipped = [{}, {}]  # bin -> payload extracted with remove=True
    for op, bin_id, key, value, mask in program:
        for side, backend in enumerate(backends):
            present = backend.has_bin(bin_id)
            if op == "create" and not present and bin_id not in shipped[side]:
                backend.create_bin(bin_id)
                if _opaque(bin_id):
                    backend.put_state(bin_id, _Tally())
            elif op == "put" and present and not _opaque(bin_id):
                backend.put(bin_id, key, value)
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
                bases[side][bin_id] = backend.extract_bin(bin_id, remove=False).base_epoch
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
        # Crash both logs, rebind, compare.  At a group boundary every write
        # is synced; elsewhere the unsynced puts are lost on both sides.
        live = _snapshot(grouped)
        for side, registry in enumerate(registries):
            stamped = _stamped(registry, backends[side])
            registry.apply_crash_faults(
                [0], lose_unsynced_tail=True, torn_write=True, seed=seed
            )
            backends[side] = _backend(registry)
            if group_end:
                assert backends[side].last_recovery.lost_tail_bytes == 0
                assert backends[side].current_epoch() > stamped
            # Base captures are logged: no base epoch handed out reopens.
            assert backends[side].current_epoch() > max(bases[side].values(), default=-1)
        grouped, reference = backends
        assert _snapshot(grouped) == _snapshot(reference)
        if group_end:
            assert _snapshot(grouped) == live
        # Compaction may land at a different epoch on the two sides, so the
        # reborn epochs may differ; both clear every stamp, so resume both
        # from the later one and keep comparing stamps exactly.
        resume = max(b.current_epoch() for b in backends)
        for backend in backends:
            backend._epoch = resume
