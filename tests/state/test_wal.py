"""WAL backend unit tests: framing, crash faults, recovery, delta, compaction.

The crash-consistency headline lives here too: after a crash with a torn
final write and a lost unsynced tail, a replayed backend holds exactly the
state a fault-free backend holds at the same fsync horizon.
"""

import pickle
import zlib
from types import SimpleNamespace

import pytest

from repro.chaos.recovery import store_fingerprint
from repro.harness.workloads import ModeledCountState
from repro.megaphone.bins import BinStore
from repro.megaphone.snapshot import SnapshotCoordinator
from repro.state import make_backend
from repro.state.wal import (
    _HEADER,
    _MAGIC,
    K_BATCH,
    K_CKPT,
    K_CREATE,
    K_DROP,
    K_EPOCH,
    K_ROWS,
    WalBackend,
    WalRegistry,
    WalState,
    WorkerWal,
    checkpoint_frame,
    encode_frame,
    replay_frames,
)


def _size_fn(state):
    return len(state) * 8


def _wal_backend(registry=None, **options):
    if registry is not None:
        options["wal_registry"] = registry
    return make_backend("wal", dict, _size_fn, codec="modeled", options=options)


def _decode(frame: bytes):
    magic, kind, length, crc = _HEADER.unpack_from(frame, 0)
    body = frame[_HEADER.size : _HEADER.size + length]
    assert magic == _MAGIC
    # The CRC covers the kind byte and the little-endian length, then the body.
    header_fields = bytes([kind]) + length.to_bytes(4, "little")
    assert zlib.crc32(body, zlib.crc32(header_fields)) == crc
    return kind, pickle.loads(body)


# -- framing ------------------------------------------------------------------


def test_frame_round_trip():
    frame = encode_frame(K_CKPT, (3, 7, {"key": 42}))
    kind, record = _decode(frame)
    assert kind == K_CKPT
    assert record == (3, 7, {"key": 42})


def test_unknown_frame_kind_rejected():
    with pytest.raises(ValueError):
        encode_frame(99, (0, 0))


@pytest.mark.parametrize(
    "body",
    [
        (),
        ((K_BATCH, ((K_CKPT, (0, 0, 1)),)),),
        ((K_CKPT, (0, 0, 1)), (K_BATCH, ((K_CKPT, (0, 1, 2)),))),
        ((99, (0, 0)),),
    ],
    ids=["empty", "nested", "nested-after-a-record", "unknown-kind"],
)
def test_encode_frame_refuses_a_malformed_batch(body):
    with pytest.raises(ValueError):
        encode_frame(K_BATCH, body)


def test_append_rolls_segments_without_straddling():
    wal = WorkerWal(0, segment_bytes=128)
    for i in range(64):
        wal.append(K_CKPT, (0, i, i))
    assert len(wal.segments) > 1
    # No frame straddles a boundary: each non-final segment parses cleanly
    # on its own.
    for seg in wal.segments:
        pos = 0
        data = bytes(seg)
        while pos < len(data):
            _, _, length, _ = _HEADER.unpack_from(data, pos)
            pos += _HEADER.size + length
        assert pos == len(data)


def test_sync_advances_horizon():
    wal = WorkerWal(0)
    wal.append(K_CKPT, (0, 1, 1))
    assert wal.unsynced_bytes() > 0
    wal.sync()
    assert wal.unsynced_bytes() == 0
    assert wal.synced == wal.total_bytes()


def test_running_byte_total_tracks_the_segments():
    """``total_bytes`` is maintained, not re-summed: every path that changes
    a segment's length (append with rolls, compaction reset, torn write,
    lost tail, scan truncation) must keep it equal to the bytes on disk."""
    wal = WorkerWal(0, segment_bytes=128)

    def on_disk() -> int:
        return sum(len(seg) for seg in wal.segments)

    for i in range(40):
        wal.append(K_CKPT, (0, i, i))
        assert wal.total_bytes() == on_disk()
    wal.sync()
    assert wal.synced == on_disk() and wal.unsynced_bytes() == 0
    wal.append(K_CKPT, (0, 40, 40))
    assert wal.unsynced_bytes() == on_disk() - wal.synced > 0
    damage = wal.apply_crash(lose_unsynced_tail=True, torn_write=True)
    assert wal.total_bytes() == on_disk() == wal.synced + damage["torn_bytes"]
    wal.scan()  # truncates the torn frame
    assert wal.total_bytes() == on_disk() == wal.synced
    wal.reset([(K_CKPT, (0, 0, 1))])
    assert wal.total_bytes() == on_disk() == wal.synced > 0


# -- scan and crash faults ----------------------------------------------------


def test_scan_clean_log():
    wal = WorkerWal(0)
    wal.append(K_CREATE, (5, 0))
    wal.append(K_CKPT, (5, 0, {"a": 1}))
    frames, recovery = wal.scan()
    assert [k for k, _ in frames] == [K_CREATE, K_CKPT]
    assert recovery.clean
    assert recovery.frames_replayed == 2
    assert recovery.truncated_bytes == 0


def test_torn_write_detected_and_truncated():
    wal = WorkerWal(0)
    wal.append(K_CREATE, (1, 0))
    wal.append(K_CKPT, (1, 0, {"a": 1}))
    wal.sync()
    damage = wal.apply_crash(torn_write=True)
    assert damage["torn_bytes"] > 0
    frames, recovery = wal.scan()
    assert recovery.torn_frame
    assert not recovery.clean
    assert recovery.truncated_bytes > 0
    assert len(frames) == 2  # the intact prefix survives in full
    # The log itself was repaired: a second scan is clean.
    _, second = wal.scan()
    assert second.clean


def test_lost_unsynced_tail_respects_fsync_horizon():
    wal = WorkerWal(0)
    wal.append(K_CKPT, (0, 0, "synced"))
    wal.sync()
    wal.append(K_CKPT, (0, 1, "unsynced"))
    lost = wal.unsynced_bytes()
    damage = wal.apply_crash(lose_unsynced_tail=True)
    assert damage["lost_tail_bytes"] == lost
    frames, recovery = wal.scan()
    assert [record[2] for _, record in frames] == ["synced"]
    # Losing exactly the unsynced tail leaves whole frames: a clean cut.
    assert recovery.clean


def test_bit_flip_detected_by_checksum():
    wal = WorkerWal(0)
    for i in range(20):
        wal.append(K_CKPT, (0, i, i))
    wal.sync()
    import random

    wal.apply_crash(bit_flips=1, rng=random.Random(7))
    frames, recovery = wal.scan()
    assert not recovery.clean
    assert recovery.corrupt_frame or recovery.torn_frame
    assert len(frames) < 20
    # Surviving prefix is intact.
    for _, record in frames:
        assert record[1] == record[2]


def test_header_bit_flips_truncate_at_the_damaged_frame():
    # Every single-bit flip in one frame's kind byte or length field must
    # end the replay at that frame.  Frame 2 is a CREATE (kind 1): flipping
    # its bit 3 spells ROWS (kind 9), a valid kind that only the CRC can
    # tell apart.
    written = [
        (K_CKPT, (0, 0, {"a": 1})),
        (K_CKPT, (0, 1, {"b": 2})),
        (K_CREATE, (3, 2)),
        (K_CKPT, (3, 3, {"c": 4})),
    ]
    damaged = 2
    frame_start = sum(len(encode_frame(kind, record)) for kind, record in written[:damaged])
    kind_offset = 2  # after the 2-byte magic
    header_fields = range(kind_offset, kind_offset + 1 + 4)  # kind, length
    for byte in header_fields:
        for bit in range(8):
            wal = WorkerWal(0)
            for kind, record in written:
                wal.append(kind, record)
            total = wal.total_bytes()
            wal.segments[0][frame_start + byte] ^= 1 << bit
            frames, recovery = wal.scan()
            assert frames == written[:damaged], (byte, bit)
            assert recovery.corrupt_frame or recovery.torn_frame
            assert recovery.truncated_bytes == total - frame_start


def test_batch_frame_scans_as_its_sub_frames():
    subs = ((K_CREATE, (1, 0)), (K_EPOCH, (1, 0)), (K_CKPT, (2, 1, 5)), (K_DROP, (1, 2)))
    wal = WorkerWal(0)
    wal.append(K_CKPT, (0, 0, "x"))
    wal.append(K_BATCH, subs)
    assert wal.frames_appended == 2
    frames, recovery = wal.scan()
    assert frames == [(K_CKPT, (0, 0, "x")), *subs]
    assert recovery.clean
    assert recovery.frames_replayed == 5  # sub-frames, not physical frames


def _raw_frame(kind: int, record) -> bytes:
    """A CRC-valid frame around any body, bypassing ``encode_frame``'s checks."""
    payload = pickle.dumps(record, protocol=4)
    crc = zlib.crc32(payload, zlib.crc32(bytes([kind]) + len(payload).to_bytes(4, "little")))
    return _HEADER.pack(_MAGIC, kind, len(payload), crc) + payload


@pytest.mark.parametrize(
    "body",
    [(), ((K_BATCH, ((K_CKPT, (0, 1, 2)),)),), ((K_CKPT, (0, 1, 2)), "junk"), [1, 2]],
    ids=["empty", "nested", "junk-sub-frame", "not-a-tuple"],
)
def test_crc_valid_batch_with_malformed_body_is_corrupt(body):
    _assert_scan_stops_at(K_BATCH, body)


class _Slotted:
    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value


@pytest.mark.parametrize(
    "body",
    [
        (_Slotted, ("value",), ((0, 1),)),
        (_Slotted, ("value",), ((0, 1, 2), (1, 2, 3, 4))),
        (5, ("value",), ((0, 1, 2),)),
        (_Slotted(), ("value",), ((0, 1, 2),)),
        (_Slotted, (7,), ((0, 1, 2),)),
        (_Slotted, ("value",), ()),
    ],
    ids=[
        "row-too-short", "row-too-long", "cls-an-int", "cls-an-instance",
        "slot-name-an-int", "no-rows",
    ],
)
def test_crc_valid_rows_with_a_malformed_body_are_corrupt(body):
    _assert_scan_stops_at(K_ROWS, body)


def _assert_scan_stops_at(kind, body):
    """A CRC-valid frame of ``kind`` around ``body`` is a corrupt frame: the
    scan stops there and truncates it and everything behind it."""
    wal = WorkerWal(0)
    wal.append(K_CKPT, (0, 0, 1))
    good = wal.total_bytes()
    bad = _raw_frame(kind, body)
    wal.segments[-1].extend(bad)
    wal._total += len(bad)
    wal.append(K_CKPT, (0, 2, 3))  # intact, but behind the bad frame
    total = wal.total_bytes()
    frames, recovery = wal.scan()
    assert frames == [(K_CKPT, (0, 0, 1))]
    assert recovery.corrupt_frame
    assert recovery.truncated_bytes == total - good
    assert wal.total_bytes() == good


# -- backend lifecycle and recovery -------------------------------------------


def test_backend_recovers_states_from_log_alone():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(1)
    backend.create_bin(2)
    backend.state_of(1)["a"] = 10
    backend.state_of(1)["b"] = 20
    backend.state_of(2)["x"] = 1
    del backend.state_of(1)["b"]
    backend.note_applied(1)
    backend.note_applied(2)

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert sorted(reborn.bin_ids()) == [1, 2]
    assert dict(reborn.state_of(1).items()) == {"a": 10}
    assert dict(reborn.state_of(2).items()) == {"x": 1}
    assert reborn.last_recovery is not None
    assert reborn.last_recovery.clean
    assert reborn.last_recovery.bins_recovered == 2
    # The reborn backend's epoch is strictly ahead of everything replayed.
    assert reborn.current_epoch() > reborn.last_recovery.max_epoch


def test_recovery_stamps_every_key_with_the_reborn_epoch():
    """Dirty stamps are not logged: every key of a recovered mapping bin
    counts as written in the reborn epoch, above everything replayed."""
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(3)
    backend.create_bin(0)
    backend.state_of(0)["a"] = 1
    backend.note_applied(0)
    backend.state_of(0)["b"] = 2
    backend.note_applied(0)

    reborn = _wal_backend(registry)
    reborn.bind_worker(3)
    state = reborn._states[0]
    assert isinstance(state, WalState)
    epoch = reborn.current_epoch()
    assert epoch == reborn.last_recovery.max_epoch + 1
    assert state.dirty == {"a": epoch, "b": epoch}


def test_dropped_bin_stays_dropped_after_replay():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(4)
    backend.state_of(4)["a"] = 1
    backend.drop_bin(4)
    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert reborn.bin_ids() == []


def test_recovery_after_torn_write_and_lost_tail():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.state_of(0)["durable"] = 1
    backend.note_applied(0)  # every commit syncs: synced here
    # A frame that never reaches the fsync horizon.  The backend syncs every
    # frame it writes, so only a direct append leaves an unsynced tail.
    registry.wal_for(0).append(
        K_CKPT, (0, backend.current_epoch(), {"durable": 1, "volatile": 2})
    )
    registry.apply_crash_faults([0], lose_unsynced_tail=True, torn_write=True, seed=5)

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert dict(reborn.state_of(0).items()) == {"durable": 1}
    recovery = reborn.last_recovery
    assert recovery.torn_frame
    assert recovery.lost_tail_bytes > 0
    assert recovery.truncated_bytes > 0


def test_crash_consistency_matches_fault_free_run_at_horizon():
    """The §13 contract: recovery == fault-free state at the fsync horizon."""
    faulted_reg, clean_reg = WalRegistry(), WalRegistry()
    faulted = _wal_backend(faulted_reg)
    clean = _wal_backend(clean_reg)
    for backend in (faulted, clean):
        backend.bind_worker(0)
        backend.create_bin(0)
        for i in range(50):
            backend.state_of(0)[f"k{i}"] = i
        backend.note_applied(0)  # fsync horizon: both logs agree here
    # Only the faulted worker keeps writing, and never commits: the crash
    # loses all of it.
    for i in range(25):
        faulted.state_of(0)[f"k{i}"] = -i
    # No bit flips here: those may land in the durable region, where data
    # loss is detected (not silent) but the horizon guarantee ends.
    faulted_reg.apply_crash_faults(
        [0], lose_unsynced_tail=True, torn_write=True, seed=11
    )
    reborn = _wal_backend(faulted_reg)
    reborn.bind_worker(0)
    assert dict(reborn.state_of(0).items()) == dict(clean.state_of(0).items())


# -- opaque (non-mapping) state ------------------------------------------------


class _Counter:
    def __init__(self, value=0):
        self.value = value


def test_opaque_state_checkpointed_per_batch():
    registry = WalRegistry()
    backend = make_backend(
        "wal", _Counter, lambda s: 8.0, codec="modeled",
        options={"wal_registry": registry},
    )
    backend.bind_worker(0)
    backend.create_bin(0)
    backend._states[0].value = 17
    backend.note_applied(0)
    reborn = make_backend(
        "wal", _Counter, lambda s: 8.0, codec="modeled",
        options={"wal_registry": registry},
    )
    reborn.bind_worker(0)
    assert reborn._states[0].value == 17
    assert not reborn.bin_delta_capable(0)


def _opaque_backend(registry=None, **options):
    if registry is not None:
        options["wal_registry"] = registry
    return make_backend("wal", _Counter, lambda s: 8.0, codec="modeled", options=options)


def test_group_commit_is_one_frame_and_one_sync():
    registry = WalRegistry()
    backend = _opaque_backend(registry)
    backend.bind_worker(0)
    bins = [0, 1, 2, 3, 4]
    for bin_id in bins:
        backend.create_bin(bin_id)
        backend._states[bin_id].value = 10 + bin_id
    wal = registry.wal_for(0)
    frames, syncs, epoch = wal.frames_appended, wal.syncs, backend.current_epoch()
    backend.note_applied_group(bins, [0, 2, 3, 3, 7, 8])
    assert wal.frames_appended == frames + 1
    assert wal.syncs == syncs + 1
    assert wal.unsynced_bytes() == 0
    assert backend.current_epoch() == epoch + len(bins)
    # The base class's record accounting still runs (bin 2 applied none).
    assert [backend.records_applied(b) for b in bins] == [2, 1, 0, 4, 1]
    # One checkpoint per bin, stamped with the bin's own epoch, in order.
    frames, _ = wal.scan()
    assert [(k, r[0], r[1], r[2].value) for k, r in frames[-len(bins) :]] == [
        (K_CKPT, b, epoch + i, 10 + b) for i, b in enumerate(bins)
    ]
    reborn = _opaque_backend(registry)
    reborn.bind_worker(0)
    assert [reborn._states[b].value for b in bins] == [10, 11, 12, 13, 14]
    assert reborn.last_recovery.max_epoch == epoch + len(bins) - 1


def test_group_of_one_opaque_bin_writes_a_plain_checkpoint():
    registry = WalRegistry()
    backend = _opaque_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(7)
    start = registry.wal_for(0).total_bytes()
    backend.note_applied_group([7], [0, 3])
    kind, record = _decode(bytes(registry.wal_for(0).segments[-1])[start:])
    assert kind == K_CKPT and record[0] == 7


def test_group_of_mapping_bins_writes_one_frame_and_one_sync():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.create_bin(1)
    backend.state_of(0)["a"] = 1
    backend.state_of(1)["b"] = 2
    wal = registry.wal_for(0)
    frames, syncs, epoch = wal.frames_appended, wal.syncs, backend.current_epoch()
    backend.note_applied_group([0, 1], [0, 1, 2])
    assert wal.frames_appended == frames + 1
    assert wal.syncs == syncs + 1
    assert wal.unsynced_bytes() == 0
    # Each mapping bin is checkpointed whole, as a plain dict.
    replayed, _ = wal.scan()
    assert replayed[-2:] == [(K_CKPT, (0, epoch, {"a": 1})), (K_CKPT, (1, epoch + 1, {"b": 2}))]


def test_a_value_changed_in_place_is_recovered():
    """A fold that changes a value it read (``entry[1] = price``) changes no
    key; the next commit's checkpoint still carries the new value."""
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.state_of(0)["auction"] = [None, 10]
    backend.note_applied(0)
    backend.state_of(0).get("auction")[1] = 25
    backend.note_applied(0)

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert dict(reborn.state_of(0).items()) == {"auction": [None, 25]}


def _slotted_backend(registry, **options):
    backend = make_backend(
        "wal", _Slotted, lambda s: 8.0, codec="modeled",
        options={"wal_registry": registry, **options},
    )
    backend.bind_worker(0)
    return backend


def test_group_of_slotted_bins_commits_one_rows_frame():
    """Rows change the bytes of a group commit, not its counts: one frame,
    one sync, ``n`` records towards compaction, epochs ``e…e+n-1``, and a
    scan that replays one checkpoint per bin."""
    registry = WalRegistry()
    backend = _slotted_backend(registry)
    bins = [0, 1, 2, 3, 4]
    for bin_id in bins:
        backend.create_bin(bin_id)
        backend._states[bin_id].value = 10 + bin_id
    wal = registry.wal_for(0)
    frames, syncs, start = wal.frames_appended, wal.syncs, wal.total_bytes()
    since, epoch = backend._frames_since_compaction, backend.current_epoch()
    backend.note_applied_group(bins, [0, 2, 3, 3, 7, 8])
    assert wal.frames_appended == frames + 1
    assert wal.syncs == syncs + 1
    assert backend._frames_since_compaction == since + len(bins)
    assert _decode(bytes(wal.segments[-1])[start:]) == (
        K_ROWS,
        (_Slotted, ("value",), tuple((b, epoch + i, 10 + b) for i, b in enumerate(bins))),
    )
    replayed, recovery = wal.scan()
    assert [(k, r[0], r[1], type(r[2]), r[2].value) for k, r in replayed[-len(bins) :]] == [
        (K_CKPT, b, epoch + i, _Slotted, 10 + b) for i, b in enumerate(bins)
    ]
    assert recovery.frames_replayed == len(replayed) == 2 * len(bins)
    reborn = _slotted_backend(registry)
    assert [reborn._states[b].value for b in bins] == [10, 11, 12, 13, 14]
    assert reborn.last_recovery.max_epoch == epoch + len(bins) - 1


def test_compaction_of_slotted_bins_writes_rows():
    registry = WalRegistry()
    backend = _slotted_backend(registry)
    for bin_id in range(6):
        backend.create_bin(bin_id)
        backend._states[bin_id].value = bin_id
    wal = registry.wal_for(0)
    frames, epoch = wal.frames_appended, backend.current_epoch()
    backend.compact()
    assert wal.frames_appended == frames + 1
    assert backend._frames_since_compaction == 0
    assert _decode(bytes(wal.segments[0])) == (
        K_ROWS, (_Slotted, ("value",), tuple((b, epoch, b) for b in range(6)))
    )
    replayed, recovery = wal.scan()
    assert [(k, r[0], r[1], r[2].value) for k, r in replayed] == [
        (K_CKPT, b, epoch, b) for b in range(6)
    ]
    assert recovery.frames_replayed == 6


def test_the_count_state_commits_as_rows():
    """``ModeledCountState`` keeps pickle's default reduction, so its groups
    go out as rows; a custom ``__reduce__`` on it would silently turn them
    back into a batch of pickled objects."""
    state = ModeledCountState(2.5)
    state.records = 7
    assert checkpoint_frame([(0, 3, state), (1, 4, state)]) == (
        K_ROWS, (ModeledCountState, ("expected_keys", "records"), ((0, 3, 2.5, 7), (1, 4, 2.5, 7)))
    )


# -- delta extraction ----------------------------------------------------------


def _merged(base, delta):
    """What a destination installs: the base with the delta folded over it."""
    state = dict(base.decode_state())
    state.update(delta.decode_state())
    for key in delta.deleted:
        state.pop(key, None)
    return state


@pytest.mark.parametrize("codec", ["modeled", "pickle"])
def test_a_delta_carries_a_value_changed_in_place(codec):
    store = BinStore(
        num_bins=4, state_factory=dict, backend="wal", codec=codec,
        backend_options={"wal_registry": WalRegistry()}, worker_id=0,
    )
    store.create(0)
    state = store.get(0).state
    state["auction"] = [None, 10]
    state["other"] = [None, 5]
    store.note_applied(0, 2)
    base = store.capture_base(0)
    state.get("auction")[1] = 25  # read, then changed in place
    store.note_applied(0, 1)
    delta = store.extract(0, remove=False, dirty_since=base.base_epoch)
    assert delta.decode_state() == {"auction": [None, 25]}
    assert _merged(base, delta) == dict(state.data) == {
        "auction": [None, 25], "other": [None, 5]
    }


def test_delta_extraction_ships_only_dirty_keys():
    backend = _wal_backend()
    backend.bind_worker(0)
    backend.create_bin(0)
    for i in range(10):
        backend.state_of(0)[i] = i
    backend.note_applied(0)
    base = backend.capture_base(0)
    assert base.kind == "full"
    # Mutate a subset after the base snapshot.
    backend.state_of(0)[3] = 33
    backend.state_of(0)[10] = 100
    del backend.state_of(0)[7]
    delta = backend.extract_bin(0, dirty_since=base.base_epoch)
    assert delta.kind == "delta"
    assert delta.base_epoch == base.base_epoch
    assert delta.decode_state() == {3: 33, 10: 100}
    assert delta.deleted == (7,)
    assert not backend.has_bin(0)  # delta extraction honored remove=True


def test_delta_of_unchanged_bin_is_empty():
    backend = _wal_backend()
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.state_of(0)["a"] = 1
    backend.note_applied(0)
    base = backend.capture_base(0)
    delta = backend.extract_bin(0, dirty_since=base.base_epoch, remove=False)
    assert delta.decode_state() == {}
    assert delta.deleted == ()


def test_delta_bytes_scale_with_dirty_fraction():
    """The acceptance line: 10% dirty ships < 25% of whole-bin bytes."""
    backend = _wal_backend()
    backend.bind_worker(0)
    backend.create_bin(0)
    for i in range(100):
        backend.state_of(0)[i] = i
    backend.note_applied(0)
    base = backend.capture_base(0)
    for i in range(10):  # 10% of keys dirtied since the base snapshot
        backend.state_of(0)[i] = -i
    delta = backend.extract_bin(0, dirty_since=base.base_epoch, remove=False)
    assert delta.size_bytes < 0.25 * base.size_bytes


def test_delta_bytes_grow_with_dirty_fraction_up_to_the_whole_bin():
    backend = _wal_backend()
    backend.bind_worker(0)
    backend.create_bin(0)
    for i in range(100):
        backend.state_of(0)[i] = i
    backend.note_applied(0)
    base = backend.capture_base(0)
    sizes = []
    for dirty in (1, 5, 10, 25, 50, 100):  # percent, cumulatively dirtied
        for i in range(dirty):
            backend.state_of(0)[i] = -i
        delta = backend.extract_bin(0, dirty_since=base.base_epoch, remove=False)
        assert delta.kind == "delta"
        sizes.append(delta.size_bytes)
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    # A fully dirtied bin ships (at least about) the whole bin again.
    assert sizes[-1] >= 0.9 * base.size_bytes


def _wal_store(**options):
    return BinStore(
        num_bins=8, state_factory=dict, backend="wal",
        backend_options={"wal_registry": WalRegistry(), **options}, worker_id=0,
    )


def test_a_mapping_bin_records_stamps_only_from_its_first_base():
    store = _wal_store()
    store.create(0)
    state = store.get(0).state
    for i in range(50):  # churn: every key inserted, read, then deleted
        state[i] = i
        state.get(i)
        if i >= 4:
            del state[i - 4]
        store.note_applied(0, 1)
    assert state.dirty is None
    base = store.capture_base(0)
    assert state.dirty == {}
    state[100] = 1
    del state[46]
    state.get(47)
    store.note_applied(0, 3)
    assert sorted(state.dirty) == [46, 47, 100]
    assert all(epoch > base.base_epoch for epoch in state.dirty.values())
    delta = store.extract(0, remove=False, dirty_since=base.base_epoch)
    assert _merged(base, delta) == dict(state.data)


def test_a_delta_needs_a_base():
    store = _wal_store()
    store.create(0)
    with pytest.raises(ValueError, match="no base"):
        store.extract(0, remove=False, dirty_since=0)


def test_observers_write_nothing_to_the_log():
    """A fingerprint and a snapshot read a copy: no frame, no epoch, no
    stamp, and the fingerprint they leave is the one they found."""
    store = _wal_store()
    for bin_id in range(3):
        store.create(bin_id)
        store.get(bin_id).state["k"] = [bin_id]
        store.note_applied(bin_id, 1)
    store.capture_base(1)
    store.get(1).state["j"] = 1
    store.note_applied(1, 1)
    backend = store.backend
    wal = backend._log()

    def observed():
        dirty = {b: None if s.dirty is None else dict(s.dirty)
                 for b, s in backend._states.items()}
        return wal.frames_appended, backend.current_epoch(), dirty

    before = observed()
    fingerprint = store_fingerprint(store)
    sim = SimpleNamespace(now=1.0)
    probe = SimpleNamespace(
        on_advance=lambda _cb, first: None,
        passed=lambda _time: True,
        frontier=lambda: SimpleNamespace(elements=lambda: ()),
    )
    op = SimpleNamespace(
        config=SimpleNamespace(name="count"), stores=lambda _rt: [(0, store)]
    )
    snapshot = SnapshotCoordinator(SimpleNamespace(sim=sim), op, probe, 0).snapshot
    assert sorted(snapshot.bins) == [0, 1, 2]
    assert observed() == before
    assert store_fingerprint(store) == fingerprint
    assert observed() == before


# -- compaction ----------------------------------------------------------------


def test_compaction_bounds_log_and_preserves_state():
    registry = WalRegistry()
    backend = _wal_backend(registry, compact_threshold=32)
    backend.bind_worker(0)
    backend.create_bin(0)
    for i in range(500):
        backend.state_of(0)[i % 8] = i
        if i % 4 == 3:
            backend.note_applied(0)
    assert backend.compactions > 0
    # Post-compaction the log is one checkpoint frame per bin (plus any
    # commits since), far smaller than 125 checkpoint frames.
    frames, recovery = registry.wal_for(0).scan()
    assert recovery.clean
    assert len(frames) < 64
    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert dict(reborn.state_of(0).items()) == dict(backend.state_of(0).items())


def test_compact_writes_one_frame():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    for bin_id in range(6):
        backend.create_bin(bin_id)
        backend.state_of(bin_id)["k"] = bin_id
    wal = registry.wal_for(0)
    frames = wal.frames_appended
    backend.compact()
    assert wal.frames_appended == frames + 1
    assert wal.unsynced_bytes() == 0
    replayed, recovery = wal.scan()
    assert [k for k, _ in replayed] == [K_CKPT] * 6
    assert recovery.frames_replayed == 6


def test_compaction_threshold_counts_checkpoints_not_frames():
    """Groups compact after the same checkpoint volume as per-bin commits."""
    bins = [0, 1, 2, 3]
    grouped, per_bin = _opaque_backend(compact_threshold=8), _opaque_backend(compact_threshold=8)
    for backend in (grouped, per_bin):
        backend.bind_worker(0)
        for bin_id in bins:
            backend.create_bin(bin_id)
    for _ in range(16):
        grouped.note_applied_group(bins, [0, 1, 2, 3, 4])
        for bin_id in bins:
            per_bin.note_applied(bin_id)
    # 64 checkpoints / 8 = 8 compactions; the creates add 4 records first.
    assert grouped.compactions == per_bin.compactions == 8
    assert grouped.current_epoch() == per_bin.current_epoch()


def test_delta_after_compaction_and_crash_sees_writes_since_its_base():
    """A delta extracted after compaction and a crash-and-replay still
    ships every write since its base (the whole recovered bin: stamps are
    not logged), so the base with the delta over it is the live state."""
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.state_of(0)["a"] = 1
    backend.note_applied(0)
    base = backend.capture_base(0)
    backend.state_of(0)["b"] = 2
    backend.note_applied(0)
    backend.compact()

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    delta = reborn.extract_bin(0, remove=False, dirty_since=base.base_epoch)
    assert "b" in delta.decode_state()
    assert _merged(base, delta) == dict(reborn._states[0].data) == {"a": 1, "b": 2}


def test_delta_since_a_base_sees_writes_after_a_restart():
    """A base capture closes its epoch durably: the reborn epoch after a
    crash is above every base epoch handed out, so a delta since that base
    ships the writes made after the restart."""
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.state_of(0)["a"] = 1
    backend.note_applied(0)
    base = backend.capture_base(0)
    assert base.base_epoch == 1
    registry.apply_crash_faults([0], lose_unsynced_tail=True)

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert reborn.current_epoch() > base.base_epoch
    reborn.state_of(0)["b"] = 2
    delta = reborn.extract_bin(0, remove=False, dirty_since=base.base_epoch)
    assert "b" in delta.decode_state()
    assert _merged(base, delta) == dict(reborn._states[0].data) == {"a": 1, "b": 2}


def test_three_field_checkpoint_still_replays():
    states, max_epoch = replay_frames([(K_CKPT, (0, 4, {"a": 1}))], dict)
    assert states == {0: {"a": 1}}
    assert max_epoch == 4


def test_compacted_log_replays_checkpoint_frames():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.state_of(0)["a"] = 1
    backend.compact()
    frames, _ = registry.wal_for(0).scan()
    assert [k for k, _ in frames] == [K_CKPT]
    states, _ = replay_frames(frames, dict)
    assert states == {0: {"a": 1}}


# -- registry and options ------------------------------------------------------


def test_registry_isolates_workers():
    registry = WalRegistry()
    a = _wal_backend(registry)
    a.bind_worker(0)
    b = _wal_backend(registry)
    b.bind_worker(1)
    a.create_bin(0)
    a.state_of(0)["a"] = 1
    assert registry.wal_for(1).total_bytes() == 0
    assert registry.workers() == [0, 1]


def test_crash_faults_are_deterministic_per_seed():
    def damaged_log(seed):
        registry = WalRegistry()
        backend = _wal_backend(registry)
        backend.bind_worker(0)
        backend.create_bin(0)
        for i in range(30):
            backend.state_of(0)[i] = i
        backend.note_applied(0)
        registry.apply_crash_faults(
            [0], torn_write=True, bit_flips=3, seed=seed
        )
        return b"".join(bytes(s) for s in registry.wal_for(0).segments)

    assert damaged_log(9) == damaged_log(9)
    assert damaged_log(9) != damaged_log(10)


def test_bad_options_rejected():
    with pytest.raises(ValueError):
        WalBackend(dict, _size_fn, None, compact_threshold=0)
    with pytest.raises(ValueError):
        WorkerWal(0, segment_bytes=4)
