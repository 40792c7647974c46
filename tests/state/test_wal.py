"""WAL backend unit tests: framing, crash faults, recovery, delta, compaction.

The crash-consistency headline lives here too: after a crash with a torn
final write and a lost unsynced tail, a replayed backend holds exactly the
state a fault-free backend holds at the same fsync horizon.
"""

import pickle
import zlib

import pytest

from repro.state import make_backend
from repro.state.wal import (
    _HEADER,
    _MAGIC,
    K_BATCH,
    K_CKPT,
    K_CREATE,
    K_PUT,
    WalBackend,
    WalRegistry,
    WalState,
    WorkerWal,
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
    frame = encode_frame(K_PUT, (3, 7, "key", 42))
    kind, record = _decode(frame)
    assert kind == K_PUT
    assert record == (3, 7, "key", 42)


def test_unknown_frame_kind_rejected():
    with pytest.raises(ValueError):
        encode_frame(99, (0, 0))


@pytest.mark.parametrize(
    "body",
    [
        (),
        ((K_BATCH, ((K_PUT, (0, 0, "a", 1)),)),),
        ((K_PUT, (0, 0, "a", 1)), (K_BATCH, ((K_PUT, (0, 1, "b", 2)),))),
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
        wal.append(K_PUT, (0, i, i, i))
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
    wal.append(K_PUT, (0, 1, "a", 1))
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
        wal.append(K_PUT, (0, i, i, i))
        assert wal.total_bytes() == on_disk()
    wal.sync()
    assert wal.synced == on_disk() and wal.unsynced_bytes() == 0
    wal.append(K_PUT, (0, 40, 40, 40))
    assert wal.unsynced_bytes() == on_disk() - wal.synced > 0
    damage = wal.apply_crash(lose_unsynced_tail=True, torn_write=True)
    assert wal.total_bytes() == on_disk() == wal.synced + damage["torn_bytes"]
    wal.scan()  # truncates the torn frame
    assert wal.total_bytes() == on_disk() == wal.synced
    wal.reset([(K_PUT, (0, 0, "a", 1))])
    assert wal.total_bytes() == on_disk() == wal.synced > 0


# -- scan and crash faults ----------------------------------------------------


def test_scan_clean_log():
    wal = WorkerWal(0)
    wal.append(K_CREATE, (5, 0))
    wal.append(K_PUT, (5, 0, "a", 1))
    frames, recovery = wal.scan()
    assert [k for k, _ in frames] == [K_CREATE, K_PUT]
    assert recovery.clean
    assert recovery.frames_replayed == 2
    assert recovery.truncated_bytes == 0


def test_torn_write_detected_and_truncated():
    wal = WorkerWal(0)
    wal.append(K_CREATE, (1, 0))
    wal.append(K_PUT, (1, 0, "a", 1))
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
    wal.append(K_PUT, (0, 0, "synced", 1))
    wal.sync()
    wal.append(K_PUT, (0, 1, "unsynced", 2))
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
        wal.append(K_PUT, (0, i, i, i))
    wal.sync()
    import random

    wal.apply_crash(bit_flips=1, rng=random.Random(7))
    frames, recovery = wal.scan()
    assert not recovery.clean
    assert recovery.corrupt_frame or recovery.torn_frame
    assert len(frames) < 20
    # Surviving prefix is intact.
    for _, record in frames:
        assert record[2] == record[3]


def test_header_bit_flips_truncate_at_the_damaged_frame():
    # Every single-bit flip in one frame's kind byte or length field must
    # end the replay at that frame.  Frame 2 is a CREATE (kind 1): flipping
    # its bit 2 spells INSTALL (kind 5), a valid kind that only the CRC can
    # tell apart.
    written = [
        (K_PUT, (0, 0, "a", 1)),
        (K_PUT, (0, 1, "b", 2)),
        (K_CREATE, (3, 2)),
        (K_PUT, (3, 3, "c", 4)),
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
    subs = ((K_CREATE, (1, 0)), (K_PUT, (1, 0, "a", 1)), (K_CKPT, (2, 1, 5)))
    wal = WorkerWal(0)
    wal.append(K_PUT, (0, 0, "x", 0))
    wal.append(K_BATCH, subs)
    assert wal.frames_appended == 2
    frames, recovery = wal.scan()
    assert frames == [(K_PUT, (0, 0, "x", 0)), *subs]
    assert recovery.clean
    assert recovery.frames_replayed == 4  # sub-frames, not physical frames


def _raw_frame(kind: int, record) -> bytes:
    """A CRC-valid frame around any body, bypassing ``encode_frame``'s checks."""
    payload = pickle.dumps(record, protocol=4)
    crc = zlib.crc32(payload, zlib.crc32(bytes([kind]) + len(payload).to_bytes(4, "little")))
    return _HEADER.pack(_MAGIC, kind, len(payload), crc) + payload


@pytest.mark.parametrize(
    "body",
    [(), ((K_BATCH, ((K_PUT, (0, 1, "b", 2)),)),), ((K_PUT, (0, 1, "b", 2)), "junk"), [1, 2]],
    ids=["empty", "nested", "junk-sub-frame", "not-a-tuple"],
)
def test_crc_valid_batch_with_malformed_body_is_corrupt(body):
    wal = WorkerWal(0)
    wal.append(K_PUT, (0, 0, "a", 1))
    good = wal.total_bytes()
    bad = _raw_frame(K_BATCH, body)
    wal.segments[-1].extend(bad)
    wal._total += len(bad)
    wal.append(K_PUT, (0, 2, "c", 3))  # intact, but behind the bad frame
    total = wal.total_bytes()
    frames, recovery = wal.scan()
    assert frames == [(K_PUT, (0, 0, "a", 1))]
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
    backend.put(1, "a", 10)
    backend.put(1, "b", 20)
    backend.put(2, "x", 1)
    backend.delete(1, "b")
    backend.note_applied(1)
    backend.note_applied(2)

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert sorted(reborn.bin_ids()) == [1, 2]
    assert dict(reborn.items(1)) == {"a": 10}
    assert dict(reborn.items(2)) == {"x": 1}
    assert reborn.last_recovery is not None
    assert reborn.last_recovery.clean
    assert reborn.last_recovery.bins_recovered == 2
    # The reborn backend's epoch is strictly ahead of everything replayed.
    assert reborn.current_epoch() > reborn.last_recovery.max_epoch


def test_recovery_preserves_dirty_epochs_for_delta():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(3)
    backend.create_bin(0)
    backend.put(0, "a", 1)
    backend.note_applied(0)
    backend.put(0, "b", 2)
    backend.note_applied(0)

    reborn = _wal_backend(registry)
    reborn.bind_worker(3)
    state = reborn._states[0]
    assert isinstance(state, WalState)
    assert state.dirty["b"] > state.dirty["a"]


def test_dropped_bin_stays_dropped_after_replay():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(4)
    backend.put(4, "a", 1)
    backend.drop_bin(4)
    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert reborn.bin_ids() == []


def test_recovery_after_torn_write_and_lost_tail():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.put(0, "durable", 1)
    backend.note_applied(0)  # sync_every=1: synced here
    # These writes never reach the fsync horizon.
    state = backend._states[0]
    state["volatile"] = 2
    registry.apply_crash_faults([0], lose_unsynced_tail=True, torn_write=True, seed=5)

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert dict(reborn.items(0)) == {"durable": 1}
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
            backend.put(0, f"k{i}", i)
        backend.note_applied(0)  # fsync horizon: both logs agree here
    # Only the faulted worker keeps writing; the crash destroys all of it.
    for i in range(25):
        faulted.put(0, f"k{i}", -i)
    # No bit flips here: those may land in the durable region, where data
    # loss is detected (not silent) but the horizon guarantee ends.
    faulted_reg.apply_crash_faults(
        [0], lose_unsynced_tail=True, torn_write=True, seed=11
    )
    reborn = _wal_backend(faulted_reg)
    reborn.bind_worker(0)
    assert dict(reborn.items(0)) == dict(clean.items(0))


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


def test_group_of_mapping_bins_writes_no_frame_but_syncs():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.create_bin(1)
    backend.put(0, "a", 1)
    backend.put(1, "b", 2)
    wal = registry.wal_for(0)
    frames, syncs = wal.frames_appended, wal.syncs
    backend.note_applied_group([0, 1], [0, 1, 2])
    assert wal.frames_appended == frames
    assert wal.syncs == syncs + 1
    assert wal.unsynced_bytes() == 0


# -- delta extraction ----------------------------------------------------------


def test_delta_extraction_ships_only_dirty_keys():
    backend = _wal_backend()
    backend.bind_worker(0)
    backend.create_bin(0)
    for i in range(10):
        backend.put(0, i, i)
    backend.note_applied(0)
    base = backend.extract_bin(0, remove=False)
    assert base.kind == "full"
    # Mutate a subset after the base snapshot.
    backend.put(0, 3, 33)
    backend.put(0, 10, 100)
    backend.delete(0, 7)
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
    backend.put(0, "a", 1)
    backend.note_applied(0)
    base = backend.extract_bin(0, remove=False)
    delta = backend.extract_bin(0, dirty_since=base.base_epoch, remove=False)
    assert delta.decode_state() == {}
    assert delta.deleted == ()


def test_delta_bytes_scale_with_dirty_fraction():
    """The acceptance line: 10% dirty ships < 25% of whole-bin bytes."""
    backend = _wal_backend()
    backend.bind_worker(0)
    backend.create_bin(0)
    for i in range(100):
        backend.put(0, i, i)
    backend.note_applied(0)
    base = backend.extract_bin(0, remove=False)
    for i in range(10):  # 10% of keys dirtied since the base snapshot
        backend.put(0, i, -i)
    delta = backend.extract_bin(0, dirty_since=base.base_epoch, remove=False)
    assert delta.size_bytes < 0.25 * base.size_bytes


def test_delta_bytes_grow_with_dirty_fraction_up_to_the_whole_bin():
    backend = _wal_backend()
    backend.bind_worker(0)
    backend.create_bin(0)
    for i in range(100):
        backend.put(0, i, i)
    backend.note_applied(0)
    base = backend.extract_bin(0, remove=False)
    sizes = []
    for dirty in (1, 5, 10, 25, 50, 100):  # percent, cumulatively dirtied
        for i in range(dirty):
            backend.put(0, i, -i)
        delta = backend.extract_bin(0, dirty_since=base.base_epoch, remove=False)
        assert delta.kind == "delta"
        sizes.append(delta.size_bytes)
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    # A fully dirtied bin ships (at least about) the whole bin again.
    assert sizes[-1] >= 0.9 * base.size_bytes


# -- compaction ----------------------------------------------------------------


def test_compaction_bounds_log_and_preserves_state():
    registry = WalRegistry()
    backend = _wal_backend(registry, compact_threshold=32)
    backend.bind_worker(0)
    backend.create_bin(0)
    for i in range(500):
        backend.put(0, i % 8, i)
        if i % 4 == 0:
            backend.note_applied(0)
    assert backend.compactions > 0
    # Post-compaction the log is one checkpoint frame per bin (plus any
    # writes since), far smaller than 500 put frames.
    frames, recovery = registry.wal_for(0).scan()
    assert recovery.clean
    assert len(frames) < 64
    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert dict(reborn.items(0)) == dict(backend.items(0))


def test_compact_writes_one_frame():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    for bin_id in range(6):
        backend.create_bin(bin_id)
        backend.put(bin_id, "k", bin_id)
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
    """Compaction keeps per-key dirty stamps: a delta extracted after a
    crash-and-replay still ships every write since its base."""
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.put(0, "a", 1)
    backend.note_applied(0)
    base = backend.extract_bin(0, remove=False).base_epoch
    backend.put(0, "b", 2)
    backend.note_applied(0)
    backend.compact()

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    delta = reborn.extract_bin(0, remove=False, dirty_since=base)
    assert delta.decode_state() == {"b": 2}
    assert reborn._states[0].dirty == backend._states[0].dirty


def test_delta_since_a_base_sees_writes_after_a_restart():
    """A base capture closes its epoch durably: the reborn epoch after a
    crash is above every base epoch handed out, so a delta since that base
    ships the writes made after the restart."""
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.put(0, "a", 1)
    backend.note_applied(0)
    base = backend.extract_bin(0, remove=False).base_epoch
    assert base == 1
    registry.apply_crash_faults([0], lose_unsynced_tail=True)

    reborn = _wal_backend(registry)
    reborn.bind_worker(0)
    assert reborn.current_epoch() > base
    reborn.put(0, "b", 2)
    delta = reborn.extract_bin(0, remove=False, dirty_since=base)
    assert delta.decode_state() == {"b": 2}


def test_three_field_checkpoint_still_replays():
    bins, max_epoch = replay_frames([(K_CKPT, (0, 4, {"a": 1}))], dict)
    assert bins[0].state == {"a": 1}
    assert bins[0].dirty == {}
    assert max_epoch == 4


def test_compacted_log_replays_checkpoint_frames():
    registry = WalRegistry()
    backend = _wal_backend(registry)
    backend.bind_worker(0)
    backend.create_bin(0)
    backend.put(0, "a", 1)
    backend.compact()
    frames, _ = registry.wal_for(0).scan()
    assert [k for k, _ in frames] == [K_CKPT]
    bins, _ = replay_frames(frames, dict)
    assert bins[0].state == {"a": 1}


# -- registry and options ------------------------------------------------------


def test_registry_isolates_workers():
    registry = WalRegistry()
    a = _wal_backend(registry)
    a.bind_worker(0)
    b = _wal_backend(registry)
    b.bind_worker(1)
    a.create_bin(0)
    a.put(0, "a", 1)
    assert registry.wal_for(1).total_bytes() == 0
    assert registry.workers() == [0, 1]


def test_crash_faults_are_deterministic_per_seed():
    def damaged_log(seed):
        registry = WalRegistry()
        backend = _wal_backend(registry)
        backend.bind_worker(0)
        backend.create_bin(0)
        for i in range(30):
            backend.put(0, i, i)
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
        WalBackend(dict, _size_fn, None, sync_every=0)
    with pytest.raises(ValueError):
        WorkerWal(0, segment_bytes=4)
