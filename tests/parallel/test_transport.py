"""Tests for the shared-memory ring and the cross-shard payload codec."""

from array import array

import pytest

from repro.parallel.domain import RemoteData
from repro.parallel.transport import ShmCodec, ShmRing, shm_supported
from repro.runtime_events.columns import ColumnBatch, numpy_active
from repro.runtime_events.items import DestinationBatch

np = pytest.importorskip("numpy") if shm_supported() else None

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="shm data plane needs numpy"
)


@pytest.fixture
def ring():
    r = ShmRing(256)
    yield r
    r.close()
    r.unlink()


def _entry(records, src=0, dst=1):
    return RemoteData(
        dst_domain=dst,
        delivery=1.0,
        src_seq=0,
        src_domain=src,
        channel_index=0,
        time=0,
        records=records,
        size_bytes=0,
        src_worker=0,
        dst_worker=2,
    )


# -- ShmRing ---------------------------------------------------------------


def test_ring_roundtrip(ring):
    ref = ring.write(b"hello world")
    assert ref is not None
    assert ring.read(ref) == b"hello world"


def test_ring_full_returns_none_and_ack_releases(ring):
    first = ring.write(b"x" * 200)
    assert first is not None
    assert ring.write(b"y" * 100) is None  # would overflow
    ring.ack(first.offset + first.length)
    ref = ring.write(b"y" * 100)
    assert ref is not None
    assert ring.read(ref) == b"y" * 100


def test_ring_wraparound_pads_to_boundary(ring):
    # Fill to offset 200, release, then write 100 bytes: the payload cannot
    # straddle the physical boundary at 256, so it pads and starts at 256.
    first = ring.write(b"a" * 200)
    ring.ack(first.offset + first.length)
    ref = ring.write(b"b" * 100)
    assert ref.offset == 256  # monotonic offset, physical position 0
    assert ring.read(ref) == b"b" * 100


def test_ring_write_all_rolls_back_when_full(ring):
    head_before = ring.head
    assert ring.write_all([b"a" * 100, b"b" * 100, b"c" * 100]) is None
    assert ring.head == head_before  # no partial allocation survives
    refs = ring.write_all([b"a" * 100, b"b" * 100])
    assert refs is not None
    assert [ring.read(r) for r in refs] == [b"a" * 100, b"b" * 100]


def test_ring_oversized_payload_rejected(ring):
    assert ring.write(b"z" * 512) is None


# -- ShmCodec --------------------------------------------------------------


def _codec_pair(capacity=1 << 16):
    ring = ShmRing(capacity)
    writer = ShmCodec({(0, 1): ring})
    reader = ShmCodec({(0, 1): ring})
    return ring, writer, reader


def test_codec_column_batch_roundtrip():
    if not numpy_active():
        pytest.skip("columnar representation inactive")
    ring, writer, reader = _codec_pair()
    try:
        batch = ColumnBatch(
            np.arange(64, dtype=np.int64), np.ones(64, dtype=np.int64)
        )
        entry = _entry(batch)
        writer.encode_entry(entry)
        assert writer.encoded == 1
        assert type(entry.records) is not ColumnBatch  # envelope stand-in
        reader.decode_entry(entry)
        out = entry.records
        assert type(out) is ColumnBatch
        assert np.array_equal(out.keys, np.arange(64))
        assert np.array_equal(out.vals, np.ones(64))
    finally:
        ring.close()
        ring.unlink()


def test_codec_destination_batch_roundtrip():
    if not numpy_active():
        pytest.skip("columnar representation inactive")
    ring, writer, reader = _codec_pair()
    try:
        columns = ColumnBatch(
            np.arange(8, dtype=np.int64), np.arange(8, dtype=np.int64)
        )
        dest = DestinationBatch(
            dst=3,
            count=8,
            bins=None,
            bin_ids=np.arange(8, dtype=np.int64),
            columns=columns,
            tag=7,
        )
        entry = _entry([dest])
        writer.encode_entry(entry)
        assert writer.encoded == 1
        reader.decode_entry(entry)
        [out] = entry.records
        assert type(out) is DestinationBatch
        assert out.dst == 3 and out.count == 8 and out.tag == 7
        assert np.array_equal(out.bin_ids, np.arange(8))
        assert np.array_equal(out.columns.keys, np.arange(8))
    finally:
        ring.close()
        ring.unlink()


def test_codec_leaves_array_batches_to_pickle():
    """Small batches are stdlib arrays: not buffer-shippable, so they ride
    the envelope's pickle untouched next to ndarray batches that take the
    ring — and still compare equal after a pickle round trip."""
    import pickle

    ring, writer, reader = _codec_pair()
    try:
        small = ColumnBatch.from_records([(1, 10), (2, 20)])
        assert not isinstance(small.keys, np.ndarray)
        assert small.to_buffers() is None
        small_dest = DestinationBatch(
            dst=1, count=2, bin_ids=array("q", [4, 5]), columns=small, tag=0
        )
        large_dest = DestinationBatch(
            dst=2,
            count=8,
            bin_ids=np.arange(8, dtype=np.int64),
            columns=ColumnBatch(
                np.arange(8, dtype=np.uint64), np.ones(8, dtype=np.int64)
            ),
            tag=0,
        )
        entry = _entry([small_dest, large_dest])
        writer.encode_entry(entry)
        assert writer.encoded == 1
        assert entry.records[0] is small_dest  # untouched: plain pickle path
        entry.records = pickle.loads(pickle.dumps(entry.records))
        reader.decode_entry(entry)
        out_small, out_large = entry.records
        assert out_small.columns.to_records() == [(1, 10), (2, 20)]
        assert out_small.bin_ids == array("q", [4, 5])
        assert np.array_equal(out_large.columns.keys, np.arange(8))
    finally:
        ring.close()
        ring.unlink()


def test_codec_falls_back_when_ring_full():
    ring, writer, reader = _codec_pair(capacity=64)
    try:
        big = ColumnBatch(
            np.arange(1024, dtype=np.int64), np.arange(1024, dtype=np.int64)
        )
        entry = _entry(big)
        writer.encode_entry(entry)
        assert writer.fallback == 1
        assert entry.records is big  # untouched: plain pickle path
        reader.decode_entry(entry)  # decode of a non-envelope is a no-op
        assert entry.records is big
    finally:
        ring.close()
        ring.unlink()


def test_codec_ignores_pairs_without_ring():
    _, writer, _ = _codec_pair()
    entry = _entry(["plain"], src=2, dst=3)  # no (2, 3) ring
    writer.encode_entry(entry)
    assert writer.encoded == 0 and writer.fallback == 0
    assert entry.records == ["plain"]


def test_codec_ack_relay_releases_writer_space():
    ring, writer, reader = _codec_pair(capacity=2048)
    try:
        batch = ColumnBatch(
            np.arange(64, dtype=np.int64), np.arange(64, dtype=np.int64)
        )
        entry = _entry(batch)
        writer.encode_entry(entry)
        reader.decode_entry(entry)
        acks = reader.take_acks()
        assert acks == {(0, 1): ring.head}
        assert reader.take_acks() == {}  # drained
        writer.apply_acks(acks)
        assert ring.tail == ring.head  # space fully released
    finally:
        ring.close()
        ring.unlink()
