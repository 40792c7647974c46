"""Property test: F's columnar router == the per-record reference router.

Random batches — plain record lists, or encoded into a :class:`ColumnBatch`
— are pushed through F's router (``_FLogic._route_batch``) and through the
per-record oracle in ``tests/megaphone/reference_router.py``, and the
emitted destination batches are decoded back and compared: same
destination emission order, same per-destination record counts, same
per-bin grouping with entries in arrival order.

Batch lengths straddle ``SMALL_BATCH_CUTOFF`` (0 … 4x), so the per-batch
rule picks both representations; a column batch may also be forced into
either one whatever its length, both value kinds (``kv``, ``obj``) are
drawn, and the whole property reruns without numpy.  Both the steady-state
owners path and the memoized ``worker_for`` path (forced by a pending
migration marker) are exercised, with bin counts on both sides of the
16-bit sort bound (up to 2**17).  A second property carries the routed
segments on through S's ``merge_segments`` (bounded by the bin count, as S
calls it) + ``columnar_count_fold`` and compares with the per-record fold
over the oracle's per-bin entry lists.
A third routes keys outside ``[0, 2**64)``, which F masks to 64 bits.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.workloads import ModeledCountState, columnar_count_fold, count_fold
from repro.megaphone.control import BinnedConfiguration, bin_of
from repro.megaphone.operators import MegaphoneConfig, _FLogic
from repro.runtime_events import columns
from repro.runtime_events.columns import KIND_KV, KIND_OBJ, MASK64, ColumnBatch, ColumnGroup
from tests.megaphone.reference_router import reference_route


class _RecordingCtx:
    """The only pieces of the operator context routing touches."""

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self.sent: list = []

    def send(self, port: int, time, records) -> None:
        assert port == 0
        self.sent.append((time, records))


def _make_logic(num_bins: int, num_workers: int, pending: bool) -> _FLogic:
    config = MegaphoneConfig(
        name="prop",
        num_bins=num_bins,
        initial=BinnedConfiguration.round_robin(num_bins, num_workers),
        key_fns=[lambda r: r[0], lambda r: r[0]],
        applier=lambda app: None,
        state_factory=dict,
        state_size_fn=None,
    )
    logic = _FLogic(config, worker_id=0)
    if pending:
        # A non-empty pending-migration list forces F's memoized
        # ``worker_for`` owner resolution without changing any ownership
        # (the table history is still flat).
        logic._pending_migrations.append(((99.0,), []))
    return logic


def _route_both(num_bins, num_workers, pending, batches) -> tuple:
    """Route ``[(port_tag, batch), ...]`` through F and the oracle; returns
    both recording contexts."""
    logic = _make_logic(num_bins, num_workers, pending)
    oracle = _make_logic(num_bins, num_workers, pending)
    f_ctx = _RecordingCtx(num_workers)
    oracle_ctx = _RecordingCtx(num_workers)
    for port_tag, batch in batches:
        logic._route_batch(f_ctx, (1.0,), port_tag, batch)
        reference_route(oracle, oracle_ctx, (1.0,), port_tag, batch)
    return f_ctx, oracle_ctx


def _decode(sent: list) -> list:
    """Normalize emitted DestinationBatch lists into comparable structure.

    Returns ``[(dst, count, [(bin, [(tag, record), ...]), ...])]``
    preserving emission order, bin first-occurrence order, and per-bin
    record arrival order.
    """
    out = []
    for _time, batches in sent:
        for db in batches:
            assert len(db.bin_ids) == len(db.columns) == db.count
            bins: dict[int, list] = {}
            for bin_id, record in zip(db.bin_ids, db.columns.to_records()):
                bins.setdefault(int(bin_id), []).append((db.tag, record))
            out.append((db.dst, db.count, list(bins.items())))
    return out


_RECORDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    ),
    max_size=4 * columns.SMALL_BATCH_CUTOFF,
)
# None: the per-batch rule decides by length.
_FORCED = st.sampled_from([None, "array", "numpy"])


def _encode(records: list, kind: str, forced) -> ColumnBatch:
    """``records`` as a batch of ``kind``; ``forced`` overrides the
    length-based choice of representation (numpy only where available)."""
    keys = [r[0] for r in records]
    if kind == KIND_OBJ:
        batch = ColumnBatch.from_objects(records, keys)
    else:
        batch = ColumnBatch.from_records(records)
    np = columns._np
    if forced == "numpy" and np is not None:
        batch.keys = np.asarray(keys, dtype=np.uint64)
        if kind == KIND_KV:
            batch.vals = np.asarray([r[1] for r in records], dtype=np.int64)
    elif forced == "array":
        batch.keys = array("Q", keys)
        if kind == KIND_KV:
            batch.vals = array("q", [r[1] for r in records])
    return batch


# The fixture only swaps a module global that stays put for every example.
_FIXTURE_OK = [HealthCheck.function_scoped_fixture]


@pytest.fixture(params=["per-batch", "fallback"])
def representation(request, monkeypatch):
    """The per-batch rule with numpy present, and numpy absent."""
    if request.param == "fallback":
        monkeypatch.setattr(columns, "_np", None)
    return request.param


@pytest.mark.parametrize("pending", [False, True])
@settings(
    max_examples=60, deadline=None, suppress_health_check=_FIXTURE_OK, derandomize=True
)
@given(
    records=_RECORDS,
    kind=st.sampled_from(["list", KIND_KV, KIND_OBJ]),
    forced=_FORCED,
    num_bins=st.sampled_from([1, 16, 256, 2**16, 2**17]),
    num_workers=st.integers(min_value=1, max_value=8),
    port_tag=st.integers(min_value=0, max_value=1),
)
def test_columnar_routing_matches_reference(
    representation, pending, records, kind, forced, num_bins, num_workers, port_tag
):
    batch = list(records) if kind == "list" else _encode(records, kind, forced)
    f_ctx, oracle_ctx = _route_both(
        num_bins, num_workers, pending, [(port_tag, batch)]
    )
    assert len(f_ctx.sent) <= 1
    assert _decode(f_ctx.sent) == _decode(oracle_ctx.sent)
    total = sum(db.count for _t, bs in f_ctx.sent for db in bs)
    assert total == len(records)
    # Routed slices keep the representation of the batch they were cut
    # from; a list is columnised by the per-batch rule.
    if kind == "list":
        batch = ColumnBatch.from_objects(records, [r[0] for r in records])
    for _time, batches in f_ctx.sent:
        for db in batches:
            assert type(db.columns.keys) is type(batch.keys)
            assert type(db.bin_ids) is type(columns.bin_ids_for(batch.keys, 60))


@pytest.mark.parametrize("pending", [False, True])
@settings(
    max_examples=40, deadline=None, suppress_health_check=_FIXTURE_OK, derandomize=True
)
@given(
    sources=st.lists(st.tuples(_RECORDS, _FORCED), min_size=1, max_size=4),
    num_bins=st.sampled_from([1, 16, 256, 2**16, 2**17]),
    num_workers=st.integers(min_value=1, max_value=4),
)
def test_routed_segments_merge_and_fold_like_the_per_record_path(
    representation, pending, sources, num_bins, num_workers
):
    """Several sources' batches — any mix of representations — through F,
    then S's merge + counting fold per destination, against the per-record
    fold over the per-bin entry lists the oracle's routing implies."""
    f_ctx, oracle_ctx = _route_both(
        num_bins,
        num_workers,
        pending,
        [(0, _encode(records, KIND_KV, forced)) for records, forced in sources],
    )
    # What S holds at notification: per destination, F's segments in
    # arrival order on one side, per-bin entry lists on the other.
    segments: dict[int, list] = {}
    for _time, batches in f_ctx.sent:
        for db in batches:
            segments.setdefault(db.dst, []).append((db.tag, db.bin_ids, db.columns))
    inboxes: dict[int, dict] = {}
    for dst, _count, bins in _decode(oracle_ctx.sent):
        inbox = inboxes.setdefault(dst, {})
        for bin_id, entries in bins:
            inbox.setdefault(bin_id, []).extend(entries)
    assert sorted(segments) == sorted(inboxes)
    for dst, inbox in inboxes.items():
        merged, ubins, starts = columns.merge_segments(segments[dst], num_bins)
        assert ubins == sorted(inbox)
        states = [ModeledCountState(expected_keys=2.5) for _ in ubins]
        group = ColumnGroup((1.0,), merged.keys, merged.vals, ubins, starts, states, dst)
        folded = columnar_count_fold(group).to_records()
        oracle = []
        for j, bin_id in enumerate(ubins):
            state = ModeledCountState(expected_keys=2.5)
            for _tag, (key, diff) in inbox[bin_id]:
                oracle.extend(count_fold(key, diff, state))
            assert states[j].records == state.records
        assert folded == oracle


# Keys on both sides of the unsigned 64-bit range, and inside it.
_WIDE_KEYS = st.one_of(
    st.integers(min_value=-(2**80), max_value=-1),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(min_value=0, max_value=2**64 - 1),
)


@pytest.mark.parametrize("pending", [False, True])
@settings(
    max_examples=40, deadline=None, suppress_health_check=_FIXTURE_OK, derandomize=True
)
@given(
    keys=st.lists(_WIDE_KEYS, max_size=4 * columns.SMALL_BATCH_CUTOFF),
    num_bins=st.sampled_from([16, 256]),
    num_workers=st.integers(min_value=1, max_value=8),
)
def test_out_of_range_keys_route_by_the_unmasked_key(
    representation, pending, keys, num_bins, num_workers
):
    """An exchange function may return negative ints or ints >= 2**64 (a
    salted ``hash``, a wide id).  F masks them into its unsigned key column,
    and each record lands in the bin the scalar splitmix64 gives for the
    unmasked key."""
    records = [(key, f"r{i}") for i, key in enumerate(keys)]
    f_ctx, oracle_ctx = _route_both(num_bins, num_workers, pending, [(0, records)])
    assert _decode(f_ctx.sent) == _decode(oracle_ctx.sent)
    routed = {}
    for _dst, _count, bins in _decode(f_ctx.sent):
        for bin_id, entries in bins:
            for _tag, record in entries:
                routed[record[1]] = (bin_id, record[0])
    assert len(routed) == len(records)
    for bin_id, key in routed.values():
        assert bin_id == bin_of(key, num_bins)
        assert bin_id == bin_of(key & MASK64, num_bins)
