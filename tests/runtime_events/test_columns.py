"""Unit tests of the columnar batch kernels (both representations).

Every kernel in ``repro.runtime_events.columns`` carries a bit-exactness
contract against its scalar reference.  The representation is chosen per
batch by length, so the kernel tests run three ways: every batch numpy
(cutoff 0), every batch a stdlib ``array`` with numpy present (cutoff
10**9), and numpy absent (the module-global ``_numpy_available``
monkeypatched to ``False``) — the optional dependency can disappear without
changing a single simulated bit.  The selection rule itself (born by
length, derived columns inherit, mixed inputs normalise to numpy) is pinned
at the default cutoff.  The module imports numpy only when a column needs
it, so the numpy columns below are built with this file's own import: a
kernel must recognise an ndarray by its type, whether or not ``columns``
has loaded numpy yet.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.openloop import Lcg
from repro.harness.workloads import ModeledCountState, columnar_count_fold, count_fold
from repro.runtime_events import columns
from repro.runtime_events.columns import ColumnBatch, ColumnGroup, VectorLcg
from repro.runtime_events.items import DestinationBatch, batch_record_count

try:
    import numpy as np
except ImportError:
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")


@pytest.fixture(params=["numpy", "array", "fallback"])
def representation(request, monkeypatch):
    """Run a test with every batch numpy, every batch an array, and
    without numpy."""
    if request.param == "fallback":
        monkeypatch.setattr(columns, "_numpy_available", False)
    else:
        cutoff = 0 if request.param == "numpy" else 10**9
        monkeypatch.setattr(columns, "SMALL_BATCH_CUTOFF", cutoff)
    return request.param


def _scalar_bin(key: int, shift: int) -> int:
    mask = (1 << 64) - 1
    value = (key + 0x9E3779B97F4A7C15) & mask
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask
    return (value ^ (value >> 31)) >> shift


def test_roundtrip_kv(representation):
    records = [(7, 1), (2**63 + 5, -3), (0, 1), (123456789, 42)]
    batch = ColumnBatch.from_records(records)
    assert len(batch) == 4
    assert batch.to_records() == records
    assert list(batch) == records
    assert batch.key_list() == [r[0] for r in records]
    assert batch_record_count(batch) == 4


def test_roundtrip_objects(representation):
    objs = ["a", "b", "c"]
    batch = ColumnBatch.from_objects(objs, [10, 20, 30])
    assert batch.to_records() == objs
    assert batch.key_list() == [10, 20, 30]


def test_take_and_slice(representation):
    records = [(k, k * 2) for k in range(10)]
    batch = ColumnBatch.from_records(records)
    sel = columns.make_index_vector([1, 3, 5])
    taken = batch.take(sel)
    assert taken.to_records() == [records[1], records[3], records[5]]
    sliced = batch.slice(2, 5)
    assert sliced.to_records() == records[2:5]


def test_concat(representation):
    a = ColumnBatch.from_records([(1, 1), (2, 1)])
    b = ColumnBatch.from_records([(3, 1)])
    merged = ColumnBatch.concat([a, b])
    assert merged.to_records() == [(1, 1), (2, 1), (3, 1)]


def test_bin_ids_match_scalar_splitmix(representation):
    keys = [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15, 424242, 2**63]
    shift = 64 - 8  # 256 bins
    batch = ColumnBatch.from_kv(keys, [1] * len(keys))
    got = list(columns.bin_ids_for(batch.keys, shift))
    assert [int(b) for b in got] == [_scalar_bin(k, shift) for k in keys]


def test_bin_ids_single_bin(representation):
    batch = ColumnBatch.from_kv([5, 6], [1, 1])
    assert [int(b) for b in columns.bin_ids_for(batch.keys, 64)] == [0, 0]


def test_vector_lcg_matches_scalar(representation):
    seed = 1000003 * 7 + 3
    scalar = Lcg(seed)
    vector = VectorLcg(seed)
    expected = [scalar.next() for _ in range(40)]
    got = list(vector.next_batch(25)) + list(vector.next_batch(15))
    assert [int(v) for v in got] == expected


def test_vector_lcg_empty_batch(representation):
    vector = VectorLcg(9)
    assert len(vector.next_batch(0)) == 0


def test_split_by_destination_first_occurrence_order(representation):
    dsts = columns.make_index_vector([2, 0, 2, 1, 0, 2])
    order, bounds = columns.split_by_destination(dsts)
    assert [dst for dst, _lo, _hi in bounds] == [2, 0, 1]
    seen = []
    for dst, lo, hi in bounds:
        positions = [int(order[i]) for i in range(lo, hi)]
        # Within a destination, arrival order is preserved.
        assert positions == sorted(positions)
        seen.extend(positions)
    assert sorted(seen) == list(range(6))


def test_split_by_destination_single_destination(representation):
    dsts = columns.make_index_vector([3, 3, 3])
    order, bounds = columns.split_by_destination(dsts)
    assert order is None
    assert bounds == [(3, 0, 3)]


def test_split_by_destination_empty(representation):
    order, bounds = columns.split_by_destination(columns.make_index_vector([]))
    assert order is None
    assert bounds == []


def test_group_by_bin_sorted(representation):
    bins = columns.make_index_vector([5, 1, 5, 1, 9])
    order, ubins, starts = columns.group_by_bin_sorted(bins)
    assert ubins == [1, 5, 9]
    assert starts == [0, 2, 4, 5]
    assert [int(order[i]) for i in range(5)] == [1, 3, 0, 2, 4]


def test_group_by_bin_sorted_empty(representation):
    order, ubins, starts = columns.group_by_bin_sorted(
        columns.make_index_vector([])
    )
    assert list(order) == []
    assert ubins == []
    assert starts == [0]


# -- bounded sorts: the 16-bit path and the 64-bit one ---------------------------

# Values around the 16-bit line.  Under the bound 2**16 every value fits and
# the kernels sort a 16-bit copy; under 2**17 they must keep the 64-bit sort,
# or 2**16 + v would sort as v.
_FITS_16 = [0, 1, 2, 2**15 - 2, 2**15 - 1, 2**15, 2**15 + 1, 2**16 - 2, 2**16 - 1]
_PAST_16 = [*_FITS_16, 2**16, 2**16 + 1, 2**16 + 2**15, 2**17 - 1]
_LONGEST = 4 * columns.SMALL_BATCH_CUTOFF
_BOUNDED = st.one_of(
    st.tuples(
        st.sampled_from([2**16, None]),
        st.lists(st.sampled_from(_FITS_16), min_size=1, max_size=_LONGEST),
    ),
    st.tuples(
        st.just(2**17),
        st.lists(st.sampled_from(_PAST_16), min_size=1, max_size=_LONGEST),
    ),
)


@needs_numpy
@settings(max_examples=200, deadline=None, derandomize=True)
@given(column=_BOUNDED)
def test_bounded_sorts_match_the_stable_oracle(column):
    """numpy bin and destination columns, with or without a bound, group
    exactly like a stable Python sort: ascending bins (first-occurrence
    destinations), arrival order inside each run, Python ints out."""
    bound, values = column
    col = np.asarray(values, dtype=np.int64)
    n = len(values)
    ascending = sorted(values)

    order, ubins, starts = columns.group_by_bin_sorted(col, bound)
    assert order.tolist() == sorted(range(n), key=values.__getitem__)
    assert ubins == sorted(set(values))
    assert all(type(b) is int for b in ubins)
    assert starts == [ascending.index(b) for b in ubins] + [n]

    order, bounds = columns.split_by_destination(col, bound)
    firsts = list(dict.fromkeys(values))
    assert [dst for dst, _lo, _hi in bounds] == firsts
    assert all(type(dst) is int for dst, _lo, _hi in bounds)
    if len(firsts) == 1:
        assert order is None and bounds == [(values[0], 0, n)]
        return
    for dst, lo, hi in bounds:
        assert order[lo:hi].tolist() == [i for i in range(n) if values[i] == dst]


@needs_numpy
@pytest.mark.parametrize(
    "n", [1, 2, columns.SMALL_BATCH_CUTOFF - 1, 4 * columns.SMALL_BATCH_CUTOFF]
)
@pytest.mark.parametrize("value,bound", [(0, 4), (2**16 - 1, 2**16), (2**16, 2**17)])
def test_bounded_sorts_of_one_bin_or_destination(n, value, bound):
    col = np.full(n, value, dtype=np.int64)
    assert columns.split_by_destination(col, bound) == (None, [(value, 0, n)])
    order, ubins, starts = columns.group_by_bin_sorted(col, bound)
    assert order.tolist() == list(range(n))
    assert ubins == [value] and starts == [0, n]


def _count_group(sizes: list, before: list, populations: list, numpy_repr: bool):
    """A bin-sorted group of unit records, ``sizes[j]`` in bin ``j``, whose
    states hold ``before[j]`` records of ``populations[j]`` keys."""
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + size)
    total = starts[-1]
    if numpy_repr:
        keys = np.arange(total, dtype=np.uint64)
        vals = np.ones(total, dtype=np.int64)
    else:
        keys, vals = array("Q", range(total)), array("q", [1]) * total
    states = []
    for records, expected in zip(before, populations):
        state = ModeledCountState(expected_keys=expected)
        state.records = records
        states.append(state)
    return ColumnGroup((0,), keys, vals, list(range(len(sizes))), starts, states, 0)


# Per bin: records in the group, records before it, and its key population
# (zero and negative populations are the fold's per-record corner).
_FOLD_BINS = st.lists(
    st.tuples(
        st.integers(1, 3 * columns.SMALL_BATCH_CUTOFF),
        st.integers(0, 40),
        st.sampled_from([1.5, 2.5, 7.0, 1e9, 0.0, -2.0]),
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(bins=_FOLD_BINS, shared=st.booleans(), numpy_repr=st.booleans())
def test_count_fold_matches_the_per_record_fold(bins, shared, numpy_repr):
    """The columnar fold equals ``count_fold`` record by record — with one
    population shared by every bin or one per bin, records already folded,
    the ``expected_keys <= 0`` corner, an empty group, both
    representations — and leaves the same per-bin record counts."""
    numpy_repr = numpy_repr and np is not None
    sizes = [size for size, _before, _pop in bins]
    before = [records for _size, records, _pop in bins]
    populations = [pop for _size, _before, pop in bins]
    if shared and populations:
        populations = [populations[0]] * len(populations)
    group = _count_group(sizes, before, populations, numpy_repr)
    folded = columnar_count_fold(group)
    assert columns.is_numpy_column(folded.vals) == numpy_repr
    oracle_states = _count_group(sizes, before, populations, False).states
    oracle = []
    key = 0
    for size, state in zip(sizes, oracle_states):
        for _ in range(size):
            oracle.extend(count_fold(key, 1, state))
            key += 1
    assert folded.to_records() == oracle
    assert [s.records for s in group.states] == [s.records for s in oracle_states]


def test_active_representation_names():
    assert columns.active_representation() in (
        "columnar-numpy",
        "columnar-array",
    )


def test_fallback_representation_name(monkeypatch):
    monkeypatch.setattr(columns, "_numpy_available", False)
    assert columns.active_representation() == "columnar-array"
    assert not columns.numpy_active()


def test_fallback_columns_are_stdlib_arrays(monkeypatch):
    """Without numpy everything is an array, whatever the length."""
    monkeypatch.setattr(columns, "_numpy_available", False)
    for n in (2, 4 * columns.SMALL_BATCH_CUTOFF):
        records = [(k, k + 1) for k in range(n)]
        batch = ColumnBatch.from_records(records)
        assert isinstance(batch.keys, array)
        assert isinstance(batch.vals, array)
        assert batch.to_records() == records
        assert isinstance(columns.ones_column(n), array)
        assert isinstance(VectorLcg(1).next_batch(n), array)
        assert isinstance(columns.make_index_vector(range(n)), list)
    assert "numpy absent" in columns.describe_representation()


def test_import_without_numpy_selects_fallback(monkeypatch):
    """With numpy unimportable, the first large column's failed import
    lands on the fallback, and every later column is an ``array``.

    Loaded under a throwaway name so the shared module object (and every
    ``from columns import ...`` binding elsewhere) stays untouched.
    """
    import importlib.util
    import sys

    monkeypatch.setitem(sys.modules, "numpy", None)
    spec = importlib.util.spec_from_file_location(
        "repro_columns_no_numpy", columns.__file__
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._np is None
    # A numpy that ``find_spec`` finds but that fails to import (a shadow
    # package, a broken install): the first large column tries the import.
    module._numpy_available = True
    assert module.numpy_active()
    records = [(k, k + 1) for k in range(4 * module.SMALL_BATCH_CUTOFF)]
    for batch in (
        module.ColumnBatch.from_records(records),
        module.ColumnBatch.from_records(records[:2]),
    ):
        assert isinstance(batch.keys, array)
        assert batch.to_records() == records[: len(batch)]
        assert not module._numpy_available
    assert module._np is None
    assert module.active_representation() == "columnar-array"
    assert not module.numpy_active()


def test_destination_batch_count_over_mixed_layouts(representation):
    # A (key, val) column batch and a batch of records F columnised.
    kv = ColumnBatch.from_records([(1, 1), (2, 1), (3, 1)])
    objs = ColumnBatch.from_objects([("x", 9), ("y", 9)], [9, 9])
    grouped = [
        DestinationBatch(
            dst=0, count=3, bin_ids=columns.bin_ids_for(kv.keys, 60), columns=kv
        ),
        DestinationBatch(
            dst=1, count=2, bin_ids=columns.bin_ids_for(objs.keys, 60),
            columns=objs, tag=1,
        ),
    ]
    assert batch_record_count(grouped) == 5
    assert batch_record_count([(1, 1), (2, 1)]) == 2


# -- the per-batch selection rule (default cutoff) --------------------------------


def _is_array_batch(batch: ColumnBatch) -> bool:
    return isinstance(batch.keys, array) and isinstance(batch.vals, (array, list))


@needs_numpy
def test_columns_are_born_by_length():
    cutoff = columns.SMALL_BATCH_CUTOFF
    assert str(cutoff) in columns.describe_representation()
    for n, small in ((1, True), (cutoff - 1, True), (cutoff, False), (4 * cutoff, False)):
        born = [
            ColumnBatch.from_kv(range(n), range(n)).keys,
            ColumnBatch.from_records([(k, 1) for k in range(n)]).vals,
            ColumnBatch.from_objects(["x"] * n, list(range(n))).keys,
            columns.ones_column(n),
            VectorLcg(3).next_batch(n),
        ]
        for column in born:
            assert isinstance(column, array) == small
            assert columns.is_numpy_column(column) != small
        assert isinstance(columns.make_index_vector(list(range(n))), list) == small


@needs_numpy
def test_vector_lcg_stream_is_independent_of_batch_representation():
    cutoff = columns.SMALL_BATCH_CUTOFF
    scalar = Lcg(11)
    vector = VectorLcg(11)
    sizes = [3, cutoff, cutoff - 1, 2 * cutoff, 1]
    got = [int(v) for n in sizes for v in vector.next_batch(n)]
    assert got == [scalar.next() for _ in range(sum(sizes))]


@needs_numpy
def test_derived_columns_inherit_their_input_representation():
    cutoff = columns.SMALL_BATCH_CUTOFF
    small = ColumnBatch.from_kv(range(cutoff - 1), range(cutoff - 1))
    large = ColumnBatch.from_kv(range(4 * cutoff), range(4 * cutoff))
    long_sel = list(range(cutoff - 1)) * 4  # longer than the cutoff
    assert _is_array_batch(small.take(long_sel))
    assert _is_array_batch(small.take(columns.make_index_vector(long_sel)))
    assert _is_array_batch(small.slice(1, 3))
    assert isinstance(columns.bin_ids_for(small.keys, 60), array)
    assert isinstance(columns.mod_column(small.keys, 7), array)
    assert isinstance(columns.gather([5, 6, 7], array("q", [2, 0])), array)
    for derived in (large.take([0, 1]), large.slice(0, 2)):
        assert columns.is_numpy_column(derived.keys)
        assert columns.is_numpy_column(derived.vals)
    assert columns.is_numpy_column(columns.bin_ids_for(large.slice(0, 2).keys, 60))
    assert columns.is_numpy_column(columns.mod_column(large.keys[:2], 7))


@needs_numpy
def test_mixed_inputs_normalise_to_numpy():
    cutoff = columns.SMALL_BATCH_CUTOFF
    small = ColumnBatch.from_records([(1, 10), (2, 20)])
    large = ColumnBatch.from_records([(k, k) for k in range(100, 100 + cutoff)])
    for parts in ([small, large], [large, small]):
        merged = ColumnBatch.concat(parts)
        assert columns.is_numpy_column(merged.keys)
        assert columns.is_numpy_column(merged.vals)
        assert merged.to_records() == parts[0].to_records() + parts[1].to_records()
    assert _is_array_batch(ColumnBatch.concat([small, small]))
    owners = np.asarray([4, 5, 6], dtype=np.int64)
    assert columns.gather(owners, array("q", [2, 0])).tolist() == [6, 4]
    assert columns.is_numpy_column(columns.gather(owners, array("q", [2, 0])))
    assert columns.gather([4, 5, 6], np.asarray([2, 0])).tolist() == [6, 4]
    assert columns.is_numpy_column(columns.gather([4, 5, 6], np.asarray([2, 0])))


@needs_numpy
@pytest.mark.parametrize("n", [3, 4 * columns.SMALL_BATCH_CUTOFF])
def test_kernels_take_handed_ndarrays_before_numpy_is_loaded(monkeypatch, n):
    """ndarrays a caller built before ``columns`` imported numpy take the
    numpy path of every kernel, short or long, and match the array oracle."""
    monkeypatch.setattr(columns, "_np", None)  # not loaded yet
    keys = [(k * 0x9E3779B97F4A7C15) % 2**64 for k in range(n)]
    small = ColumnBatch(array("Q", keys), array("q", range(n)))
    large = ColumnBatch(np.asarray(keys, dtype=np.uint64), np.arange(n, dtype=np.int64))
    bins = columns.bin_ids_for(large.keys, 60)
    assert columns._np is np  # the kernel loaded it
    assert isinstance(bins, np.ndarray)
    assert bins.tolist() == list(columns.bin_ids_for(small.keys, 60))
    assert bins.tolist() == [_scalar_bin(k, 60) for k in keys]

    monkeypatch.setattr(columns, "_np", None)
    dsts = np.asarray([b % 3 for b in bins.tolist()], dtype=np.int64)
    def runs(order, bounds) -> list:
        """Each destination, in emission order, with its record positions."""
        if order is None:
            return [(dst, list(range(lo, hi))) for dst, lo, hi in bounds]
        return [(dst, [int(i) for i in order[lo:hi]]) for dst, lo, hi in bounds]

    order, bounds = columns.split_by_destination(dsts, 3)
    assert runs(order, bounds) == runs(*columns.split_by_destination(dsts.tolist()))

    monkeypatch.setattr(columns, "_np", None)
    order, ubins, starts = columns.group_by_bin_sorted(bins, 16)
    oracle = columns.group_by_bin_sorted(array("q", bins.tolist()))
    assert (order.tolist(), ubins, starts) == (list(oracle[0]), oracle[1], oracle[2])

    for call, expected in (
        (lambda: columns.mod_column(large.keys, 7), [k % 7 for k in keys]),
        (lambda: columns.gather([5, 6, 7, 8], dsts), [[5, 6, 7, 8][d] for d in dsts.tolist()]),
        (lambda: columns.ColumnBatch.concat([small, large]).keys, keys + keys),
        (lambda: large.take(order).keys, [keys[i] for i in order.tolist()]),
    ):
        monkeypatch.setattr(columns, "_np", None)
        column = call()
        assert isinstance(column, np.ndarray)
        assert column.tolist() == expected

    monkeypatch.setattr(columns, "_np", None)
    merged, ubins, starts = columns.merge_segments(
        [(0, bins, large), (0, array("q", bins.tolist()), small)], 16
    )
    assert isinstance(merged.keys, np.ndarray)
    arrivals = sorted(
        [*zip(bins.tolist(), large.to_records()), *zip(bins.tolist(), small.to_records())],
        key=lambda pair: pair[0],
    )
    assert merged.to_records() == [record for _bin, record in arrivals]


def _as_representation(batch: ColumnBatch, bins, numpy_repr: bool):
    """``(bin_ids, batch)`` rebuilt in one representation, whatever its length."""
    keys, vals = batch.key_list(), batch.vals
    if numpy_repr:
        vals = vals if batch.kind == columns.KIND_OBJ else np.asarray(vals, dtype=np.int64)
        return (
            np.asarray(bins, dtype=np.int64),
            ColumnBatch(np.asarray(keys, dtype=np.uint64), vals, batch.kind),
        )
    vals = vals if batch.kind == columns.KIND_OBJ else array("q", vals)
    return array("q", bins), ColumnBatch(array("Q", keys), vals, batch.kind)


# Per segment: the bin of each record (so its length, 0 … 4x the cutoff)
# and whether the segment is numpy.
_SEGMENTS = st.lists(
    st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=7),
            max_size=4 * columns.SMALL_BATCH_CUTOFF,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shapes=_SEGMENTS,
    kind=st.sampled_from([columns.KIND_KV, columns.KIND_OBJ]),
)
def test_merge_and_count_fold_match_per_record_oracle(shapes, kind):
    """S's merge + fold over any mix of array/ndarray segments equals the
    per-record path: bins ascending, arrival order within a bin, the same
    counts and the same final states."""
    segments = []
    arrivals = []  # (bin, record) in segment-arrival order
    next_key = 0
    for bins, numpy_repr in shapes:
        keys = list(range(next_key, next_key + len(bins)))
        next_key += len(bins)
        if kind == columns.KIND_KV:
            batch = ColumnBatch.from_kv(keys, [1] * len(keys))
        else:
            batch = ColumnBatch.from_objects([f"r{k}" for k in keys], keys)
        bin_col, batch = _as_representation(batch, bins, numpy_repr and np is not None)
        segments.append((0, bin_col, batch))
        arrivals.extend(zip(bins, batch.to_records()))
    batch, ubins, starts = columns.merge_segments(segments)
    expected = sorted(arrivals, key=lambda pair: pair[0])  # stable: arrival order
    assert batch.to_records() == [record for _bin, record in expected]
    assert ubins == sorted({b for b, _r in arrivals})
    assert [starts[j + 1] - starts[j] for j in range(len(ubins))] == [
        sum(1 for b, _r in arrivals if b == ubin) for ubin in ubins
    ]
    # numpy wins a mix.
    assert columns.is_numpy_column(batch.keys) == any(
        columns.is_numpy_column(seg[2].keys) for seg in segments
    )
    if kind != columns.KIND_KV:
        return
    # The fold: expected_keys small enough that counts actually grow.
    states = [ModeledCountState(expected_keys=1.5) for _ in ubins]
    oracle_states = {b: ModeledCountState(expected_keys=1.5) for b in ubins}
    group = ColumnGroup((0,), batch.keys, batch.vals, ubins, starts, states, 0)
    folded = columnar_count_fold(group).to_records()
    oracle = [
        count_fold(key, diff, oracle_states[b])[0] for b, (key, diff) in expected
    ]
    assert folded == oracle
    assert [s.records for s in states] == [oracle_states[b].records for b in ubins]
