"""Structure-of-arrays record batches: the columnar hot-path core.

A :class:`ColumnBatch` carries one batch of records as parallel columns
(key vector, value vector, optional per-record timestamp vector) instead of
a list of per-record Python objects.  Everything the routing and apply
paths do per record — splitmix64 bin hashing, owner lookup, destination
grouping, count folding — then amortizes over whole arrays.

Two representations share one interface:

* **numpy**: columns are ``ndarray``s and the kernels below vectorize — a
  fixed cost of about a microsecond per ufunc call, then nearly free per
  record.
* **stdlib ``array``**: columns are ``array('Q')``/``array('q')`` (index
  vectors are plain lists) and the kernels loop — no per-call overhead,
  about a microsecond per record, bit-identical results, no third-party
  dependency.

The representation is a property of the *batch*, not of the process.  A
column is **born** (``ColumnBatch.from_*``, ``ones_column``,
``make_index_vector``, ``VectorLcg.next_batch``) as an ``array`` when it is
shorter than :data:`SMALL_BATCH_CUTOFF` and as an ``ndarray`` otherwise;
**derived** columns (``take``/``slice``/``gather``/``mod_column``/
``bin_ids_for``) inherit the representation of their input, every kernel
dispatches on the columns it is handed, and **mixed** inputs (``concat``,
``merge_segments``, ``gather``) are normalised with numpy winning.  Without
numpy everything is an ``array`` whatever its length; tests monkeypatch the
module-global ``_np`` to ``None`` to force that mode.

Correctness contract: every kernel here is *bit-identical* to its scalar
reference (``repro.megaphone.control.bin_of``'s splitmix64 and the
per-record router kept as a test oracle in
``tests/megaphone/reference_router.py``, the ``Lcg`` in
``repro.harness.openloop``, dict-insertion destination grouping).  The
equivalence tests pin this; the simulation must not be able to tell the
representations apart.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Sequence

try:  # pragma: no cover - exercised via monkeypatch in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

MASK64 = (1 << 64) - 1

# Column kinds.  "kv" batches decode to ``(key, val)`` tuples (the count
# workloads); "obj" batches carry arbitrary Python records in ``vals`` with
# an integer routing key per record (plain record lists F columnised).
KIND_KV = "kv"
KIND_OBJ = "obj"


# Columns born shorter than this are stdlib ``array``s, the rest ndarrays.
# Measured, not guessed: ``benchmarks/bench_column_crossover.py`` times what a
# batch costs end to end (F route + S merge + counting fold) under both
# representations and reports numpy/array as the median of back-to-back
# rounds.  Linux 6.18 x86_64, 2 vCPU, CPython 3.11.7, numpy 2.4.6:
#
#   records          4     8    12    16    24    32    48    64   128   256
#   16 workers    1.83  1.42  1.16  1.04  0.93  0.80  0.67  0.56  0.39  0.29
#   4 workers     1.85  1.44  1.21  1.02  0.86  0.73  0.56  0.47  0.30  0.23
#
# so numpy pays from 24 records on the paper's 16-worker shape and with 4
# workers alike (a second run gave the same crossovers).  The stages differ
# — the route crosses at 12-16, the merge at 16-24, the fold at 32 — but a
# batch keeps one representation from source to fold, so the sum decides.
# Rerun the script before moving this.
SMALL_BATCH_CUTOFF = 24

# Columns whose values all lie below this sort on a 16-bit copy (see
# ``_sort_key``); callers state the bound, the kernels never guess it.
NARROW_SORT_BOUND = 1 << 16

if _np is not None:
    # splitmix64's constants, built once rather than on every call.
    _SPLITMIX_ADD = _np.uint64(0x9E3779B97F4A7C15)
    _SPLITMIX_MUL1 = _np.uint64(0xBF58476D1CE4E5B9)
    _SPLITMIX_MUL2 = _np.uint64(0x94D049BB133111EB)
    _SHIFT_30 = _np.uint64(30)
    _SHIFT_27 = _np.uint64(27)
    _SHIFT_31 = _np.uint64(31)


def numpy_active() -> bool:
    """Whether numpy is available (batches of ``SMALL_BATCH_CUTOFF`` records
    and more then use the numpy representation)."""
    return _np is not None


def active_representation() -> str:
    """Name of the large-batch columnar representation (for reports/CLI).

    ``"columnar-numpy"`` whenever numpy is importable — small batches are
    ``array``s even then — and ``"columnar-array"`` when every batch is.
    """
    return "columnar-numpy" if _np is not None else "columnar-array"


def describe_representation() -> str:
    """One line for reports: numpy availability and the small-batch rule."""
    if _np is None:
        return "columnar-array (numpy absent: every batch is a stdlib array)"
    return (
        f"columnar-numpy (numpy {_np.__version__}; batches under "
        f"{SMALL_BATCH_CUTOFF} records are stdlib arrays)"
    )


def is_numpy_column(column) -> bool:
    """Whether ``column`` is in the numpy representation."""
    return _np is not None and isinstance(column, _np.ndarray)


def _born_numpy(n: int) -> bool:
    """The selection rule: a column of ``n`` records is born an ndarray."""
    return _np is not None and n >= SMALL_BATCH_CUTOFF


def _key_column(values: Sequence[int]):
    if _born_numpy(len(values)):
        return _np.asarray(values, dtype=_np.uint64)
    return array("Q", values)


def _val_column(values: Sequence[int]):
    if _born_numpy(len(values)):
        return _np.asarray(values, dtype=_np.int64)
    return array("q", values)


def _index_list(sel) -> list:
    """An index vector of either representation as a list of Python ints."""
    if type(sel) is list:
        return sel
    return sel.tolist() if hasattr(sel, "tolist") else list(sel)


def _concat_columns(cols: list, typecode: str):
    """Concatenate columns in order; one ndarray among them makes the result
    an ndarray (``array``s convert through the buffer protocol, same dtype)."""
    if _np is not None:
        ndarray = _np.ndarray
        for col in cols:
            if isinstance(col, ndarray):
                return _np.concatenate(cols)
    out = array(typecode)
    for col in cols:
        out.extend(col)
    return out


class ColumnBatch:
    """One record batch as structure-of-arrays columns.

    ``keys`` is always an unsigned 64-bit integer column (the routing key).
    For ``kind="kv"`` ``vals`` is a signed 64-bit column and record ``i``
    decodes to ``(int(keys[i]), int(vals[i]))``.  For ``kind="obj"``
    ``vals`` is a plain list of Python records and record ``i`` decodes to
    ``vals[i]`` (the keys come from F's exchange function).  ``times`` is an
    optional per-record event-time column; ``None`` means every record
    shares the batch's dataflow timestamp (the common case — batches are
    per-epoch, so the column would be constant).
    """

    __slots__ = ("keys", "vals", "kind", "times")

    def __init__(self, keys, vals, kind: str = KIND_KV, times=None) -> None:
        self.keys = keys
        self.vals = vals
        self.kind = kind
        self.times = times

    # -- construction --------------------------------------------------------

    @classmethod
    def from_kv(cls, keys: Sequence[int], vals: Sequence[int]) -> "ColumnBatch":
        """Encode parallel key/value sequences."""
        return cls(_key_column(keys), _val_column(vals), KIND_KV)

    @classmethod
    def from_records(cls, records: Sequence) -> "ColumnBatch":
        """Encode ``[(key, val), ...]`` pairs."""
        return cls.from_kv([r[0] for r in records], [r[1] for r in records])

    @classmethod
    def from_objects(cls, objs: list, keys: Sequence[int]) -> "ColumnBatch":
        """Wrap arbitrary records with precomputed integer routing keys."""
        return cls(_key_column(keys), list(objs), KIND_OBJ)

    # -- record views --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator:
        return iter(self.to_records())

    def __eq__(self, other) -> bool:
        if type(other) is ColumnBatch:
            return self.kind == other.kind and self.to_records() == other.to_records()
        if isinstance(other, list):
            return self.to_records() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ColumnBatch(kind={self.kind!r}, len={len(self.keys)})"

    def to_records(self) -> list:
        """Decode to the per-record representation."""
        if self.kind == KIND_OBJ:
            return list(self.vals)
        keys, vals = self.keys, self.vals
        if _np is not None and isinstance(keys, _np.ndarray):
            return list(zip(keys.tolist(), vals.tolist()))
        return list(zip(keys, vals))

    def key_list(self) -> list:
        """The key column as a list of Python ints."""
        keys = self.keys
        if _np is not None and isinstance(keys, _np.ndarray):
            return keys.tolist()
        return list(keys)

    # -- column surgery ------------------------------------------------------

    def take(self, sel) -> "ColumnBatch":
        """A new batch with the records selected by index vector ``sel``.

        The result has this batch's representation whichever one ``sel``
        has.
        """
        keys = self.keys
        times = self.times
        if _np is not None and isinstance(keys, _np.ndarray):
            new_keys = keys[sel]
            if self.kind == KIND_OBJ:
                vals = self.vals
                new_vals = [vals[i] for i in _index_list(sel)]
            else:
                new_vals = self.vals[sel]
            new_times = times[sel] if times is not None else None
        else:
            idx = _index_list(sel)
            new_keys = array("Q", [keys[i] for i in idx])
            vals = self.vals
            if self.kind == KIND_OBJ:
                new_vals = [vals[i] for i in idx]
            else:
                new_vals = array("q", [vals[i] for i in idx])
            new_times = (
                array("q", [times[i] for i in idx]) if times is not None else None
            )
        return ColumnBatch(new_keys, new_vals, self.kind, new_times)

    def slice(self, lo: int, hi: int) -> "ColumnBatch":
        """A new batch with the contiguous record range ``[lo, hi)``.

        Columns are sliced, not fancy-indexed: on the numpy representation
        this is a view, which makes splitting a destination-sorted batch
        into per-destination segments nearly free.
        """
        times = self.times
        return ColumnBatch(
            self.keys[lo:hi],
            self.vals[lo:hi],
            self.kind,
            times[lo:hi] if times is not None else None,
        )

    @classmethod
    def concat(cls, batches: list["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches of one kind, preserving order.

        Batches of both representations may be mixed; the result is numpy
        if any input is.
        """
        if len(batches) == 1:
            return batches[0]
        kind = batches[0].kind
        keys = _concat_columns([b.keys for b in batches], "Q")
        if kind == KIND_OBJ:
            vals: list = []
            for b in batches:
                vals.extend(b.vals)
        else:
            vals = _concat_columns([b.vals for b in batches], "q")
        return cls(keys, vals, kind)


# -- routing kernels -------------------------------------------------------------


def bin_ids_for(keys, shift: int):
    """splitmix64 bin id per key; bit-identical to the scalar ``bin_of``.

    ``shift`` is ``64 - log2(num_bins)``; ``shift >= 64`` means one bin.
    Returns a signed index column (ndarray int64 or ``array('q')``).
    """
    if _np is not None and isinstance(keys, _np.ndarray):
        if shift >= 64:
            return _np.zeros(len(keys), dtype=_np.int64)
        # In place on one scratch array (plus one for the shifted term):
        # each step costs its ufunc call, not an allocation as well.
        x = keys + _SPLITMIX_ADD
        t = x >> _SHIFT_30
        x ^= t
        x *= _SPLITMIX_MUL1
        _np.right_shift(x, _SHIFT_27, out=t)
        x ^= t
        x *= _SPLITMIX_MUL2
        _np.right_shift(x, _SHIFT_31, out=t)
        x ^= t
        x >>= _np.uint64(shift)
        # ``shift >= 1``, so every id is below 2**63: the int64 view reads
        # the same values without a copy.
        return x.view(_np.int64)
    if shift >= 64:
        return array("q", bytes(8 * len(keys)))
    out = []
    append = out.append
    for value in keys:
        value = (value + 0x9E3779B97F4A7C15) & MASK64
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
        append((value ^ (value >> 31)) >> shift)
    return array("q", out)


def make_index_vector(values: Sequence[int], like=None):
    """An int index vector (destinations, owners) for gathers and grouping.

    Born by length, or — derived — in the representation of the column
    ``like`` it indexes or is grouped with.
    """
    as_numpy = _born_numpy(len(values)) if like is None else is_numpy_column(like)
    if as_numpy:
        return _np.asarray(values, dtype=_np.int64)
    return list(values)


def gather(vector, idx):
    """``vector[i] for i in idx`` as a signed column.

    The result is numpy if either input is, else an ``array('q')``;
    ``vector`` may also be a plain list (F's flat ``current_owners``).
    """
    if _np is not None:
        if isinstance(vector, _np.ndarray):
            return vector[idx]
        if isinstance(idx, _np.ndarray):
            return _np.asarray(vector, dtype=_np.int64)[idx]
    return array("q", [vector[i] for i in idx])


def _sort_key(column, bound: Optional[int]):
    """The ndarray ``column`` itself, or a 16-bit copy of it when ``bound``
    says every value fits: numpy's stable sort is a radix sort for integers
    of 16 bits or fewer, and its order depends only on the values, so both
    sort to the same permutation."""
    if bound is not None and bound <= NARROW_SORT_BOUND:
        return column.astype(_np.uint16)
    return column


def _run_heads(sorted_col, n: int):
    """Positions where a new run of equal values starts in a sorted ndarray
    of ``n >= 2`` values (position 0 included)."""
    head = _np.empty(n, dtype=bool)
    head[0] = True
    _np.not_equal(sorted_col[1:], sorted_col[:-1], out=head[1:])
    return head.nonzero()[0]


def split_by_destination(dsts, bound: Optional[int] = None) -> tuple:
    """One stable sort plus slice bounds per destination.

    Returns ``(order, [(dst, lo, hi), ...])``: applying ``order`` to the
    batch columns puts each destination's records in one contiguous run
    ``[lo, hi)`` (arrival order within the run), and the bounds appear in
    first-occurrence emission order — exactly the dict-insertion order the
    per-record oracle emits, which the per-link network
    serialization makes observable.  The caller splits with column *slices*
    (views on numpy) instead of one fancy-index gather per destination.
    ``order is None`` with a single bound means every record already shares
    one destination and no reorder is needed.

    ``bound``, when given, is an exclusive upper bound on every value (the
    worker count); it only picks the numpy sort's width, never the result.
    """
    n = len(dsts)
    if n == 0:
        return None, []
    if _np is not None and isinstance(dsts, _np.ndarray):
        key = _sort_key(dsts, bound)
        order = _np.argsort(key, kind="stable")
        sd = key[order]
        if sd[0] == sd[-1]:
            return None, [(int(sd[0]), 0, n)]
        heads = _run_heads(sd, n)
        los = heads.tolist()
        # ``order`` is stable, so ``order[lo]`` is the arrival position of
        # this destination's first record: sorting on it recovers
        # first-occurrence emission order.
        firsts = order[heads].tolist()
        segs = sorted(zip(firsts, sd[heads].tolist(), los, [*los[1:], n]))
        return order, [(dst, lo, hi) for _first, dst, lo, hi in segs]
    first = dsts[0]
    if dsts.count(first) == n:
        return None, [(first, 0, n)]
    groups: dict[int, list] = {}
    for i, dst in enumerate(dsts):
        if dst in groups:
            groups[dst].append(i)
        else:
            groups[dst] = [i]
    order_list: list[int] = []
    bounds: list[tuple] = []
    lo = 0
    for dst, sel in groups.items():
        order_list += sel
        hi = lo + len(sel)
        bounds.append((dst, lo, hi))
        lo = hi
    return order_list, bounds


def group_by_bin_sorted(bins, bound: Optional[int] = None) -> tuple:
    """Group record positions by bin id, bins ascending.

    Returns ``(order, unique_bins, starts)``: ``order`` stably sorts the
    records by bin (within a bin, arrival order is preserved),
    ``unique_bins`` is the ascending list of bin ids, and record positions
    ``order[starts[j]:starts[j+1]]`` belong to ``unique_bins[j]``.
    ``bound``, when given, is an exclusive upper bound on every bin id (the
    bin count); it only picks the numpy sort's width, never the result.
    """
    n = len(bins)
    if n == 0:
        return [], [], [0]
    if _np is not None and isinstance(bins, _np.ndarray):
        key = _sort_key(bins, bound)
        order = _np.argsort(key, kind="stable")
        sb = key[order]
        if sb[0] == sb[-1]:
            return order, [int(sb[0])], [0, n]
        heads = _run_heads(sb, n)
        starts = heads.tolist()
        starts.append(n)
        return order, sb[heads].tolist(), starts
    order = sorted(range(n), key=bins.__getitem__)
    sorted_bins = [bins[i] for i in order]
    if sorted_bins[0] == sorted_bins[-1]:
        return order, [sorted_bins[0]], [0, n]
    ubins: list[int] = []
    starts: list[int] = []
    previous = None
    for pos, b in enumerate(sorted_bins):
        if b != previous:
            ubins.append(b)
            starts.append(pos)
            previous = b
    starts.append(n)
    return order, ubins, starts


# -- batch generation ------------------------------------------------------------


class VectorLcg:
    """Batched drop-in for :class:`repro.harness.openloop.Lcg`.

    ``next_batch(n)`` returns the same ``n`` outputs ``Lcg.next`` would
    produce, as one column, and leaves the generator in the same state.
    The jump tables hold exact modular powers ``MULT**k`` and offsets so a
    whole batch is one fused multiply-add over the seed state.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407

    __slots__ = ("state", "_mults", "_offsets", "_mults_np", "_offsets_np")

    def __init__(self, seed: int) -> None:
        self.state = (seed * 0x9E3779B97F4A7C15 + 1) & MASK64
        # _mults[k] = MULT**(k+1) mod 2^64; _offsets[k] the matching
        # accumulated increment: state_{k+1} = mults[k]*state_0 + offsets[k].
        self._mults: list[int] = [self.MULT]
        self._offsets: list[int] = [self.INC]
        self._mults_np = None
        self._offsets_np = None

    def _grow(self, n: int) -> None:
        mults, offsets = self._mults, self._offsets
        while len(mults) < n:
            mults.append((mults[-1] * self.MULT) & MASK64)
            offsets.append((offsets[-1] * self.MULT + self.INC) & MASK64)
        self._mults_np = _np.asarray(mults, dtype=_np.uint64)
        self._offsets_np = _np.asarray(offsets, dtype=_np.uint64)

    def next_batch(self, n: int):
        """The next ``n`` outputs as an unsigned column."""
        if _born_numpy(n):
            if self._mults_np is None or len(self._mults_np) < n:
                self._grow(n)
            states = (
                self._mults_np[:n] * _np.uint64(self.state)
                + self._offsets_np[:n]
            )
            self.state = int(states[-1]) if n else self.state
            return states >> _np.uint64(16)
        out = []
        append = out.append
        state = self.state
        mult, inc = self.MULT, self.INC
        for _ in range(n):
            state = (state * mult + inc) & MASK64
            append(state >> 16)
        self.state = state
        return array("Q", out)


def mod_column(column, modulus: int):
    """``value % modulus`` over an unsigned column."""
    if _np is not None and isinstance(column, _np.ndarray):
        return column % _np.uint64(modulus)
    return array("Q", [value % modulus for value in column])


def ones_column(n: int):
    """A value column of ``n`` ones (the count workload's diffs)."""
    if _born_numpy(n):
        return _np.ones(n, dtype=_np.int64)
    return array("q", [1]) * n


# -- grouped application ---------------------------------------------------------


class ColumnGroup:
    """One notification's worth of records, merged and grouped by bin.

    Handed to a ``columnar_applier``: records are sorted stably by bin id,
    ``bins[j]``'s records occupy ``starts[j]:starts[j+1]`` of the columns,
    and ``states[j]`` is the matching bin's user state (mutable in place).
    """

    __slots__ = ("time", "keys", "vals", "bins", "starts", "states", "worker")

    def __init__(self, time, keys, vals, bins, starts, states, worker) -> None:
        self.time = time
        self.keys = keys
        self.vals = vals
        self.bins = bins
        self.starts = starts
        self.states = states
        self.worker = worker

    def __len__(self) -> int:
        return len(self.keys)


def merge_segments(segments: list, bound: Optional[int] = None) -> Optional[tuple]:
    """Merge ``(tag, bin_ids, columns)`` segments into one sorted group.

    Returns ``(batch, unique_bins, starts)`` with records stably sorted by
    bin id (ascending bins; within a bin, segment-arrival order), or
    ``None`` when the segments are empty.  Segments of both representations
    may be mixed; the group is numpy if any segment is.  ``bound`` is passed
    on to :func:`group_by_bin_sorted`.
    """
    if not segments:
        return None
    if len(segments) == 1:
        bins = segments[0][1]
        batch = segments[0][2]
    else:
        bins = _concat_columns([seg[1] for seg in segments], "q")
        batch = ColumnBatch.concat([seg[2] for seg in segments])
    order, ubins, starts = group_by_bin_sorted(bins, bound)
    return batch.take(order), ubins, starts
