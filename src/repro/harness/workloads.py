"""The counting microbenchmark workloads (paper §5.2-5.3).

The workload draws 64-bit keys uniformly from a configurable domain and
maintains a per-key cumulative count.  The paper runs two variants:
"hash count" (hash-map bins) and "key count" (dense-array bins, cheaper per
record).  Both are reproduced; the per-record CPU difference is expressed
through the cost model.

Domains in the paper reach 32x10^9 keys — far beyond what Python can hold.
``ModeledCountState`` therefore *models* the per-bin key population: after
the paper's pre-loading step every key of the bin's share of the domain
exists, so the bin's state size is ``domain/num_bins`` keys regardless of
which counts are incremented later.  The counts themselves are folded into
a single tally, which keeps the per-record work O(1) and the migration
payload faithful to ``keys x bytes-per-key``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.harness.openloop import Lcg
from repro.runtime_events import columns
from repro.runtime_events.columns import ColumnBatch, ColumnGroup, VectorLcg


class ModeledCountState:
    """Per-bin count state with a modeled key population.

    ``expected_keys`` is the bin's share of the (pre-loaded) key domain;
    ``len`` reports it so the migration machinery sees the right state
    size.  ``add`` folds one update in and returns the modeled count.
    """

    __slots__ = ("expected_keys", "records")

    def __init__(self, expected_keys: float = 0.0) -> None:
        self.expected_keys = expected_keys
        self.records = 0

    def add(self, key: int, diff: int = 1) -> int:
        """Fold one update in; returns the key's modeled cumulative count."""
        self.records += 1
        # Modeled cumulative count for the key: uniform draws mean each key
        # has seen ~records/expected_keys updates plus the pre-loaded one.
        if self.expected_keys > 0:
            return 1 + int(self.records / self.expected_keys)
        return self.records

    def __len__(self) -> int:
        return int(self.expected_keys)


@dataclass
class CountWorkload:
    """Uniform-key counting workload over a fixed domain."""

    domain: int
    seed: int = 1

    def make_generator(self):
        """A per-worker deterministic generator of ``(key, 1)`` records.

        Emits :class:`ColumnBatch` columns: the keys are the same draws the
        per-record ``Lcg`` loop would produce (``VectorLcg`` is a
        bit-identical batched jump of the same generator), the values are a
        ones column.  Consumers that want tuples iterate the batch.
        """
        lcgs: dict[int, VectorLcg] = {}
        domain = self.domain
        seed = self.seed

        def generate(worker: int, epoch_ms: int, count: int) -> ColumnBatch:
            lcg = lcgs.get(worker)
            if lcg is None:
                lcg = lcgs[worker] = VectorLcg(seed * 1000003 + worker)
            keys = columns.mod_column(lcg.next_batch(count), domain)
            return ColumnBatch(keys, columns.ones_column(count))

        return generate

    def expected_keys_per_bin(self, num_bins: int) -> float:
        """The pre-loaded key population of one bin."""
        return self.domain / num_bins

    def state_factory_for(self, num_bins: int):
        """Factory producing pre-loaded modeled bin states."""
        expected = self.expected_keys_per_bin(num_bins)

        def factory() -> ModeledCountState:
            return ModeledCountState(expected_keys=expected)

        return factory


def count_fold(key: int, diff: int, state: ModeledCountState) -> list:
    """The counting fold: accumulate and report the key's count."""
    return [(key, state.add(key, diff))]


def columnar_count_fold(group: ColumnGroup):
    """Whole-group counting fold — the vectorized twin of ``count_fold``.

    Must produce, per record, the exact count the per-record path computes:
    for the ``j``-th record (1-based, arrival order) of a bin whose state
    held ``records`` before the group, the modeled count is
    ``1 + int((records + j) / expected_keys)``.  Float64 division plus
    truncation is bit-identical to Python's ``int(a / b)`` here (all the
    quantities are positive and far below 2**53).
    """
    starts = group.starts
    states = group.states
    numpy_group = columns.is_numpy_column(group.keys)
    if numpy_group:
        np = columns._numpy()
        expected = [s.expected_keys for s in states]
        if min(expected, default=0.0) > 0:
            starts_arr = np.asarray(starts, dtype=np.int64)
            sizes = starts_arr[1:] - starts_arr[:-1]
            before = np.fromiter(
                [s.records for s in states], dtype=np.int64, count=len(states)
            )
            # Record ``i`` (global, 0-based) in bin ``j`` folds to
            # ``before_j + (i + 1 - starts_j)``; hoisting the per-bin part
            # into one base vector leaves a single repeat per column.
            before -= starts_arr[:-1]
            folded = np.repeat(before, sizes)
            folded += np.arange(1, len(group) + 1, dtype=np.int64)
            quotients = folded / np.repeat(np.asarray(expected), sizes)
            counts = quotients.astype(np.int64)
            counts += 1
            for state, size in zip(states, sizes.tolist()):
                state.records += size
            return ColumnBatch(group.keys, counts)
    # ``array`` groups (and the expected_keys <= 0 corner): the scalar fold
    # per record, gathered into one output column.
    counts_list: list[int] = []
    append = counts_list.append
    lo = starts[0]
    for j, state in enumerate(states, 1):
        hi = starts[j]
        records = state.records
        expected = state.expected_keys
        if expected > 0:
            for _ in range(hi - lo):
                records += 1
                append(1 + int(records / expected))
        else:
            for _ in range(hi - lo):
                records += 1
                append(records)
        state.records = records
        lo = hi
    if numpy_group:
        return ColumnBatch(group.keys, np.asarray(counts_list, dtype=np.int64))
    return ColumnBatch(group.keys, array("q", counts_list))


@dataclass
class SkewedCountWorkload:
    """Counting workload with Zipf-like heat concentrated on a few keys.

    A ``hot_fraction`` share of the traffic goes to ``hot_keys`` keys whose
    popularity decays as ``rank^-zipf_exponent``; the rest draws uniformly
    from the domain.  Because bins hash keys (splitmix64 top bits), the hot
    keys land in a handful of bins — exactly the per-bin load imbalance the
    migration planner's telemetry is built to detect.  The interface
    mirrors :class:`CountWorkload` so every harness path accepts either.
    """

    domain: int
    seed: int = 1
    hot_keys: int = 8
    hot_fraction: float = 0.9
    zipf_exponent: float = 1.0

    def hot_key_set(self) -> list[int]:
        """The hot keys, most popular first (deterministic in the seed)."""
        lcg = Lcg(self.seed * 7777771 + 13)
        seen: set[int] = set()
        keys: list[int] = []
        while len(keys) < self.hot_keys:
            key = lcg.next() % self.domain
            if key not in seen:
                seen.add(key)
                keys.append(key)
        return keys

    def hot_bin_ids(self, num_bins: int) -> set[int]:
        """The bins the hot keys hash into under ``num_bins`` bins."""
        from repro.megaphone.control import bin_of

        return {bin_of(key, num_bins) for key in self.hot_key_set()}

    def _rank_table(self, slots: int = 1024) -> list[int]:
        """Quantized Zipf CDF: a uniform draw over slots picks a hot-key
        rank with probability proportional to ``rank^-zipf_exponent``."""
        weights = [
            1.0 / (rank + 1) ** self.zipf_exponent
            for rank in range(self.hot_keys)
        ]
        total = sum(weights)
        table: list[int] = []
        cumulative = 0.0
        for rank, weight in enumerate(weights):
            cumulative += weight
            fill = int(round(slots * cumulative / total))
            while len(table) < fill:
                table.append(rank)
        while len(table) < slots:
            table.append(self.hot_keys - 1)
        return table

    def make_generator(self):
        """A per-worker deterministic generator of ``(key, 1)`` records."""
        lcgs: dict[int, Lcg] = {}
        domain = self.domain
        seed = self.seed
        hot = self.hot_key_set()
        table = self._rank_table()
        slots = len(table)
        threshold = int(self.hot_fraction * 1_000_000)

        def generate(worker: int, epoch_ms: int, count: int) -> list:
            lcg = lcgs.get(worker)
            if lcg is None:
                lcg = lcgs[worker] = Lcg(seed * 1000003 + worker)
            nxt = lcg.next
            out = []
            for _ in range(count):
                if nxt() % 1_000_000 < threshold:
                    out.append((hot[table[nxt() % slots]], 1))
                else:
                    out.append((nxt() % domain, 1))
            return out

        return generate

    def expected_keys_per_bin(self, num_bins: int) -> float:
        """The pre-loaded key population of one bin."""
        return self.domain / num_bins

    def state_factory_for(self, num_bins: int):
        """Factory producing pre-loaded modeled bin states."""
        expected = self.expected_keys_per_bin(num_bins)

        def factory() -> ModeledCountState:
            return ModeledCountState(expected_keys=expected)

        return factory
