"""Where the stdlib-``array`` column kernels stop beating numpy.

    PYTHONPATH=src python benchmarks/bench_column_crossover.py [--workers 16]

``repro.runtime_events.columns`` picks a batch's representation by its
length (``SMALL_BATCH_CUTOFF``).  This script is the measurement behind
that constant: for each batch length it times, under both representations,
the three things the record path does with a batch —

* **route**: what F's ``_route_columns`` does in steady state
  (``bin_ids_for`` + ``gather`` + ``split_by_destination`` + ``take`` +
  ``gather`` + one ``slice`` per destination), 4096 bins on ``--workers``
  workers (default 16, the paper's cluster; fewer workers mean fewer,
  longer per-destination slices), the split bounded by the worker count;
* **merge**: S's ``merge_segments`` over the per-destination slices the
  route produced (so up to ``--workers`` segments totalling ``n`` records),
  bounded by the bin count;
* **fold**: ``harness.workloads.columnar_count_fold`` over the merged group

— and names the first length from which numpy is no slower, per stage and
for their sum.  The inputs are built in each representation directly, so
the result does not depend on the constant it is meant to set.  A microbenchmark
of kernels, not a performance claim: those come from ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import timeit
from array import array

from repro.harness.workloads import ModeledCountState, columnar_count_fold
from repro.runtime_events import columns
from repro.runtime_events.columns import ColumnBatch, ColumnGroup, VectorLcg

SIZES = (4, 8, 12, 16, 24, 32, 48, 64, 128, 256)
STAGES = ("route", "merge", "fold")
NUM_BINS = 4096
BIN_SHIFT = 64 - 12
ROUNDS = 15
ROUND_SECONDS = 0.01


def make_batch(n: int, numpy_repr: bool) -> ColumnBatch:
    """``n`` uniform keys with unit diffs, in the requested representation."""
    keys = [int(k) % 10**9 for k in VectorLcg(n).next_batch(n)]
    if numpy_repr:
        np = columns._np
        return ColumnBatch(np.asarray(keys, dtype=np.uint64), np.ones(n, dtype=np.int64))
    return ColumnBatch(array("Q", keys), array("q", [1]) * n)


def make_owners(workers: int, numpy_repr: bool):
    owners = [b % workers for b in range(NUM_BINS)]
    if numpy_repr:
        return columns._np.asarray(owners, dtype=columns._np.int64)
    return owners


def route(batch: ColumnBatch, owners, workers: int) -> list:
    """F's steady-state columnar route: ``[(dst, bin_ids, columns), ...]``."""
    bin_col = columns.bin_ids_for(batch.keys, BIN_SHIFT)
    dsts = columns.gather(owners, bin_col)
    order, bounds = columns.split_by_destination(dsts, workers)
    if order is None:
        return [(bounds[0][0], bin_col, batch)]
    sorted_batch = batch.take(order)
    sorted_bins = columns.gather(bin_col, order)
    return [
        (dst, sorted_bins[lo:hi], sorted_batch.slice(lo, hi)) for dst, lo, hi in bounds
    ]


def stage_calls(n: int, workers: int, numpy_repr: bool) -> dict:
    """One zero-argument callable per stage, over inputs of one representation."""
    batch = make_batch(n, numpy_repr)
    owners = make_owners(workers, numpy_repr)
    segments = route(batch, owners, workers)
    merged, ubins, starts = columns.merge_segments(segments, NUM_BINS)
    states = [ModeledCountState(expected_keys=1e9 / NUM_BINS) for _ in ubins]
    group = ColumnGroup((0,), merged.keys, merged.vals, ubins, starts, states, 0)
    return {
        "route": lambda: route(batch, owners, workers),
        "merge": lambda: columns.merge_segments(segments, NUM_BINS),
        "fold": lambda: columnar_count_fold(group),
    }


def measure(n: int, workers: int) -> dict:
    """Per stage (and their sum): the median over rounds of numpy/array.

    A round times the two representations back to back, ~10 ms each, and the
    verdict is the median of the per-round ratios: on a shared box whose CPUs
    change speed for seconds at a time, two timings taken 10 ms apart see
    the same speed, two timings taken a minute apart may not, so no absolute
    time is reported.
    """
    calls = {
        "array": stage_calls(n, workers, False),
        "numpy": stage_calls(n, workers, True),
    }
    number = {}
    for stage in STAGES:
        count, elapsed = timeit.Timer(calls["numpy"][stage]).autorange()
        number[stage] = max(1, int(count * ROUND_SECONDS / elapsed))
    ratios: dict = {stage: [] for stage in (*STAGES, "sum")}
    for _ in range(ROUNDS):
        timing = {
            name: {
                stage: timeit.timeit(calls[name][stage], number=number[stage])
                / number[stage]
                for stage in STAGES
            }
            for name in ("array", "numpy")
        }
        for per_stage in timing.values():
            per_stage["sum"] = sum(per_stage[stage] for stage in STAGES)
        for stage, values in ratios.items():
            values.append(timing["numpy"][stage] / timing["array"][stage])
    return {stage: statistics.median(values) for stage, values in ratios.items()}


def crossover(rows: dict, stage: str):
    """First measured length from which numpy is never slower again."""
    for i, n in enumerate(SIZES):
        if all(rows[m][stage] <= 1.0 for m in SIZES[i:]):
            return n
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=16,
                        help="destinations a batch is split across (default 16)")
    workers = parser.parse_args(argv).workers
    if not columns.numpy_active():
        print("numpy is not importable: every batch is an array, nothing to cross over")
        return 0
    np = columns._np
    print(f"machine: {platform.platform()}  nproc={os.cpu_count()}  "
          f"python {platform.python_version()}  numpy {np.__version__}")
    print(f"SMALL_BATCH_CUTOFF = {columns.SMALL_BATCH_CUTOFF}  workers = {workers}   "
          f"(numpy/array time, median of {ROUNDS} per-round ratios; "
          "below 1 numpy is faster)")
    stages = (*STAGES, "sum")
    print(f"{'records':>7s}" + "".join(f"{s:>8s}" for s in stages))
    rows: dict = {}
    for n in SIZES:
        rows[n] = measure(n, workers)
        print(f"{n:7d}" + "".join(f"{rows[n][s]:8.2f}" for s in stages))
    for stage in stages:
        n = crossover(rows, stage)
        where = f"numpy no slower from {n} records" if n else "array faster at every size"
        print(f"crossover {stage:6s}: {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
