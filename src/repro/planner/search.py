"""Objective-driven plan search: targets and interference-aware steps.

Two halves, matching the split the paper's §4.4 leaves to the external
controller:

1. **Target search** — given the telemetry's per-bin load, find a target
   :class:`~repro.megaphone.control.BinnedConfiguration` optimizing an
   objective.  Three objectives are registered:

   * ``balance`` — greedy bin packing (move the hottest bin from the most
     loaded worker to the least loaded, while it improves) followed by a
     local-search swap pass, minimizing max/mean load;
   * ``drain`` — empty a worker (scale-in), spreading its bins across the
     survivors by load;
   * ``spread`` — populate fresh workers (scale-out) by pulling the
     hottest bins from existing ones until loads even out.

   Each mutates as few bins as possible: search starts from the current
   assignment, so unmoved bins cost nothing.

2. **Step grouping** — :func:`plan_moves` turns the moved-bin set into
   batched steps the paper's *optimized* strategy would accept: every
   step uses disjoint (source, destination) worker pairs (no worker
   serializes or installs two bins in one step), and an optional per-step
   byte cap keeps each step inside the cost model's SLO budget.  The
   result is a plain :class:`~repro.megaphone.migration.MigrationPlan` —
   byte-compatible with :mod:`repro.megaphone.plan_io` and executable by
   every existing controller with no planner imports.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.megaphone.control import BinnedConfiguration, ControlInst
from repro.megaphone.migration import MigrationPlan, MigrationStep

PLANNER_STRATEGY = "planner"


# -- target search ---------------------------------------------------------------


def _loads_by_worker(
    assignment: list[int], bin_load: dict[int, float], workers: list[int]
) -> dict[int, float]:
    loads = {w: 0.0 for w in workers}
    for bin_id, owner in enumerate(assignment):
        if owner in loads:
            loads[owner] += bin_load.get(bin_id, 0.0)
    return loads


def balanced_target(
    current: BinnedConfiguration,
    bin_load: dict[int, float],
    num_workers: Optional[int] = None,
    max_moves: Optional[int] = None,
) -> BinnedConfiguration:
    """Greedy rebalance plus local search, minimizing max/mean load.

    Greedy phase: repeatedly move the best bin from the most loaded
    worker to the least loaded — "best" being the largest bin whose move
    still improves the spread (load strictly under the current gap).
    Local-search phase: when single moves stop helping, try swapping one
    hot bin for a colder one between the extreme workers.  Bins with no
    observed load are never moved (moving them costs bytes and buys no
    balance).
    """
    assignment = list(current.assignment)
    if num_workers is None:
        num_workers = max(assignment) + 1
    workers = list(range(num_workers))
    loads = _loads_by_worker(assignment, bin_load, workers)
    moved: set[int] = set()
    budget = max_moves if max_moves is not None else len(assignment)

    def bins_on(worker: int) -> list[int]:
        return [b for b, w in enumerate(assignment) if w == worker]

    while len(moved) < budget:
        hot = max(workers, key=lambda w: loads[w])
        cold = min(workers, key=lambda w: loads[w])
        gap = loads[hot] - loads[cold]
        if gap <= 0.0:
            break
        # Largest movable bin that still shrinks the spread.
        candidates = [
            (bin_load.get(b, 0.0), b)
            for b in bins_on(hot)
            if 0.0 < bin_load.get(b, 0.0) < gap
        ]
        if candidates:
            load, bin_id = max(candidates)
            assignment[bin_id] = cold
            loads[hot] -= load
            loads[cold] += load
            moved.add(bin_id)
            continue
        # Local search: swap the hot worker's largest bin against a colder
        # bin of the cold worker when the exchange shrinks the spread.
        hot_bins = [
            (bin_load.get(b, 0.0), b)
            for b in bins_on(hot)
            if bin_load.get(b, 0.0) > 0.0
        ]
        cold_bins = [(bin_load.get(b, 0.0), b) for b in bins_on(cold)]
        best_swap = None
        for hot_load, hot_bin in hot_bins:
            for cold_load, cold_bin in cold_bins:
                shift = hot_load - cold_load
                if 0.0 < shift < gap:
                    if best_swap is None or shift > best_swap[0]:
                        best_swap = (shift, hot_bin, cold_bin)
        if best_swap is None or len(moved) + 2 > budget:
            break
        _, hot_bin, cold_bin = best_swap
        assignment[hot_bin], assignment[cold_bin] = cold, hot
        loads[hot] -= best_swap[0]
        loads[cold] += best_swap[0]
        moved.update((hot_bin, cold_bin))
    return BinnedConfiguration(tuple(assignment))


def drain_target(
    current: BinnedConfiguration,
    bin_load: dict[int, float],
    drain_workers: tuple,
    num_workers: Optional[int] = None,
    survivors: Optional[list] = None,
) -> BinnedConfiguration:
    """Scale-in: move every bin off ``drain_workers``, packing each onto
    the least-loaded of ``survivors`` (default: every other worker below
    ``num_workers``), hottest bins placed first."""
    assignment = list(current.assignment)
    if num_workers is None:
        num_workers = max(assignment) + 1
    draining = set(drain_workers)
    if survivors is None:
        survivors = range(num_workers)
    survivors = [w for w in survivors if w not in draining]
    if not survivors:
        raise ValueError("cannot drain every worker")
    loads = _loads_by_worker(assignment, bin_load, survivors)
    evicted = [
        (bin_load.get(b, 0.0), b)
        for b, w in enumerate(assignment)
        if w in draining
    ]
    for load, bin_id in sorted(evicted, reverse=True):
        dst = min(survivors, key=lambda w: (loads[w], w))
        assignment[bin_id] = dst
        loads[dst] += load
    return BinnedConfiguration(tuple(assignment))


def spread_target(
    current: BinnedConfiguration,
    bin_load: dict[int, float],
    num_workers: int,
) -> BinnedConfiguration:
    """Scale-out: rebalance onto ``num_workers`` workers, populating any
    that currently own nothing (delegates to the balance search with the
    widened worker range)."""
    return balanced_target(current, bin_load, num_workers=num_workers)


# -- step grouping ---------------------------------------------------------------


def plan_moves(
    current: BinnedConfiguration,
    target: BinnedConfiguration,
    bin_bytes: Optional[dict[int, float]] = None,
    max_step_bytes: Optional[float] = None,
    max_step_moves: Optional[int] = None,
) -> MigrationPlan:
    """Group the moved bins into interference-aware steps.

    Like the paper's optimized strategy, each step's moves use disjoint
    (source, destination) pairs, so no worker serializes or installs more
    than one bin per step.  ``max_step_bytes`` additionally caps the
    bytes any single step ships (the cost model's SLO budget);
    ``max_step_moves`` caps the step's move count.  Hottest-first
    ordering inside the rounds keeps the biggest moves earliest, when the
    most steps remain to absorb stragglers.
    """
    sizes = bin_bytes if bin_bytes is not None else {}
    moves = current.moved_bins(target)
    remaining = sorted(
        (
            (float(sizes.get(inst.bin, 0.0)), current.worker_of(inst.bin), inst)
            for inst in moves
        ),
        key=lambda item: (-item[0], item[2].bin),
    )
    steps: list[MigrationStep] = []
    while remaining:
        used_src: set[int] = set()
        used_dst: set[int] = set()
        step_bytes = 0.0
        round_insts: list[ControlInst] = []
        deferred = []
        for size, src, inst in remaining:
            fits = (
                src not in used_src
                and inst.worker not in used_dst
                and (
                    max_step_moves is None
                    or len(round_insts) < max_step_moves
                )
                and (
                    max_step_bytes is None
                    or not round_insts
                    or step_bytes + size <= max_step_bytes
                )
            )
            if fits:
                used_src.add(src)
                used_dst.add(inst.worker)
                step_bytes += size
                round_insts.append(inst)
            else:
                deferred.append((size, src, inst))
        if not round_insts:
            # Cannot happen (an empty round means remaining was empty),
            # but guard against a pathological cap configuration.
            round_insts = [deferred.pop(0)[2]]
        steps.append(MigrationStep(tuple(round_insts)))
        remaining = deferred
    return MigrationPlan(strategy=PLANNER_STRATEGY, steps=steps)


# -- objective registry ----------------------------------------------------------


def _balance_objective(current, telemetry, **options):
    return balanced_target(
        current,
        telemetry.bin_load(),
        num_workers=options.get("num_workers"),
        max_moves=options.get("max_moves"),
    )


def _drain_objective(current, telemetry, **options):
    drain = options.get("drain_workers")
    if not drain:
        raise ValueError("the drain objective needs drain_workers")
    return drain_target(
        current,
        telemetry.bin_load(),
        tuple(drain),
        num_workers=options.get("num_workers"),
    )


def _spread_objective(current, telemetry, **options):
    num_workers = options.get("num_workers")
    if num_workers is None:
        raise ValueError("the spread objective needs num_workers")
    return spread_target(current, telemetry.bin_load(), num_workers)


OBJECTIVES: dict[str, Callable] = {
    "balance": _balance_objective,
    "drain": _drain_objective,
    "spread": _spread_objective,
}


def search_target(
    objective: str, current: BinnedConfiguration, telemetry, **options
) -> BinnedConfiguration:
    """Run the named objective's target search."""
    try:
        fn = OBJECTIVES[objective]
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; pick one of {tuple(OBJECTIVES)}"
        ) from None
    return fn(current, telemetry, **options)
