"""Migration strategies: turning a target configuration into control steps.

Paper §3.3 describes the strategy space; §4.4 adds two optimizations.  All
strategies reveal the same set of ``(bin, worker)`` changes, differing only
in how :func:`schedule` groups them into timestamped steps:

* **all-at-once** — no cap: one step carries every change (the partial
  pause-and-resume behaviour of existing systems);
* **fluid** — ``max_moves=1``: one bin per step, each step awaiting the
  previous one's completion;
* **batched** — ``max_moves=batch_size``: fixed-size groups of bins;
* **optimized** — ``disjoint=True``, no cap: each step is a greedy maximal
  matching, in bin order, of source to destination workers, so moves that
  do not interfere proceed together.

The planner uses the optimized setting with hottest-first ``sizes`` and a
per-step byte budget.  The gap between steps (paper §4.4: lets the system
drain enqueued records, halving the worst-case latency) is a controller
parameter, not part of the plan.

The targets live here too: the paper's ``imbalanced_target`` and the
load-driven ``balanced_target`` and ``drain_target`` that the planner's
objectives and the elastic scaling coordinator search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.megaphone.control import BinnedConfiguration, ControlInst


@dataclass(frozen=True)
class MigrationStep:
    """One atomic reconfiguration: all instructions share a timestamp."""

    insts: tuple[ControlInst, ...]

    def __len__(self) -> int:
        return len(self.insts)


@dataclass
class MigrationPlan:
    """An ordered sequence of reconfiguration steps.

    ``provenance`` is opaque to execution: controllers replay the steps
    identically whether a human or the planner authored them.  Serialized
    plans carry it as a :class:`repro.megaphone.plan_io.PlanProvenance`.
    """

    strategy: str
    steps: list[MigrationStep] = field(default_factory=list)
    provenance: object = None

    @property
    def total_moves(self) -> int:
        return sum(len(step) for step in self.steps)

    def configurations(self, start: BinnedConfiguration) -> list[BinnedConfiguration]:
        """The configuration after each step, starting from ``start``."""
        configs = []
        current = start
        for step in self.steps:
            current = current.apply(list(step.insts))
            configs.append(current)
        return configs


def schedule(
    current: BinnedConfiguration,
    target: BinnedConfiguration,
    *,
    disjoint: bool = False,
    max_moves: Optional[int] = None,
    max_bytes: Optional[float] = None,
    sizes: Optional[dict[int, float]] = None,
) -> list[MigrationStep]:
    """Group the moves from ``current`` to ``target`` into steps.

    The moves are walked in bin order, or hottest first by ``(-size,
    bin)`` when ``sizes`` is given.  Each step takes every move that fits,
    in that order: at most ``max_moves`` of them, at most ``max_bytes`` of
    ``sizes`` (the step's first move always fits), and with ``disjoint``
    no source and no destination worker twice.  A move that does not fit
    waits for the next step, ahead of the moves not yet walked.
    """
    if max_moves is not None and max_moves < 1:
        raise ValueError(f"max_moves must be at least 1, got {max_moves}")
    moves = current.moved_bins(target)
    weights = sizes if sizes is not None else {}
    if sizes is not None:
        moves.sort(key=lambda inst: (-weights.get(inst.bin, 0.0), inst.bin))
    owners = current.assignment
    cap = len(moves) if max_moves is None else max_moves
    steps: list[MigrationStep] = []
    # The walk resumes at ``start``: copying the unwalked tail after every
    # step would make fluid quadratic in the number of moves.
    start = 0
    while start < len(moves):
        step: list[ControlInst] = []
        deferred: list[ControlInst] = []
        sources: set[int] = set()
        destinations: set[int] = set()
        step_bytes = 0.0
        end = len(moves)
        index = start
        while index < end:
            inst = moves[index]
            index += 1
            if disjoint and (owners[inst.bin] in sources or inst.worker in destinations):
                deferred.append(inst)
                continue
            if max_bytes is not None:
                size = weights.get(inst.bin, 0.0)
                if step and step_bytes + size > max_bytes:
                    deferred.append(inst)
                    continue
                step_bytes += size
            if disjoint:
                sources.add(owners[inst.bin])
                destinations.add(inst.worker)
            step.append(inst)
            if len(step) == cap:
                end = index
                break
        steps.append(MigrationStep(tuple(step)))
        if deferred:
            moves, start = deferred + moves[end:], 0
        else:
            start = end
    return steps


# Each strategy is a setting of :func:`schedule`, given the run's
# ``batch_size``.
STRATEGIES: dict[str, Callable[[Optional[int]], dict]] = {
    "all-at-once": lambda batch_size: {},
    "fluid": lambda batch_size: {"max_moves": 1},
    "batched": lambda batch_size: {"max_moves": batch_size},
    "optimized": lambda batch_size: {"disjoint": True},
}


def make_plan(
    strategy: str,
    current: BinnedConfiguration,
    target: BinnedConfiguration,
    batch_size: Optional[int] = None,
) -> MigrationPlan:
    """Build a plan by strategy name (``batch_size`` is batched's cap)."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; pick one of {tuple(STRATEGIES)}"
        )
    if strategy == "batched" and batch_size is None:
        raise ValueError("the batched strategy needs a batch_size")
    settings = STRATEGIES[strategy](batch_size)
    return MigrationPlan(strategy, schedule(current, target, **settings))


# -- targets: the paper's scenario (§5, setup) and the load-driven searches ----


def imbalanced_target(initial: BinnedConfiguration) -> BinnedConfiguration:
    """The paper's first migration: half the bins of the first half of the
    workers move to the corresponding worker of the second half (25 % of
    all state), producing an imbalanced assignment."""
    workers = max(initial.assignment) + 1
    half = workers // 2
    if half == 0:
        return initial
    assignment = list(initial.assignment)
    for w in range(half):
        owned = [b for b, owner in enumerate(assignment) if owner == w]
        for b in owned[: len(owned) // 2]:
            assignment[b] = w + half
    return BinnedConfiguration(tuple(assignment))


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
    balance).  A ``num_workers`` above the current range scales out: the
    fresh workers start empty, so the search populates them.
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
