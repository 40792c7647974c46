"""The five step groupers before they became one: the test oracle for
:func:`repro.megaphone.migration.schedule`.

Each strategy once had its own loop, and the planner a fifth.  They are
kept here as they were, so that every preset of ``schedule`` (and the
planner's setting) can be checked step for step against the function it
replaced:

* ``plan_all_at_once`` — every move in one step;
* ``plan_fluid`` — one move per step;
* ``plan_batched`` — ``batch_size`` moves per step, in bin order;
* ``plan_optimized`` — greedy rounds in bin order, each using a source
  and a destination worker at most once;
* ``plan_moves`` — the planner's: hottest-first by ``(-size, bin)``,
  disjoint rounds, an optional per-step byte cap (the first move of a
  step always fits) and an optional per-step move cap.
"""

from __future__ import annotations

from typing import Optional

from repro.megaphone.control import BinnedConfiguration, ControlInst
from repro.megaphone.migration import MigrationPlan, MigrationStep


def plan_all_at_once(
    current: BinnedConfiguration, target: BinnedConfiguration
) -> MigrationPlan:
    moves = current.moved_bins(target)
    steps = [MigrationStep(tuple(moves))] if moves else []
    return MigrationPlan(strategy="all-at-once", steps=steps)


def plan_fluid(
    current: BinnedConfiguration, target: BinnedConfiguration
) -> MigrationPlan:
    return MigrationPlan(
        strategy="fluid",
        steps=[MigrationStep((move,)) for move in current.moved_bins(target)],
    )


def plan_batched(
    current: BinnedConfiguration,
    target: BinnedConfiguration,
    batch_size: int = 16,
) -> MigrationPlan:
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    moves = current.moved_bins(target)
    steps = [
        MigrationStep(tuple(moves[i:i + batch_size]))
        for i in range(0, len(moves), batch_size)
    ]
    return MigrationPlan(strategy="batched", steps=steps)


def plan_optimized(
    current: BinnedConfiguration, target: BinnedConfiguration
) -> MigrationPlan:
    moves = current.moved_bins(target)
    remaining: list[tuple[int, int, ControlInst]] = [
        (current.worker_of(inst.bin), inst.worker, inst) for inst in moves
    ]
    steps: list[MigrationStep] = []
    while remaining:
        used_src: set[int] = set()
        used_dst: set[int] = set()
        round_insts: list[ControlInst] = []
        deferred: list[tuple[int, int, ControlInst]] = []
        for src, dst, inst in remaining:
            if src not in used_src and dst not in used_dst:
                used_src.add(src)
                used_dst.add(dst)
                round_insts.append(inst)
            else:
                deferred.append((src, dst, inst))
        steps.append(MigrationStep(tuple(round_insts)))
        remaining = deferred
    return MigrationPlan(strategy="optimized", steps=steps)


def plan_moves(
    current: BinnedConfiguration,
    target: BinnedConfiguration,
    bin_bytes: Optional[dict[int, float]] = None,
    max_step_bytes: Optional[float] = None,
    max_step_moves: Optional[int] = None,
) -> MigrationPlan:
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
            round_insts = [deferred.pop(0)[2]]
        steps.append(MigrationStep(tuple(round_insts)))
        remaining = deferred
    return MigrationPlan(strategy="planner", steps=steps)
