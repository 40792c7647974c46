"""Objective-driven target search: the planner's registry of objectives.

Given the telemetry's per-bin load, each objective finds a target
:class:`~repro.megaphone.control.BinnedConfiguration`:

* ``balance`` — greedy bin packing (move the hottest bin from the most
  loaded worker to the least loaded, while it improves) followed by a
  local-search swap pass, minimizing max/mean load;
* ``drain`` — empty a worker (scale-in), spreading its bins across the
  survivors by load;
* ``spread`` — populate fresh workers (scale-out): the balance search
  over the widened worker range.

Each mutates as few bins as possible: search starts from the current
assignment, so unmoved bins cost nothing.  The searches themselves live
beside the paper's targets in :mod:`repro.megaphone.migration`, which
also groups the moves into steps (:func:`~repro.megaphone.migration.schedule`).
"""

from __future__ import annotations

from typing import Callable

from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.migration import balanced_target, drain_target


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
    return balanced_target(current, telemetry.bin_load(), num_workers=num_workers)


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
