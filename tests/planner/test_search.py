"""Tests for objective-driven target search and the planner's step grouping."""

import json

import pytest

from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.migration import (
    MigrationPlan,
    balanced_target,
    drain_target,
    schedule,
)
from repro.megaphone.plan_io import plan_from_dict, plan_to_dict
from repro.planner.policy import PLANNER_STRATEGY
from repro.planner.search import search_target
from repro.planner.telemetry import imbalance_ratio


class UniformTelemetry:
    def __init__(self, num_bins):
        self.num_bins = num_bins

    def bin_load(self):
        return {b: 1.0 for b in range(self.num_bins)}


def loads_under(config: BinnedConfiguration, bin_load, num_workers):
    loads = {w: 0.0 for w in range(num_workers)}
    for bin_id, load in bin_load.items():
        loads[config.worker_of(bin_id)] += load
    return loads


def test_balanced_target_reduces_imbalance():
    # Worker 0 owns every hot bin.
    assignment = [0] * 8 + [1] * 8 + [2] * 8 + [3] * 8
    current = BinnedConfiguration(tuple(assignment))
    bin_load = {b: 10.0 for b in range(8)}
    bin_load.update({b: 1.0 for b in range(8, 32)})
    target = balanced_target(current, bin_load, num_workers=4)
    before = imbalance_ratio(loads_under(current, bin_load, 4))
    after = imbalance_ratio(loads_under(target, bin_load, 4))
    assert after < before
    assert after < 1.25


def test_balanced_target_leaves_balanced_alone():
    current = BinnedConfiguration.round_robin(16, 4)
    bin_load = {b: 1.0 for b in range(16)}
    target = balanced_target(current, bin_load, num_workers=4)
    assert target == current


def test_balanced_target_never_moves_cold_bins():
    current = BinnedConfiguration(tuple([0] * 8 + [1] * 8))
    bin_load = {0: 10.0}  # every other bin unobserved
    target = balanced_target(current, bin_load, num_workers=2)
    for bin_id in range(1, 16):
        assert target.worker_of(bin_id) == current.worker_of(bin_id)


def test_balanced_target_respects_move_budget():
    assignment = [0] * 16 + [1] * 16
    current = BinnedConfiguration(tuple(assignment))
    bin_load = {b: float(32 - b) for b in range(32)}
    target = balanced_target(current, bin_load, num_workers=2, max_moves=3)
    assert len(current.moved_bins(target)) <= 3


def test_drain_target_empties_workers():
    current = BinnedConfiguration.round_robin(16, 4)
    bin_load = {b: 1.0 for b in range(16)}
    target = drain_target(current, bin_load, (3,), num_workers=4)
    assert target.bins_of(3) == []
    # Everything still owned, spread over survivors.
    assert sorted(
        b for w in range(3) for b in target.bins_of(w)
    ) == list(range(16))
    with pytest.raises(ValueError, match="drain every worker"):
        drain_target(current, bin_load, (0, 1, 2, 3), num_workers=4)


def test_spread_objective_populates_fresh_workers():
    current = BinnedConfiguration.round_robin(16, 2)  # workers 0 and 1 only
    telemetry = UniformTelemetry(16)
    target = search_target("spread", current, telemetry, num_workers=4)
    for worker in range(4):
        assert target.bins_of(worker), f"worker {worker} got no bins"
    after = imbalance_ratio(loads_under(target, telemetry.bin_load(), 4))
    assert after < 1.25


def test_planner_steps_are_interference_free():
    current = BinnedConfiguration.round_robin(32, 4)
    bin_load = {b: float(b % 7) for b in range(32)}
    target = balanced_target(
        current, {b: 10.0 if b < 8 else 1.0 for b in range(32)}, num_workers=4
    )
    sizes = {b: 1024.0 for b in range(32)}
    config = current
    for step in schedule(current, target, disjoint=True, sizes=sizes):
        sources = [config.worker_of(inst.bin) for inst in step.insts]
        destinations = [inst.worker for inst in step.insts]
        assert len(sources) == len(set(sources)), "source used twice in a step"
        assert len(destinations) == len(set(destinations)), (
            "destination used twice in a step"
        )
        config = config.apply(list(step.insts))
    # The plan lands exactly on the target.
    assert config == target


def test_planner_steps_respect_the_byte_cap():
    current = BinnedConfiguration(tuple([0] * 8))
    target = BinnedConfiguration(tuple([1, 2, 3, 1, 2, 3, 1, 2]))
    sizes = {b: 1000.0 for b in range(8)}
    steps = schedule(current, target, disjoint=True, sizes=sizes, max_bytes=1000.0)
    for step in steps:
        assert sum(sizes[inst.bin] for inst in step.insts) <= 1000.0
    assert sum(len(step) for step in steps) == 8


def test_planner_plans_are_valid_plan_io_documents():
    """Plans the planner emits are byte-valid plan_io documents that any
    existing controller can execute without planner imports."""
    current = BinnedConfiguration.round_robin(16, 4)
    target = balanced_target(
        current, {b: 10.0 if b < 4 else 1.0 for b in range(16)}, num_workers=4
    )
    plan = MigrationPlan(PLANNER_STRATEGY, schedule(current, target, disjoint=True))
    data = plan_to_dict(plan)
    json.dumps(data)  # actually JSON-serializable
    restored = plan_from_dict(json.loads(json.dumps(data)))
    assert restored.strategy == plan.strategy
    assert restored.steps == plan.steps


def test_search_target_registry():
    current = BinnedConfiguration.round_robin(8, 2)
    telemetry = UniformTelemetry(8)
    target = search_target("balance", current, telemetry, num_workers=2)
    assert isinstance(target, BinnedConfiguration)
    with pytest.raises(ValueError, match="unknown objective"):
        search_target("nope", current, telemetry)
    with pytest.raises(ValueError, match="drain_workers"):
        search_target("drain", current, telemetry)
