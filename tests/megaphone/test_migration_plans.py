"""Tests for migration strategy planning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.migration import STRATEGIES, imbalanced_target, make_plan


def configs(num_bins=16, workers=4):
    current = BinnedConfiguration.round_robin(num_bins, workers)
    target = BinnedConfiguration.contiguous(num_bins, workers)
    return current, target


def test_all_at_once_single_step():
    current, target = configs()
    plan = make_plan("all-at-once", current, target)
    assert len(plan.steps) == 1
    assert plan.configurations(current)[-1] == target


def test_all_at_once_noop_when_equal():
    current, _ = configs()
    assert make_plan("all-at-once", current, current).steps == []


def test_fluid_one_move_per_step():
    current, target = configs()
    plan = make_plan("fluid", current, target)
    assert all(len(step) == 1 for step in plan.steps)
    assert plan.total_moves == len(current.moved_bins(target))
    assert plan.configurations(current)[-1] == target


def test_batched_respects_batch_size():
    current, target = configs()
    plan = make_plan("batched", current, target, batch_size=3)
    assert all(len(step) <= 3 for step in plan.steps)
    assert plan.configurations(current)[-1] == target


@pytest.mark.parametrize("batch_size", [0, -2, None])
def test_batched_refuses_a_batch_size_below_one(batch_size):
    # 0 once planned batches of 16 (``batch_size or 16``).
    current, target = configs()
    with pytest.raises(ValueError):
        make_plan("batched", current, target, batch_size=batch_size)


def test_optimized_steps_use_disjoint_worker_pairs():
    current, target = configs()
    plan = make_plan("optimized", current, target)
    for step in plan.steps:
        sources = [current.worker_of(i.bin) for i in step.insts]
        dests = [i.worker for i in step.insts]
        assert len(set(sources)) == len(sources)
        assert len(set(dests)) == len(dests)
    assert plan.configurations(current)[-1] == target


def test_optimized_fewer_steps_than_fluid():
    current, target = configs(num_bins=64, workers=8)
    fluid = make_plan("fluid", current, target)
    optimized = make_plan("optimized", current, target)
    assert len(optimized.steps) < len(fluid.steps)
    assert optimized.total_moves == fluid.total_moves


def test_make_plan_dispatch():
    current, target = configs()
    assert make_plan("all-at-once", current, target).strategy == "all-at-once"
    assert make_plan("fluid", current, target).strategy == "fluid"
    assert make_plan("batched", current, target, batch_size=2).strategy == "batched"
    assert make_plan("optimized", current, target).strategy == "optimized"
    with pytest.raises(ValueError):
        make_plan("bogus", current, target)


def test_imbalanced_target_moves_quarter_of_state():
    initial = BinnedConfiguration.round_robin(16, 4)
    target = imbalanced_target(initial)
    moves = initial.moved_bins(target)
    # Half the bins of half the workers: 16 bins / 4 = 4 per worker;
    # workers 0 and 1 each give up 2 bins.
    assert len(moves) == 4
    for inst in moves:
        assert initial.worker_of(inst.bin) in (0, 1)
        assert inst.worker in (2, 3)


@given(
    st.integers(1, 5).map(lambda p: 2 ** p),
    st.integers(2, 6),
    st.sampled_from(list(STRATEGIES)),
)
def test_property_every_strategy_reaches_target(log_bins, workers, strategy):
    current = BinnedConfiguration.round_robin(log_bins * 4, workers)
    # A deterministic scrambled target.
    target = BinnedConfiguration(
        tuple((w * 3 + 1) % workers for w in current.assignment)
    )
    plan = make_plan(strategy, current, target, batch_size=3)
    if current == target:
        assert plan.total_moves == 0
    else:
        assert plan.configurations(current)[-1] == target
