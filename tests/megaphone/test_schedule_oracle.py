"""Every strategy is a setting of one step grouper, and it groups as the
old per-strategy functions did.

``tests/megaphone/reference_plans.py`` holds the four strategy functions
and the planner's ``plan_moves`` as they were before
:func:`repro.megaphone.migration.schedule` replaced them.  Random
(current, target, batch size, bin sizes, byte cap) draws run through
both; each preset, and the planner's hottest-first byte-capped setting,
must produce the same steps in the same order.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.migration import STRATEGIES, make_plan, schedule
from tests.megaphone import reference_plans

_SIZE_CHOICES = (0.0, 1.0, 25.0, 50.0, 100.0, 150.0, 300.0)


@st.composite
def _cases(draw):
    num_bins = draw(st.integers(1, 256))
    workers = draw(st.integers(2, 16))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    current = tuple(rng.randrange(workers) for _ in range(num_bins))
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    target = tuple(
        rng.randrange(workers) if rng.random() < share else owner
        for owner in current
    )
    # Sizes from a few values, so hottest-first order has ties to break;
    # some bins have no size at all.
    if draw(st.booleans()):
        sizes = {
            b: rng.choice(_SIZE_CHOICES) for b in range(num_bins) if rng.random() < 0.9
        }
    else:
        sizes = {b: rng.uniform(0.0, 400.0) for b in range(num_bins)}
    return dict(
        current=BinnedConfiguration(current),
        target=BinnedConfiguration(target),
        batch_size=draw(st.sampled_from([1, 2, 3, 16, 64]) | st.integers(1, 80)),
        sizes=sizes,
        max_bytes=draw(st.sampled_from([None, 50.0, 200.0]) | st.floats(0.0, 1000.0)),
        max_moves=draw(st.none() | st.integers(1, 8)),
    )


_REFERENCE = {
    "all-at-once": lambda c: reference_plans.plan_all_at_once(c["current"], c["target"]),
    "fluid": lambda c: reference_plans.plan_fluid(c["current"], c["target"]),
    "batched": lambda c: reference_plans.plan_batched(
        c["current"], c["target"], c["batch_size"]
    ),
    "optimized": lambda c: reference_plans.plan_optimized(c["current"], c["target"]),
}


def test_the_reference_covers_every_strategy():
    assert set(_REFERENCE) == set(STRATEGIES)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cases())
def test_every_preset_groups_as_its_old_function(case):
    for strategy, reference in _REFERENCE.items():
        plan = make_plan(strategy, case["current"], case["target"], case["batch_size"])
        expected = reference(case)
        assert plan.strategy == expected.strategy
        assert plan.steps == expected.steps, strategy


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cases())
def test_the_planner_setting_groups_as_plan_moves(case):
    current, target, sizes = case["current"], case["target"], case["sizes"]
    steps = schedule(
        current, target, disjoint=True, sizes=sizes, max_bytes=case["max_bytes"],
        max_moves=case["max_moves"],
    )
    expected = reference_plans.plan_moves(
        current, target, bin_bytes=sizes, max_step_bytes=case["max_bytes"],
        max_step_moves=case["max_moves"],
    )
    assert steps == expected.steps
    # With no sizes the planner walks the bins in order, as optimized does.
    assert schedule(current, target, disjoint=True, sizes={}) == (
        reference_plans.plan_moves(current, target).steps
    )
