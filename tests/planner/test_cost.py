"""Tests for the migration cost model and the imbalance benefit model."""

from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.migration import make_plan
from repro.planner.cost import (
    MigrationCostModel,
    imbalance_gain,
    projected_worker_loads,
)
from repro.runtime_events.bus import TraceBus
from repro.runtime_events.events import (
    BinStateExtracted,
    BinStateInstalled,
    MigrationStepOutcome,
)


def test_move_cost_is_monotone_in_state_size():
    model = MigrationCostModel()
    sizes = [0, 1 << 10, 1 << 16, 1 << 20, 1 << 24]
    costs = [model.predict_move_s(s) for s in sizes]
    assert costs == sorted(costs)
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_step_cost_is_per_worker_serial():
    model = MigrationCostModel()
    size = 1 << 20
    # Two moves from the same source serialize back-to-back; from distinct
    # sources they overlap, so the step is strictly cheaper.
    same_src = model.predict_step_s([(0, 1, size), (0, 2, size)])
    disjoint = model.predict_step_s([(0, 1, size), (3, 2, size)])
    assert disjoint < same_src
    assert model.predict_step_s([]) == 0.0


def test_plan_cost_sums_steps_and_tracks_configuration():
    model = MigrationCostModel()
    current = BinnedConfiguration.round_robin(8, 2)
    target = BinnedConfiguration(tuple((w + 1) % 2 for w in current.assignment))
    plan = make_plan("fluid", current, target)
    sizes = {b: 1 << 16 for b in range(8)}
    total = model.predict_plan_s(plan, current, sizes)
    per_move = model.predict_step_s([(0, 1, 1 << 16)])
    assert abs(total - 8 * per_move) < 1e-9


def test_calibration_recovers_observed_rates():
    bus = TraceBus()
    model = MigrationCostModel(bus)
    assert not model.calibrated
    # Observed: 1 MiB serialized in 2 ms -> ~2e-9 s/B (5x the 0.4e-9 prior).
    for i in range(4):
        bus.publish(
            BinStateExtracted(
                name="count", time=i, bin=i, src=0, dst=1,
                size_bytes=float(1 << 20), serialize_s=2e-3, at=float(i),
            )
        )
        bus.publish(
            BinStateInstalled(
                name="count", time=i, bin=i, worker=1,
                size_bytes=float(1 << 20), deserialize_s=4e-3, at=float(i),
            )
        )
        bus.publish(
            MigrationStepOutcome(
                time=i, moves=1, attempts=1, abandoned=False,
                duration_s=0.05, at=float(i),
            )
        )
    assert model.calibrated
    assert abs(model.ser_rate - 2e-3 / (1 << 20)) < 1e-15
    assert abs(model.deser_rate - 4e-3 / (1 << 20)) < 1e-15
    # Overhead is what the observed duration cannot be explained by.
    assert 0.0 < model.overhead_s < 0.05
    model.close()


def test_bytes_for_budget_inverts_step_cost():
    model = MigrationCostModel()
    budget = 0.05
    size = model.bytes_for_budget(budget)
    assert size > 0
    predicted = model.predict_step_s([(0, 1, size)])
    assert abs(predicted - budget) < 1e-6
    assert model.bytes_for_budget(0.0) == 0.0


def test_abandoned_steps_do_not_calibrate_overhead():
    bus = TraceBus()
    model = MigrationCostModel(bus)
    bus.publish(
        MigrationStepOutcome(
            time=0, moves=1, attempts=5, abandoned=True,
            duration_s=10.0, at=0.0,
        )
    )
    assert model.steps_observed == 0
    assert model.overhead_s == 0.02  # still the prior


def test_projected_loads_and_gain():
    bin_load = {0: 8.0, 1: 1.0, 2: 1.0, 3: 1.0}
    skewed = BinnedConfiguration((0, 0, 0, 0))
    current_loads = projected_worker_loads(bin_load, skewed, 2)
    assert current_loads == {0: 11.0, 1: 0.0}
    balanced = BinnedConfiguration((0, 1, 1, 1))
    gain = imbalance_gain(bin_load, skewed, balanced, 2)
    # 2.0 (all on one of two workers) down to ~1.45.
    assert gain > 0.5
    assert imbalance_gain(bin_load, skewed, skewed, 2) == 0.0


def _publish_move(bus, time, kind, size, ser_s, deser_s):
    bus.publish(
        BinStateExtracted(
            name="count", time=time, bin=time, src=0, dst=1,
            size_bytes=size, serialize_s=ser_s, at=float(time), kind=kind,
        )
    )
    bus.publish(
        BinStateInstalled(
            name="count", time=time, bin=time, worker=1,
            size_bytes=size, deserialize_s=deser_s, at=float(time), kind=kind,
        )
    )


def test_per_kind_rates_calibrate_independently():
    bus = TraceBus()
    model = MigrationCostModel(bus)
    # Full payloads: 1 s/MiB.  Deltas: 4 s/MiB (small, filter-dominated).
    mib = float(1 << 20)
    _publish_move(bus, 0, "full", mib, 1.0, 1.0)
    _publish_move(bus, 1, "delta", mib / 16, 0.25, 0.25)
    assert abs(model.ser_rate_for("full") - 1.0 / mib) < 1e-12
    assert abs(model.ser_rate_for("delta") - 4.0 / mib) < 1e-12
    assert abs(model.deser_rate_for("delta") - 4.0 / mib) < 1e-12
    # An unobserved kind falls back to the aggregate calibrated rate.
    aggregate = model.ser_rate
    assert model.ser_rate_for("base") == aggregate
    model.close()


def test_per_kind_rates_fall_back_to_prior_when_uncalibrated():
    model = MigrationCostModel()
    assert model.ser_rate_for("delta") == model.ser_rate
    assert model.deser_rate_for("full") == model.deser_rate


def test_predict_move_uses_kind_rates():
    bus = TraceBus()
    model = MigrationCostModel(bus)
    mib = float(1 << 20)
    _publish_move(bus, 0, "full", mib, 1.0, 1.0)
    _publish_move(bus, 1, "delta", mib, 8.0, 8.0)
    assert model.predict_move_s(mib, kind="delta") > model.predict_move_s(mib)
    model.close()


def test_plan_cost_with_dirty_fraction_prices_the_delta_path():
    bus = TraceBus()
    model = MigrationCostModel(bus)
    mib = float(1 << 20)
    # Delta per-byte rates equal full rates here; only the byte volume
    # differs, so a 10%-dirty delta plan must cost well under the full one.
    _publish_move(bus, 0, "full", mib, 1.0, 1.0)
    _publish_move(bus, 1, "delta", mib, 1.0, 1.0)
    current = BinnedConfiguration.round_robin(8, 2)
    target = BinnedConfiguration(tuple((w + 1) % 2 for w in current.assignment))
    plan = make_plan("fluid", current, target)
    sizes = {b: 1 << 20 for b in range(8)}
    full_cost = model.predict_plan_s(plan, current, sizes)
    delta_cost = model.predict_plan_s(plan, current, sizes, dirty_fraction=0.1)
    assert delta_cost < full_cost
    # The saving is roughly proportional to the dirty fraction once the
    # fixed per-step overhead is taken out.
    steps = len(plan.steps)
    fixed = steps * model.overhead_s
    assert (delta_cost - fixed) < 0.2 * (full_cost - fixed)
    model.close()
