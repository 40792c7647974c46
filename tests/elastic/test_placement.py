"""One rule decides which workers may receive bins: every step the run's
controller sends lands only on workers that are live and, on elastic runs,
joining or active — whichever writer planned it."""

from types import SimpleNamespace

from repro.elastic import MembershipDirectory, ScalingCoordinator, ScalingPlan
from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.megaphone.control import BinnedConfiguration
from repro.obsv.matrix import _bins_off_active


def _sent(migration) -> set:
    return {inst.worker for step in migration.steps for inst in step.insts}


def test_a_drain_packs_the_evacuees_onto_active_workers_only():
    # Six slots, four active: the drain's survivors once included the
    # standby slots 4 and 5, which received all four of worker 3's bins.
    cfg = ExperimentConfig(
        num_workers=6, workers_per_process=2, num_bins=16, domain=1024,
        rate=2000, duration_s=4.0, strategy="fluid", active_workers=4,
        scaling_plan=ScalingPlan.parse("leave@2.0:3"), fingerprint_state=True,
    )
    result = run_count_experiment(cfg)
    (drain,) = result.migrations
    assert sum(step.moves for step in drain.steps) == 4
    assert _sent(drain) <= {0, 1, 2}
    assert result.scaling.residual_bins == 0
    assert _bins_off_active(result) == 0


def test_a_scheduled_migration_sends_nothing_to_a_retired_worker():
    # The third (imbalancing) migration at 5.0 s once sent bins 1 and 5 to
    # worker 3, which the drain at 2.0 s had retired.
    cfg = ExperimentConfig(
        num_workers=4, workers_per_process=2, num_bins=16, domain=1024,
        rate=5000, duration_s=6.0, migrate_at_s=(1.0, 3.0, 5.0),
        strategy="fluid", scaling_plan=ScalingPlan.parse("leave@2.0:3"),
    )
    result = run_count_experiment(cfg)
    first, second, third, drain = result.migrations
    assert third.started_at >= 5.0 > drain.completed_at
    assert third.steps
    assert 3 not in _sent(third)
    assert result.scaling.residual_bins == 0
    assert _bins_off_active(result) == 0


def test_the_drain_plans_onto_the_controllers_placeable_workers():
    # The drain's survivors are the controller's placement rule, not every
    # other provisioned slot: standby slots 4 and 5 are not placeable.
    submitted = []
    controller = SimpleNamespace(
        current=BinnedConfiguration.round_robin(16, 4),
        placeable=lambda: [0, 1, 2],
        submit=lambda plan_for, **_: submitted.append(plan_for),
    )
    sim = SimpleNamespace(now=2.0, trace=SimpleNamespace(wants_membership=False))
    source = SimpleNamespace(remove_worker=lambda worker: None)
    coordinator = ScalingCoordinator(
        SimpleNamespace(sim=sim), None, MembershipDirectory(6, 4), source, controller
    )
    coordinator.scale_in((3,))
    (plan_for,) = submitted
    plan = plan_for(controller.current)
    targets = {inst.worker for step in plan.steps for inst in step.insts}
    assert targets == {0, 1, 2}
