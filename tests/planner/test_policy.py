"""Tests for the closed-loop policy: gating, cooldown, propose-only."""

from types import SimpleNamespace

from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.controller import ConfigurationLedger
from repro.planner.cost import MigrationCostModel
from repro.planner.policy import ClosedLoopPlanner, PlannerConfig
from repro.runtime_events.events import PlanAdopted, PlanRejected
from repro.sim.engine import Simulator


class FlipFlopTelemetry:
    """Always-skewed telemetry whose hot bin alternates every read, so
    every decision point finds something to move (the thrashing input the
    cooldown must suppress)."""

    skewed = True
    observed_window_s = 1.0

    def __init__(self) -> None:
        self.reads = 0

    def bin_load(self):
        # propose() reads the load twice per decision (search + gain);
        # flip per decision so both reads within one decision agree.
        decision = self.reads // 2
        self.reads += 1
        hot = decision % 2
        return {b: (10.0 if b == hot else 1.0) for b in range(4)}

    def bin_bytes(self):
        return {b: 1024.0 for b in range(4)}


class FakeController:
    done = True

    def __init__(self) -> None:
        self.started_at = None

    def start_at(self, at):
        self.started_at = at


def make_planner(config: PlannerConfig, sim=None):
    sim = sim if sim is not None else Simulator()
    runtime = SimpleNamespace(
        sim=sim, workers=[SimpleNamespace(shared={}) for _ in range(2)]
    )
    config.objective_options.setdefault("num_workers", 2)
    planner = ClosedLoopPlanner(
        runtime,
        FlipFlopTelemetry(),
        MigrationCostModel(),
        config,
        controller_factory=lambda plan: FakeController(),
        ledger=ConfigurationLedger(BinnedConfiguration.round_robin(4, 2)),
    )
    return planner, sim


def test_cooldown_suppresses_thrashing():
    noisy = PlannerConfig(
        decide_s=0.5, start_s=0.0, cooldown_s=0.0, min_gain=0.0, stop_s=5.0
    )
    planner, sim = make_planner(noisy)
    planner.start()
    sim.run(until=6.0)
    without_cooldown = len(planner.report.adopted)

    calm = PlannerConfig(
        decide_s=0.5, start_s=0.0, cooldown_s=10.0, min_gain=0.0, stop_s=5.0
    )
    planner, sim = make_planner(calm)
    planner.start()
    sim.run(until=6.0)
    with_cooldown = len(planner.report.adopted)

    assert without_cooldown >= 5  # the input really does thrash
    assert with_cooldown == 1  # cooldown holds the line
    assert len(planner.controllers) == 1


def test_min_gain_gate_rejects_and_traces():
    config = PlannerConfig(
        decide_s=0.5, start_s=0.0, cooldown_s=0.0, min_gain=100.0, stop_s=2.0
    )
    planner, sim = make_planner(config)
    events = []
    sim.trace.subscribe(events.append, topics=("planner",))
    planner.start()
    sim.run(until=3.0)
    assert planner.report.proposals
    assert not planner.report.adopted
    assert all("min_gain" in p.reason for p in planner.report.proposals)
    assert not planner.controllers
    kinds = [type(e) for e in events]
    assert PlanRejected in kinds
    assert PlanAdopted not in kinds


def test_propose_only_never_executes():
    config = PlannerConfig(
        decide_s=0.5,
        start_s=0.0,
        cooldown_s=0.0,
        min_gain=0.0,
        stop_s=2.0,
        propose_only=True,
    )
    planner, sim = make_planner(config)
    planner.start()
    sim.run(until=3.0)
    assert planner.report.adopted  # plans clear the gate...
    assert not planner.controllers  # ...but nothing runs
    assert planner.current == BinnedConfiguration.round_robin(4, 2)


def test_adopted_plans_carry_planner_provenance():
    config = PlannerConfig(
        decide_s=0.5, start_s=0.0, cooldown_s=10.0, min_gain=0.0, stop_s=2.0
    )
    planner, sim = make_planner(config)
    planner.start()
    sim.run(until=3.0)
    (proposal,) = planner.report.adopted[:1]
    assert proposal.plan.provenance.source == "planner"
    assert proposal.plan.provenance.objective == "balance"
    assert proposal.plan.provenance.window_s == 1.0


def test_decisions_stop_at_stop_s():
    config = PlannerConfig(decide_s=0.5, start_s=0.0, stop_s=1.0)
    planner, sim = make_planner(config)
    planner.start()
    sim.run(until=10.0)
    # Decisions at 0.0 and 0.5 only; the 1.0 tick sees stop_s and halts.
    assert planner.report.decisions == 2
