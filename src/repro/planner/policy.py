"""The closed-loop planner: observe, decide, migrate, cool down.

This is the component the paper leaves to "an external controller"
(§4.4): it watches :class:`~repro.planner.telemetry.LoadTelemetry`,
and when the skew detector is armed it searches a target configuration
(:mod:`repro.planner.search`), prices the move
(:mod:`repro.planner.cost`), and — if the projected imbalance gain
clears the cost/benefit gate — submits the plan to the run's one
:class:`~repro.megaphone.controller.MigrationController`.  It decides only
while that controller is idle, so the plan it priced from the
controller's ``current`` assignment is the plan that is sent.  Megaphone
itself never knows who authored the plan.

Safeguards against thrashing and latency damage:

* **hysteresis** — decisions only start when the detector (not a single
  sample) says skewed;
* **cooldown** — after an adopted migration, no new plan for
  ``cooldown_s`` simulated seconds, so the telemetry window can refill
  with post-move observations;
* **cost/benefit gate** — plans whose projected imbalance gain is below
  ``min_gain``, or whose predicted duration exceeds ``max_cost_s``, are
  rejected (and traced as such);
* **SLO pacing** — each step's shipment is capped at the bytes the cost
  model prices inside ``slo_step_s``, so no single step stalls the
  pipeline longer than the budget.

``propose_only=True`` turns the planner into an advisor: plans are
searched, priced, traced, and recorded on the report, but never
executed — the CLI's observe→propose mode and the CI smoke job use this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.controller import MigrationController
from repro.megaphone.migration import MigrationPlan, schedule
from repro.megaphone.plan_io import PlanProvenance
from repro.planner.cost import MigrationCostModel, imbalance_gain
from repro.planner.config import PlannerConfig
from repro.planner.search import search_target
from repro.planner.telemetry import LoadTelemetry
from repro.runtime_events.events import PlanAdopted, PlanProposed, PlanRejected

# The strategy name on every plan the planner emits.
PLANNER_STRATEGY = "planner"


@dataclass(frozen=True)
class Proposal:
    """One decision-point outcome, as recorded on the report."""

    at: float
    objective: str
    moves: int
    steps: int
    predicted_cost_s: float
    predicted_gain: float
    adopted: bool
    reason: str  # "" when adopted
    plan: MigrationPlan


@dataclass
class PlannerReport:
    """Everything a run reports about the planner's decisions."""

    proposals: list[Proposal] = field(default_factory=list)
    decisions: int = 0

    @property
    def adopted(self) -> list[Proposal]:
        return [p for p in self.proposals if p.adopted]

    @property
    def rejected(self) -> list[Proposal]:
        return [p for p in self.proposals if not p.adopted]


class ClosedLoopPlanner:
    """Periodic decision loop wiring telemetry → search → cost → control.

    A behavioral component: schedules its own decision events and may
    submit migrations to ``controller``, the run's one
    :class:`~repro.megaphone.controller.MigrationController` (with fault
    handling when chaos is enabled).  Plans start from its ``current``
    assignment, which every step sent advances, so the planner sees
    scheduled moves and crash retargets as well as its own plans.
    """

    def __init__(
        self,
        runtime,
        telemetry: LoadTelemetry,
        cost_model: MigrationCostModel,
        config: Optional[PlannerConfig] = None,
        *,
        controller: MigrationController,
        stop_s: Optional[float] = None,
    ) -> None:
        self._runtime = runtime
        self._controller = controller
        self.telemetry = telemetry
        self.cost_model = cost_model
        self.config = config if config is not None else PlannerConfig()
        # The config's own stop wins; ``stop_s`` is the caller's default
        # (the harness passes the run's duration) and is never written
        # back into the shared config.
        self._stop_s = self.config.stop_s if self.config.stop_s is not None else stop_s
        self.report = PlannerReport()
        self._cooldown_until = float("-inf")
        self._stopped = False

    @property
    def current(self) -> BinnedConfiguration:
        """The configuration the control stream has converged to."""
        return self._controller.current

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin deciding at ``config.start_s`` simulated seconds."""
        self._runtime.sim.schedule_at(self.config.start_s, self._decide)

    def stop(self) -> None:
        """No further decisions (running migrations finish normally)."""
        self._stopped = True

    # -- the decision loop ---------------------------------------------------

    def _decide(self) -> None:
        sim = self._runtime.sim
        cfg = self.config
        if self._stopped or (self._stop_s is not None and sim.now >= self._stop_s):
            return
        try:
            self._decide_once()
        finally:
            self.report.decisions += 1
            sim.schedule(cfg.decide_s, self._decide)

    def _decide_once(self) -> None:
        sim = self._runtime.sim
        cfg = self.config
        if not self._controller.idle:
            return  # one migration at a time
        if sim.now < self._cooldown_until:
            return
        # The skew detector gates reactive balancing only; drain/spread
        # are operator-requested reshapes that must run on a balanced
        # cluster too.
        if cfg.objective == "balance" and not self.telemetry.skewed:
            return
        proposal = self.propose()
        if proposal is None:
            return
        if proposal.adopted and not cfg.propose_only:
            self._execute(proposal.plan)
            self._cooldown_until = sim.now + cfg.cooldown_s

    def propose(self) -> Optional[Proposal]:
        """Search, price, gate, and trace one plan (None = nothing to do).

        Pure decision logic: never schedules or executes; callers decide
        what to do with an adopted proposal.
        """
        sim = self._runtime.sim
        cfg = self.config
        trace = sim.trace
        num_workers = cfg.objective_options.get(
            "num_workers", len(self._runtime.workers)
        )
        target = search_target(
            cfg.objective,
            self.current,
            self.telemetry,
            **{
                "max_moves": cfg.max_moves,
                **cfg.objective_options,
                "num_workers": num_workers,
            },
        )
        bin_bytes = self.telemetry.bin_bytes()
        max_step_bytes = None
        if cfg.slo_step_s is not None:
            max_step_bytes = self.cost_model.bytes_for_budget(cfg.slo_step_s)
            if max_step_bytes <= 0.0:
                max_step_bytes = None
        # The optimized strategy's disjoint steps, hottest bin first, each
        # step's shipment capped at the SLO budget.
        plan = MigrationPlan(
            PLANNER_STRATEGY,
            schedule(
                self.current,
                target,
                disjoint=True,
                sizes=bin_bytes,
                max_bytes=max_step_bytes,
            ),
        )
        if not plan.steps:
            return None
        plan.provenance = PlanProvenance(
            source="planner",
            objective=cfg.objective,
            window_s=self.telemetry.observed_window_s,
            created_at=sim.now,
        )
        cost_s = self.cost_model.predict_plan_s(plan, self.current, bin_bytes)
        gain = imbalance_gain(
            self.telemetry.bin_load(), self.current, target, num_workers
        )
        if trace.wants_planner:
            trace.publish(
                PlanProposed(
                    objective=cfg.objective,
                    moves=plan.total_moves,
                    steps=len(plan.steps),
                    predicted_cost_s=cost_s,
                    predicted_gain=gain,
                    at=sim.now,
                )
            )
        reason = self._gate(cost_s, gain)
        adopted = reason == ""
        if trace.wants_planner:
            if adopted:
                trace.publish(
                    PlanAdopted(
                        objective=cfg.objective,
                        moves=plan.total_moves,
                        steps=len(plan.steps),
                        predicted_cost_s=cost_s,
                        predicted_gain=gain,
                        at=sim.now,
                    )
                )
            else:
                trace.publish(
                    PlanRejected(
                        objective=cfg.objective,
                        reason=reason,
                        predicted_cost_s=cost_s,
                        predicted_gain=gain,
                        at=sim.now,
                    )
                )
        proposal = Proposal(
            at=sim.now,
            objective=cfg.objective,
            moves=plan.total_moves,
            steps=len(plan.steps),
            predicted_cost_s=cost_s,
            predicted_gain=gain,
            adopted=adopted,
            reason=reason,
            plan=plan,
        )
        self.report.proposals.append(proposal)
        return proposal

    def _gate(self, cost_s: float, gain: float) -> str:
        """The cost/benefit gate; "" passes, anything else is the reason."""
        cfg = self.config
        # Drain/spread objectives reshape the cluster on request — the
        # imbalance gain is not what they optimize, so only balance-style
        # objectives are gated on it.
        if cfg.objective == "balance" and gain < cfg.min_gain:
            return f"gain {gain:.3f} below min_gain {cfg.min_gain:.3f}"
        if cfg.max_cost_s is not None and cost_s > cfg.max_cost_s:
            return f"cost {cost_s:.3f}s above max_cost_s {cfg.max_cost_s:.3f}s"
        return ""

    def _execute(self, plan: MigrationPlan) -> None:
        self._controller.submit(lambda _current: plan, gap_s=self.config.gap_s)
