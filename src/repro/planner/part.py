"""The planner part of a run: load telemetry, the calibrated cost model
and the closed-loop planner, which submits its plans to the run's one
controller."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from repro.planner.cost import MigrationCostModel
from repro.planner.policy import ClosedLoopPlanner
from repro.planner.telemetry import run_telemetry


def attach(run) -> Optional[SimpleNamespace]:
    """Attach the closed-loop planner when the config carries one."""
    cfg = run.config
    if cfg.planner is None or run.op is None:
        return None
    telemetry = run_telemetry(run, cfg.planner.telemetry)
    cost_model = MigrationCostModel(
        run.sim.trace,
        prior=cfg.resolved_cost(),
        bandwidth_bytes_per_s=cfg.bandwidth_bytes_per_s,
        network_latency_s=cfg.network_latency_s,
    )
    planner = ClosedLoopPlanner(
        run.runtime, telemetry, cost_model, cfg.planner,
        controller=run.controller, stop_s=cfg.duration_s,
    )
    planner.start()
    run.on_input_closed.append(planner.stop)
    # The reported imbalance is the ratio while load still flows; sampling
    # after the source stops would read an empty window.
    imbalance: list = []
    run.sim.schedule_at(cfg.duration_s, lambda: imbalance.append(telemetry.imbalance()))

    def finish(result) -> None:
        result.planner = planner.report
        result.final_imbalance = imbalance[0] if imbalance else telemetry.imbalance()
        cost_model.close()
        result.cost_model = cost_model

    return SimpleNamespace(finish=finish)
