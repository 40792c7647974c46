"""The elastic part of a run: the membership directory, which the run's
controller places bins by, the scaling coordinator running the scripted
joins and leaves, and the autoscaler."""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Optional

from repro.elastic.autoscaler import Autoscaler
from repro.elastic.coordinator import ScalingCoordinator
from repro.elastic.membership import MembershipDirectory
from repro.planner.telemetry import run_telemetry


def attach(run) -> Optional[SimpleNamespace]:
    """Attach elastic membership when the config makes the run elastic."""
    cfg = run.config
    if not cfg.elastic or run.op is None:
        return None
    directory = MembershipDirectory(cfg.num_workers, cfg.initial_active, sim=run.sim)
    run.controller.directory = directory
    telemetry = run_telemetry(run) if cfg.autoscale is not None else None
    scaling = ScalingCoordinator(
        run.runtime, run.op, directory, run.source, run.controller,
        strategy=cfg.strategy, batch_size=cfg.batch_size, gap_s=cfg.gap_s,
        pace_s=cfg.pace_s, telemetry=telemetry,
    )
    for event in cfg.scaling_plan.events if cfg.scaling_plan is not None else ():
        request = scaling.request_join if event.action == "join" else scaling.request_leave
        run.sim.schedule_at(event.at_s, partial(request, event.workers))
    autoscaler = None
    if cfg.autoscale is not None:
        autoscaler = Autoscaler(
            run.runtime, telemetry, directory, scaling, cfg.autoscale,
            stop_s=cfg.duration_s,
        )
        autoscaler.start()
    run.busy.append(lambda: scaling.busy)

    def finish(result) -> None:
        result.membership = list(directory.history)
        result.scaling = scaling.report
        if autoscaler is not None:
            result.autoscale_decisions = list(autoscaler.decisions)

    return SimpleNamespace(finish=finish)
