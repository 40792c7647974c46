"""Migration cost and benefit models.

The paper's Figure 18 shows migration duration proportional to migrated
state size; its latency figures show per-step impact dominated by the
largest single-worker shipment of the step.  The planner prices candidate
plans with exactly that structure:

``move cost``      serialize + ship + install seconds for one bin,
                   linear in the bin's state bytes;
``step cost``      per-step overhead (control propagation, drain,
                   catch-up) plus the slowest worker's serial work —
                   sources serialize their moves back-to-back,
                   destinations install theirs back-to-back;
``plan cost``      sum over steps (completion-paced controllers issue
                   steps serially).

Rates start from the simulator's own :class:`~repro.sim.cost.CostModel`
priors and are *calibrated* from the trace bus: every
``BinStateExtracted`` / ``BinStateInstalled`` refines the per-byte
serialize/install rates, every ``MigrationStepOutcome`` refines the
per-step overhead.  After one observed migration the model predicts from
measurements, not priors.

The benefit side projects worker loads under a candidate assignment and
scores the drop in max/mean imbalance; the policy gates adoption on
(benefit, cost) together.
"""

from __future__ import annotations

from typing import Optional

from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.migration import MigrationPlan
from repro.planner.telemetry import imbalance_ratio
from repro.runtime_events.bus import TraceBus
from repro.runtime_events.events import (
    TOPIC_MIGRATION,
    BinStateExtracted,
    BinStateInstalled,
    MigrationStepOutcome,
)
from repro.sim.cost import CostModel


class MigrationCostModel:
    """Predicts migration latency impact; self-calibrates from the bus.

    Purely observational on the bus (records event data only); all
    prediction methods are pull-based queries.
    """

    def __init__(
        self,
        bus: Optional[TraceBus] = None,
        prior: Optional[CostModel] = None,
        bandwidth_bytes_per_s: float = 1.25e9,
        network_latency_s: float = 40e-6,
        overhead_prior_s: float = 0.02,
    ) -> None:
        cost = prior if prior is not None else CostModel()
        self._prior_ser = cost.ser_byte_cost
        self._prior_deser = cost.deser_byte_cost
        self._bandwidth = bandwidth_bytes_per_s
        self._latency = network_latency_s
        self._overhead_prior = overhead_prior_s
        # Calibration accumulators (totals; rates are ratios of totals, so
        # large bins weigh in proportionally).
        self._ser_bytes = 0.0
        self._ser_seconds = 0.0
        self._deser_bytes = 0.0
        self._deser_seconds = 0.0
        self._overhead_sum = 0.0
        self._overhead_count = 0
        self._pending_step_bytes: dict = {}
        self.moves_observed = 0
        self.steps_observed = 0
        self._unsubscribe = None
        if bus is not None:
            self._unsubscribe = bus.subscribe(
                self._on_event, topics=(TOPIC_MIGRATION,)
            )

    def close(self) -> None:
        """Detach from the bus."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- calibration intake --------------------------------------------------

    def _on_event(self, event) -> None:
        kind = type(event)
        if kind is BinStateExtracted:
            self._ser_bytes += event.size_bytes
            self._ser_seconds += event.serialize_s
            self.moves_observed += 1
            pending = self._pending_step_bytes
            pending[event.time] = pending.get(event.time, 0.0) + event.size_bytes
        elif kind is BinStateInstalled:
            self._deser_bytes += event.size_bytes
            self._deser_seconds += event.deserialize_s
        elif kind is MigrationStepOutcome:
            bytes_moved = self._pending_step_bytes.pop(event.time, 0.0)
            if event.abandoned:
                return
            modeled = bytes_moved * (
                self.ser_rate + self.deser_rate + 1.0 / self._bandwidth
            )
            overhead = event.duration_s - modeled - self._latency
            if overhead > 0.0:
                self._overhead_sum += overhead
                self._overhead_count += 1
            self.steps_observed += 1

    # -- calibrated rates ----------------------------------------------------

    @property
    def ser_rate(self) -> float:
        """Seconds per byte to serialize (calibrated, else prior)."""
        if self._ser_bytes > 0.0:
            return self._ser_seconds / self._ser_bytes
        return self._prior_ser

    @property
    def deser_rate(self) -> float:
        """Seconds per byte to install (calibrated, else prior)."""
        if self._deser_bytes > 0.0:
            return self._deser_seconds / self._deser_bytes
        return self._prior_deser

    @property
    def overhead_s(self) -> float:
        """Per-step fixed seconds: control propagation, drain, catch-up."""
        if self._overhead_count > 0:
            return self._overhead_sum / self._overhead_count
        return self._overhead_prior

    @property
    def calibrated(self) -> bool:
        """Whether any observed migration has refined the priors."""
        return self.moves_observed > 0

    # -- prediction ----------------------------------------------------------

    def predict_move_s(self, size_bytes: float) -> float:
        """Seconds to extract, ship, and install one payload of
        ``size_bytes`` (no per-step overhead; monotone in state size)."""
        return (
            size_bytes * (self.ser_rate + self.deser_rate)
            + size_bytes / self._bandwidth
            + self._latency
        )

    def predict_step_s(self, moves: list) -> float:
        """Seconds for one step of ``(src, dst, size_bytes)`` moves.

        Per-worker work is serial: a source serializes its moves
        back-to-back, a destination installs back-to-back; the step
        completes with the slowest of each, plus shipping and overhead.
        """
        if not moves:
            return 0.0
        ser = self.ser_rate
        deser = self.deser_rate
        src_s: dict[int, float] = {}
        dst_s: dict[int, float] = {}
        total_bytes = 0.0
        for src, dst, size in moves:
            src_s[src] = src_s.get(src, 0.0) + size * ser
            dst_s[dst] = dst_s.get(dst, 0.0) + size * deser
            total_bytes += size
        return (
            self.overhead_s
            + max(src_s.values())
            + total_bytes / self._bandwidth
            + self._latency
            + max(dst_s.values())
        )

    def predict_plan_s(
        self,
        plan: MigrationPlan,
        current: BinnedConfiguration,
        bin_bytes: dict[int, float],
    ) -> float:
        """Seconds to execute ``plan`` from ``current`` under completion
        pacing (steps run serially)."""
        total = 0.0
        config = current
        for step in plan.steps:
            moves = [
                (
                    config.worker_of(inst.bin),
                    inst.worker,
                    float(bin_bytes.get(inst.bin, 0.0)),
                )
                for inst in step.insts
            ]
            total += self.predict_step_s(moves)
            config = config.apply(list(step.insts))
        return total

    def bytes_for_budget(self, budget_s: float) -> float:
        """Largest per-worker shipment fitting one step in ``budget_s``
        seconds (the SLO-pacing knob: the search caps each step's
        per-worker bytes at this)."""
        per_byte = self.ser_rate + self.deser_rate + 1.0 / self._bandwidth
        headroom = budget_s - self.overhead_s - self._latency
        if headroom <= 0.0 or per_byte <= 0.0:
            return 0.0
        return headroom / per_byte


# -- benefit model ---------------------------------------------------------------


def projected_worker_loads(
    bin_load: dict[int, float],
    config: BinnedConfiguration,
    num_workers: int,
) -> dict[int, float]:
    """Per-worker load if ``config`` owned the bins generating
    ``bin_load`` (workers with no bins project to zero)."""
    loads = {w: 0.0 for w in range(num_workers)}
    for bin_id, load in bin_load.items():
        if 0 <= bin_id < len(config.assignment):
            loads[config.worker_of(bin_id)] = (
                loads.get(config.worker_of(bin_id), 0.0) + load
            )
    return loads


def imbalance_gain(
    bin_load: dict[int, float],
    current: BinnedConfiguration,
    target: BinnedConfiguration,
    num_workers: int,
) -> float:
    """Drop in max/mean imbalance moving from ``current`` to ``target``
    under the observed per-bin load (positive = target is better)."""
    before = imbalance_ratio(
        projected_worker_loads(bin_load, current, num_workers)
    )
    after = imbalance_ratio(
        projected_worker_loads(bin_load, target, num_workers)
    )
    return before - after
