"""The planner's settings: :class:`PlannerConfig` and the
:class:`TelemetryConfig` it nests.

``ExperimentConfig`` names ``PlannerConfig``, and the settings codec
resolves its type hints wherever a config is built, so this module imports
nothing of the planner itself: a run without a planner never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling cadence, window, and skew-detector hysteresis."""

    sample_s: float = 0.25  # simulated seconds between samples
    window_s: float = 2.0  # sliding window the heat estimate covers
    # Hysteresis: skew triggers when max/mean load exceeds trigger_ratio
    # for trigger_samples consecutive samples, and clears only when it
    # falls below release_ratio for release_samples consecutive samples.
    trigger_ratio: float = 1.5
    release_ratio: float = 1.2
    trigger_samples: int = 2
    release_samples: int = 2

    @property
    def window_samples(self) -> int:
        return max(1, int(round(self.window_s / self.sample_s)))


@dataclass
class PlannerConfig:
    """Tuning of the closed-loop migration policy."""

    objective: str = "balance"
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    decide_s: float = 0.5  # simulated seconds between decision points
    start_s: float = 0.0  # first decision point
    stop_s: Optional[float] = None  # no decisions after this
    cooldown_s: float = 2.0  # quiet period after an adopted plan
    min_gain: float = 0.1  # required drop in max/mean imbalance
    max_cost_s: Optional[float] = None  # reject plans priced above this
    slo_step_s: Optional[float] = 0.05  # per-step latency budget
    max_moves: Optional[int] = None  # cap on bins a single plan moves
    propose_only: bool = False  # search + trace, never execute
    gap_s: float = 0.0  # drain gap handed to the controller
    # Objective-specific options (drain_workers, num_workers, ...).
    objective_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The objectives are the search's functions: a planner config
        # means the planner runs, so loading the search here costs nothing
        # a run would not pay anyway.
        from repro.planner.search import OBJECTIVES

        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"objective {self.objective!r} is not one of {sorted(OBJECTIVES)}"
            )
        if self.objective == "drain" and not self.objective_options.get(
            "drain_workers"
        ):
            raise ConfigError(
                "drain_workers must name at least one worker: the drain "
                "objective empties the workers it names"
            )
        if self.min_gain < 0:
            raise ConfigError(f"min_gain must be non-negative, got {self.min_gain}")
