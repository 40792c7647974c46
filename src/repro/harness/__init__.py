"""Measurement harness: open-loop load, latency recording, experiments.

Mirrors the paper's test harness (§5): input is supplied at a fixed rate
regardless of system responsiveness, latency is recorded into log-binned
histograms sampled every 250 ms, and experiments consist of a warmup, one or
more migrations, and summary extraction (max latency and duration per
migration; memory timelines per process).
"""

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    MigrationExperiment,
    run_count_experiment,
)
from repro.harness.latency import (
    EpochLatencyRecorder,
    LatencyTimeline,
    LogHistogram,
    WindowStats,
)
from repro.harness.openloop import Lcg, OpenLoopSource
from repro.harness.workloads import CountWorkload, ModeledCountState, count_fold

__all__ = [
    "CountWorkload",
    "EpochLatencyRecorder",
    "ExperimentConfig",
    "ExperimentResult",
    "Lcg",
    "LatencyTimeline",
    "LogHistogram",
    "MigrationExperiment",
    "ModeledCountState",
    "OpenLoopSource",
    "WindowStats",
    "count_fold",
    "run_count_experiment",
]
