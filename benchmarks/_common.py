"""Shared configuration of the benchmark scripts.

The paper's cluster shape and cost model, and why they are scaled the way
they are, are stated once, in ``paper/cluster.toml``: the figure specs
next to it extend that file, and :func:`count_config` starts from it.
"""

from __future__ import annotations

import tomllib
from dataclasses import replace
from pathlib import Path

from repro.harness.experiment import ExperimentConfig
from repro.obsv.eventlog import config_from_dict

CLUSTER_SPEC = Path(__file__).parent / "paper" / "cluster.toml"


def count_config(**overrides) -> ExperimentConfig:
    """The paper's cluster running the counting microbenchmark (256x10^6
    keys for 8 s), with ``overrides`` applied."""
    with CLUSTER_SPEC.open("rb") as handle:
        cluster = tomllib.load(handle)["base"]
    cfg = config_from_dict({**cluster, "domain": 256 * 10**6, "duration_s": 8.0})
    return replace(cfg, **overrides)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
