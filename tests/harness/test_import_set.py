"""What a run imports: a part's modules load when it attaches, numpy at the
first large column.

Each case runs in a fresh interpreter (``sys.modules`` of this process
holds whatever earlier tests loaded), imports the public entry points the
benchmark imports, runs one small configuration and reports which of the
watched modules it loaded.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
NUMPY_INSTALLED = importlib.util.find_spec("numpy") is not None

# What a plain count run must leave unloaded: numpy (while every batch is
# small), and the code of every part it does not attach.  The config
# modules ExperimentConfig names (``chaos.plan``, ``elastic.plan``,
# ``planner.config``) and the package ``__init__``s are not part code.
PART_MODULES = (
    "repro.chaos.experiment", "repro.chaos.inject", "repro.chaos.part",
    "repro.chaos.recovery", "repro.chaos.watchdog",
    "repro.planner.cost", "repro.planner.part", "repro.planner.policy",
    "repro.planner.search", "repro.planner.telemetry",
    "repro.elastic.autoscaler", "repro.elastic.coordinator",
    "repro.elastic.membership", "repro.elastic.part",
    "repro.obsv", "repro.parallel",
    "repro.state.wal", "repro.state.tiered",
    "repro.runtime_events.analyze",
    "repro.megaphone.snapshot", "repro.megaphone.plan_io",
    "repro.nexmark.generator", "repro.nexmark.queries",
)

# Runs in the child.  Its one argument is a JSON object: ``config``
# (ExperimentConfig keywords), ``query``, ``chaos``, ``scaling_plan`` and
# ``watched``; the last printed line is the sorted list of loaded modules
# that are watched.
_SCRIPT = """
import dataclasses, json, sys
from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.nexmark.harness import run_nexmark_experiment
from repro.sim.cost import CostModel

params = json.loads(sys.argv[1])
cfg = ExperimentConfig(**params["config"])
if params["chaos"]:
    from repro.chaos.experiment import scenario_chaos
    cfg = dataclasses.replace(cfg, chaos=scenario_chaos(params["chaos"], cfg))
if params["scaling_plan"]:
    from repro.elastic.plan import ScalingPlan
    cfg = dataclasses.replace(cfg, scaling_plan=ScalingPlan.parse(params["scaling_plan"]))
query = params["query"]
result = run_count_experiment(cfg) if query is None else run_nexmark_experiment(query, cfg)
assert result.records_injected > 0
watched = params["watched"]
loaded = sorted(
    name for name, module in sys.modules.items()
    if module is not None
    and any(name == w or name.startswith(w + ".") for w in watched)
)
print(json.dumps(loaded))
"""

WATCHED = ("numpy", *PART_MODULES)

# The benchmark's warm-up hashes final state too (``fingerprint_state``).
SMALL = dict(
    num_workers=4, workers_per_process=2, num_bins=16, domain=10_000,
    rate=5_000.0, duration_s=0.6, migrate_at_s=[0.2], strategy="fluid",
    fingerprint_state=True,
)


def loaded_modules(config: dict, query=None, chaos=None, scaling_plan=None) -> set:
    params = json.dumps(dict(
        config=config, query=query, chaos=chaos, scaling_plan=scaling_plan,
        watched=WATCHED,
    ))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, params], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def _parts_in(loaded: set) -> list:
    return sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in PART_MODULES)
    )


def test_a_small_batch_count_run_loads_no_part_and_no_numpy():
    # 5,000 records/s over 4 workers in 10 ms epochs: 12-13 record batches.
    loaded = loaded_modules(SMALL)
    assert "numpy" not in loaded
    assert _parts_in(loaded) == []


def test_a_large_batch_count_run_loads_numpy_and_no_part():
    # 200,000 records/s over 4 workers in 10 ms epochs: 500-record batches,
    # numpy's when it is installed, stdlib arrays when it is not.
    loaded = loaded_modules(dict(SMALL, rate=200_000.0, duration_s=0.3, migrate_at_s=[0.1]))
    assert ("numpy" in loaded) == NUMPY_INSTALLED
    assert _parts_in(loaded) == []


@pytest.mark.parametrize(
    "config, chaos, expected",
    [
        (dict(SMALL, state_backend="wal"), None, "repro.state.wal"),
        (SMALL, "crash-restart", "repro.chaos.inject"),
    ],
    ids=["wal", "crash-restart"],
)
def test_a_part_loads_when_the_run_asks_for_it(config, chaos, expected):
    assert expected in loaded_modules(config, chaos=chaos)


def test_an_elastic_run_loads_no_planner_part():
    # A scripted join and leave plan their targets with the searches in
    # repro.megaphone.migration; only the autoscaler reads planner telemetry.
    loaded = loaded_modules(
        dict(SMALL, active_workers=2, duration_s=1.0),
        scaling_plan="join@0.3:2,3;leave@0.6:3",
    )
    assert "repro.elastic.coordinator" in loaded
    assert [name for name in _parts_in(loaded) if name.startswith("repro.planner")] == []


def test_a_recorded_run_loads_the_event_log(tmp_path):
    log = tmp_path / "run.jsonl"
    loaded = loaded_modules(dict(SMALL, record_log=str(log)))
    assert "repro.obsv.eventlog" in loaded
    assert "repro.state.wal" not in loaded
    assert log.exists()


def test_a_nexmark_run_loads_only_its_query():
    loaded = loaded_modules(dict(SMALL, rate=2_000.0, duration_s=0.5), query=3)
    assert "repro.nexmark.queries.q3" in loaded
    assert "repro.nexmark.queries.q4" not in loaded
    assert "repro.nexmark.generator" in loaded
