"""The evaluation as matrix specs: the paper's figures (benchmarks/paper/),
the ablations (benchmarks/ablations/) and the extensions
(benchmarks/extensions/).

Every spec loads, which builds every cell's config and resolves every
claim's selectors, and has a pin of its cells' fingerprints
(benchmarks/pins/); the fastest specs run here, their claims must hold
and their fingerprints match the pins.  CI's paper-claims job sweeps all
of them against their pins.
"""

import importlib.util
import json
import pathlib
import re

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.obsv.eventlog import config_from_dict, config_to_dict
from repro.obsv.matrix import (
    check_claims,
    check_matrix,
    expand_cells,
    load_spec,
    run_matrix,
)
from repro.sim.cost import CostModel

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
PAPER = BENCHMARKS / "paper"
PINS = BENCHMARKS / "pins"
FIGURES = (
    ["fig01"] + [f"fig{n:02d}" for n in range(5, 21)] + ["fig20_tiered"]
)
# Every spec with claims, by stem; the paper directory's other files are
# the shared bases the figures extend.
SPECS = {
    path.stem: path
    for directory in ("paper", "ablations", "extensions")
    for path in sorted((BENCHMARKS / directory).glob("*.toml"))
    if directory != "paper" or path.stem.startswith("fig")
}


def test_every_figure_has_a_spec():
    assert sorted(p.stem for p in PAPER.glob("fig*.toml")) == FIGURES


def test_ablations_and_extensions_are_specs():
    assert set(SPECS) - set(FIGURES) == {
        "gap", "granularity", "matching",
        "chaos", "elastic", "planner_skew", "wal_recovery",
    }


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_paper_spec_loads_with_claims(spec):
    claims = load_spec(str(SPECS[spec]))["claim"]
    assert claims
    # A claim id names its spec, so EXPERIMENTS.md's citations resolve.
    assert all(claim["id"].startswith(f"{spec}.") for claim in claims)


def test_experiments_md_names_only_real_claims():
    ids = {
        claim["id"]
        for path in SPECS.values()
        for claim in load_spec(str(path))["claim"]
    }
    text = (BENCHMARKS.parent / "EXPERIMENTS.md").read_text()
    stems = "|".join(sorted(SPECS, key=len, reverse=True))
    named = set(re.findall(rf"`((?:{stems})\.[^`]+)`", text))
    assert named and named <= ids, sorted(named - ids)


def test_every_spec_pins_exactly_its_cells():
    assert sorted(p.stem for p in PINS.glob("*.json")) == sorted(SPECS)
    for stem, path in SPECS.items():
        pin = json.loads((PINS / f"{stem}.json").read_text())
        cells = [cell.cell_id for cell in expand_cells(load_spec(str(path)))]
        assert [row["cell"] for row in pin["cells"]] == cells, stem
        assert all(len(row["result_fingerprint"]) == 64 for row in pin["cells"])


@pytest.mark.parametrize("spec", ["fig01", "fig07", "matching"])
def test_fast_figure_claims_hold(spec):
    pin = PINS / f"{spec}.json"
    spec = load_spec(str(SPECS[spec]))
    report = run_matrix(spec, jobs=2)
    results = check_claims(spec, report)
    assert results
    assert [r for r in results if not r["ok"]] == []
    ok, rows = check_matrix(report, str(pin), spec)
    assert ok, [r for r in rows if r["status"] != "ok"]


def _e2e_configs():
    """Every ``benchmarks/e2e`` workload's config, as its child builds it."""
    path = BENCHMARKS / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            kwargs = workloads.config_kwargs(name, seed=1, smoke=smoke)
            cost = kwargs.pop("cost")
            if cost is not None:
                kwargs["cost"] = CostModel(**cost)
            yield ExperimentConfig(**kwargs)


def test_every_benchmark_config_round_trips_through_its_table():
    specs = [*SPECS.values(), BENCHMARKS / "matrix_smoke.toml"]
    configs = [
        config_from_dict(cell.settings)
        for path in specs
        for cell in expand_cells(load_spec(str(path)))
    ]
    configs += list(_e2e_configs())
    assert len(configs) > 200
    for cfg in configs:
        assert config_from_dict(config_to_dict(cfg)) == cfg
