"""The evaluation as matrix specs: the paper's figures (benchmarks/paper/),
the ablations (benchmarks/ablations/) and the extensions
(benchmarks/extensions/).

Every spec loads, which builds every cell's config and resolves every
claim's selectors; the fastest specs run here and their claims must hold.
CI's paper-claims job sweeps all of them.
"""

import pathlib
import re

import pytest

from repro.obsv.matrix import check_claims, load_spec, run_matrix

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
PAPER = BENCHMARKS / "paper"
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


@pytest.mark.parametrize("spec", ["fig01", "fig07", "matching"])
def test_fast_figure_claims_hold(spec):
    spec = load_spec(str(SPECS[spec]))
    results = check_claims(spec, run_matrix(spec, jobs=2))
    assert results
    assert [r for r in results if not r["ok"]] == []
