"""The paper's Figures 1 and 5-19 as matrix specs (benchmarks/paper/).

Every spec loads, which builds every cell's config and resolves every
claim's selectors; the two fastest figures run here and their claims must
hold.  CI's paper-claims job sweeps all of them.
"""

import pathlib
import re

import pytest

from repro.obsv.matrix import check_claims, load_spec, run_matrix

PAPER = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "paper"
FIGURES = ["fig01"] + [f"fig{n:02d}" for n in range(5, 20)]


def test_every_figure_has_a_spec():
    assert sorted(p.stem for p in PAPER.glob("fig*.toml")) == FIGURES


@pytest.mark.parametrize("figure", FIGURES)
def test_paper_spec_loads_with_claims(figure):
    assert load_spec(str(PAPER / f"{figure}.toml"))["claim"]


def test_experiments_md_names_only_real_claims():
    ids = {
        claim["id"]
        for figure in FIGURES
        for claim in load_spec(str(PAPER / f"{figure}.toml"))["claim"]
    }
    text = (PAPER.parents[1] / "EXPERIMENTS.md").read_text()
    named = set(re.findall(r"`(fig\d\d\.[^`]+)`", text))
    assert named and named <= ids, sorted(named - ids)


@pytest.mark.parametrize("figure", ["fig01", "fig07"])
def test_fast_figure_claims_hold(figure):
    spec = load_spec(str(PAPER / f"{figure}.toml"))
    results = check_claims(spec, run_matrix(spec, jobs=2))
    assert results
    assert [r for r in results if not r["ok"]] == []
