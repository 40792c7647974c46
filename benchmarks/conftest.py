"""Shared infrastructure for the reproduction benchmarks.

Every benchmark script regenerates one of the paper's tables, figures or
extensions as text: the series/rows are printed and also written to
``benchmarks/results/`` so they survive output capture.  (The paper's
Figures 1 and 5-19 are matrix specs under ``paper/`` instead.)
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def sink(results_dir, request):
    """A print-like callable that tees to stdout and a per-bench file."""
    name = request.node.name
    path = results_dir / f"{name}.txt"
    handle = path.open("w")

    def emit(*args):
        line = " ".join(str(a) for a in args)
        print(line)
        handle.write(line + "\n")

    yield emit
    handle.close()
