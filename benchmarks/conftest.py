"""Shared infrastructure for the pytest-benchmark scripts.

A benchmark script prints its rows and also writes them to
``benchmarks/results/`` so they survive output capture.  (Every sweep
with a config-reachable knob is a matrix spec under ``paper/``,
``ablations/`` or ``extensions/`` instead.)
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
