"""Smoke tests: the shipped examples must run and self-check."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_quickstart_example():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "OK: counts match a sequential reference." in result.stdout


def test_planned_migration_example():
    result = run_example("planned_migration.py")
    assert result.returncode == 0, result.stderr
    assert "fired exactly at its prepared logical time" in result.stdout


def test_snapshot_recovery_example():
    result = run_example("snapshot_recovery.py")
    assert result.returncode == 0, result.stderr
    assert "snapshot + suffix replay == uninterrupted execution" in result.stdout


@pytest.mark.slow
def test_elastic_rescaling_example():
    result = run_example("elastic_rescaling.py", timeout=600)
    assert result.returncode == 0, result.stderr
    assert "rebalanced the skewed workload live" in result.stdout


@pytest.mark.parametrize(
    "script", sorted(p.name for p in EXAMPLES.glob("*.py")), ids=lambda name: name
)
def test_every_example_exits_zero(script):
    result = run_example(script)
    assert result.returncode == 0, result.stderr
