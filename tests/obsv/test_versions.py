"""Tests for the consolidated format-version registry (repro.versions)."""

import json

import pytest

from repro import versions
from repro.megaphone import plan_io
from repro.megaphone.migration import make_plan
from repro.megaphone.control import BinnedConfiguration
from repro.versions import (
    EVENT_LOG_READ_VERSIONS,
    EVENT_LOG_VERSION,
    MATRIX_READ_VERSIONS,
    MATRIX_SCHEMA,
    PLAN_FORMAT_VERSION,
    PLAN_READ_VERSIONS,
    check_schema,
    parse_schema,
)


def test_plan_io_reexports_the_registry():
    # plan_io keeps its historical names; they must be the same objects.
    assert plan_io.FORMAT_VERSION is PLAN_FORMAT_VERSION
    assert plan_io.READ_VERSIONS is PLAN_READ_VERSIONS


def test_plan_roundtrip_through_registry_version(tmp_path):
    from repro.megaphone.migration import imbalanced_target

    initial = BinnedConfiguration.round_robin(8, 2)
    plan = make_plan("batched", initial, imbalanced_target(initial), batch_size=2)
    path = tmp_path / "plan.json"
    plan_io.dump_plan(plan, path)
    document = json.loads(path.read_text())
    assert document["version"] in PLAN_READ_VERSIONS
    assert plan_io.load_plan(path) == plan


def test_matrix_and_event_log_versions_are_readable():
    assert parse_schema(MATRIX_SCHEMA)[1] in MATRIX_READ_VERSIONS
    assert EVENT_LOG_VERSION in EVENT_LOG_READ_VERSIONS


@pytest.mark.parametrize(
    "tag",
    ["", "bench-matrix", "/2", "bench-matrix/", "bench-matrix/two", 2, None],
)
def test_parse_schema_rejects_malformed_tags(tag):
    with pytest.raises(ValueError):
        parse_schema(tag)


def test_check_schema_accepts_and_rejects():
    assert check_schema("bench-matrix/2", "bench-matrix", (1, 2)) == 2
    with pytest.raises(ValueError, match="not a"):
        check_schema("event-log/1", "bench-matrix", (1, 2))
    with pytest.raises(ValueError, match="unsupported"):
        check_schema("bench-matrix/99", "bench-matrix", (1, 2))


def test_registry_is_the_single_source_of_truth():
    # Every constant the registry promises exists and is self-consistent.
    _, version = parse_schema(versions.MATRIX_SCHEMA)
    assert version in versions.MATRIX_READ_VERSIONS
