"""Event logs: elastic provenance round-trips and scaling runs replay.

Event-log v2 added the elastic fields (``active_workers``,
``scaling_plan``, ``autoscale``) to the config provenance and the
``membership`` topic to the trace.  These tests pin that the provenance
dict inverts exactly and that a recorded scaling run replays
byte-identically.  Since v6 (the current
:data:`repro.versions.EVENT_LOG_VERSION`) the footer's fingerprint hashes
the callbacks a run fired, where older footers hashed heap entries, and
since v5 the config carries a NEXMark run's query and table, so every
older log is refused with the reason.
"""

import json

import pytest

from repro.elastic import AutoscalerConfig, ScalingPlan
from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.obsv import EventLogError, read_log_meta, replay_run
from repro.obsv.eventlog import config_from_dict, config_to_dict
from repro.versions import EVENT_LOG_READ_VERSIONS, EVENT_LOG_VERSION


def _scaling_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        num_workers=6,
        workers_per_process=2,
        num_bins=16,
        domain=1 << 12,
        rate=2_000.0,
        duration_s=6.0,
        migrate_at_s=(),
        strategy="fluid",
        active_workers=4,
        scaling_plan=ScalingPlan.parse("join@1.5:4,5;leave@3.5:4,5"),
        fingerprint_state=True,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_schema_version_hashes_callbacks():
    # v6: the footer's fingerprint hashes the callbacks a run fired, not
    # the heap entries the engine fired them from; v5 footers hashed heap
    # entries and cannot reproduce, so only v6 is read.
    assert EVENT_LOG_VERSION == 6
    assert EVENT_LOG_READ_VERSIONS == (6,)


def test_elastic_config_roundtrips_through_provenance_dict():
    cfg = _scaling_config(
        autoscale=AutoscalerConfig(
            scale_out_load=800.0, scale_in_load=200.0, cooldown_s=1.5
        ),
        scaling_plan=None,
    )
    data = config_to_dict(cfg)
    assert data["active_workers"] == 4
    assert data["scaling_plan"] is None
    assert data["autoscale"]["scale_out_load"] == 800.0
    assert config_from_dict(data) == cfg


def test_scaling_plan_serializes_as_its_canonical_spec():
    cfg = _scaling_config()
    data = config_to_dict(cfg)
    assert data["scaling_plan"] == "join@1.5:4,5;leave@3.5:4,5"
    rebuilt = config_from_dict(data)
    assert rebuilt.scaling_plan == cfg.scaling_plan
    assert rebuilt == cfg


def test_recorded_scaling_run_carries_v2_header(tmp_path):
    log = tmp_path / "scale.jsonl"
    run_count_experiment(_scaling_config(record_log=str(log)))
    header, footer = read_log_meta(str(log))
    assert header["version"] == EVENT_LOG_VERSION
    assert header["config"]["scaling_plan"] == "join@1.5:4,5;leave@3.5:4,5"
    # The membership topic made it into the trace: four workers change
    # state twice each (join, activate) plus the drain transitions.
    assert footer["events_by_topic"].get("membership", 0) > 0


def test_scaling_run_replays_byte_identically(tmp_path):
    log = tmp_path / "scale.jsonl"
    run_count_experiment(_scaling_config(record_log=str(log)))
    report = replay_run(str(log))
    assert report.fingerprint_match
    assert report.drifted_topics == []
    assert report.ok


def _log_with_version(tmp_path, version: int) -> str:
    """Record a small run, then rewrite its header to ``version``."""
    log = tmp_path / "legacy.jsonl"
    cfg = ExperimentConfig(
        num_workers=2,
        workers_per_process=2,
        num_bins=4,
        domain=256,
        rate=5_000.0,
        duration_s=1.0,
        migrate_at_s=(0.4,),
        strategy="batched",
        batch_size=2,
        record_log=str(log),
    )
    run_count_experiment(cfg)
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = version
    lines[0] = json.dumps(header)
    log.write_text("\n".join(lines) + "\n")
    return str(log)


@pytest.mark.parametrize("version", [1, 2])
def test_v1_and_v2_logs_are_rejected_naming_the_engine_change(tmp_path, version):
    # Their footers hashed the simulator's heap entries, so the reader must
    # refuse them and say why, instead of replaying to a fingerprint
    # mismatch.
    log = _log_with_version(tmp_path, version)
    with pytest.raises(EventLogError, match="hashed the simulator's heap entries"):
        read_log_meta(log)
    with pytest.raises(EventLogError, match=f"version {version} is not replayable"):
        replay_run(log)


def test_v3_log_is_rejected_naming_the_firing_group_change(tmp_path):
    # A v3 footer hashed a heap-entry count, as every footer before v6 did.
    log = _log_with_version(tmp_path, 3)
    with pytest.raises(EventLogError, match="hashed the simulator's heap entries"):
        read_log_meta(log)
    with pytest.raises(EventLogError, match="version 3 is not replayable"):
        replay_run(log)


def test_a_v5_log_is_refused_naming_the_callback_change(tmp_path):
    # A v5 footer hashed heap entries; a v6 replay hashes callbacks, so it
    # would only report a fingerprint mismatch.
    log = _log_with_version(tmp_path, 5)
    with pytest.raises(EventLogError) as excinfo:
        replay_run(log)
    message = str(excinfo.value)
    assert "event-log version 5 is not replayable" in message
    assert "fingerprint hashes the callbacks the run fired" in message
