"""Record + deterministic replay tests (repro.obsv.eventlog / .replay)."""

import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.obsv import EventLogError, read_log_meta, replay_run
from repro.obsv.eventlog import config_from_dict, config_to_dict, read_events


def _small_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        num_workers=2,
        workers_per_process=2,
        num_bins=4,
        domain=256,
        rate=5000.0,
        duration_s=1.0,
        migrate_at_s=(0.4,),
        strategy="batched",
        batch_size=2,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_config_roundtrips_through_provenance_dict():
    cfg = _small_config()
    rebuilt = config_from_dict(config_to_dict(cfg))
    assert rebuilt == cfg


def test_observer_fields_are_stripped_on_read():
    cfg = _small_config(record_log="x.jsonl", export_metrics="-")
    rebuilt = config_from_dict(config_to_dict(cfg))
    # A replayed run must not try to re-record over the original log or
    # re-export the original metrics stream.
    assert rebuilt.record_log is None
    assert rebuilt.export_metrics is None


def test_config_from_dict_rejects_unknown_fields():
    data = config_to_dict(_small_config())
    data["definitely_not_a_field"] = 1
    with pytest.raises(EventLogError, match="unknown"):
        config_from_dict(data)


def test_log_recorded_with_a_retired_observer_field_still_replays(tmp_path):
    # Headers written while ExperimentConfig had `profile_shards` or
    # `reference_routing` carry `false` for them; such a log must keep
    # replaying.
    log = tmp_path / "run.jsonl"
    run_count_experiment(_small_config(record_log=str(log)))
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["profile_shards"] = False
    header["config"]["reference_routing"] = False
    log.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    assert config_from_dict(header["config"]) == _small_config()
    assert replay_run(str(log)).ok


def test_record_then_replay_reproduces_fingerprint(tmp_path):
    log = tmp_path / "run.jsonl"
    cfg = _small_config(record_log=str(log))
    run_count_experiment(cfg)
    header, footer = read_log_meta(str(log))
    assert header["workload_kind"] == "count"
    assert footer["events_recorded"] > 0
    report = replay_run(str(log))
    assert report.fingerprint_match
    assert report.drifted_topics == []
    assert report.ok


def test_recorded_events_match_footer_count(tmp_path):
    log = tmp_path / "run.jsonl"
    run_count_experiment(_small_config(record_log=str(log)))
    _, footer = read_log_meta(str(log))
    events = list(read_events(str(log)))
    assert len(events) == footer["events_recorded"]
    assert sum(footer["events_by_topic"].values()) == footer["events_recorded"]


def test_chaos_run_replays_byte_identically(tmp_path):
    from repro.chaos.experiment import (
        default_chaos_experiment_config,
        run_chaos_experiment,
    )

    base = tmp_path / "chaos.jsonl"
    cfg = default_chaos_experiment_config(
        duration_s=4.0, record_log=str(base)
    )
    outcome = run_chaos_experiment("crash-restart", "batched", cfg=cfg, seed=3)
    assert outcome.live
    log = tmp_path / "chaos.batched.jsonl"  # per-strategy templating
    report = replay_run(str(log))
    assert report.ok, (
        f"chaos replay drifted: {report.drifted_topics}; "
        f"{report.expected_fingerprint} != {report.actual_fingerprint}"
    )


def test_truncated_log_is_rejected(tmp_path):
    log = tmp_path / "run.jsonl"
    run_count_experiment(_small_config(record_log=str(log)))
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:-1]) + "\n")  # drop the footer
    with pytest.raises(EventLogError, match="footer"):
        read_log_meta(str(log))


def test_unsupported_version_is_rejected(tmp_path):
    log = tmp_path / "run.jsonl"
    run_count_experiment(_small_config(record_log=str(log)))
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 999
    lines[0] = json.dumps(header)
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(EventLogError, match="version"):
        replay_run(str(log))


def test_tampered_footer_fingerprint_fails_replay(tmp_path):
    log = tmp_path / "run.jsonl"
    run_count_experiment(_small_config(record_log=str(log)))
    lines = log.read_text().splitlines()
    footer = json.loads(lines[-1])
    footer["result_fingerprint"] = "0" * 64
    lines[-1] = json.dumps(footer)
    log.write_text("\n".join(lines) + "\n")
    report = replay_run(str(log))
    assert not report.fingerprint_match
    assert not report.ok


def test_nexmark_run_records_and_replays(tmp_path):
    from repro.nexmark.harness import run_nexmark_experiment

    log = tmp_path / "nexmark.jsonl"
    cfg = _small_config(record_log=str(log))
    run_nexmark_experiment(3, cfg)
    header, _ = read_log_meta(str(log))
    assert header["workload_kind"] == "nexmark"
    assert header["extra"]["query"] == 3
    report = replay_run(str(log))
    assert report.ok


def test_recording_does_not_perturb_the_run(tmp_path):
    """The bus invariant, end to end: recorded and bare runs agree."""
    from repro.parallel.runner import result_fingerprint

    bare = run_count_experiment(_small_config(fingerprint_state=True))
    log = tmp_path / "run.jsonl"
    recorded = run_count_experiment(_small_config(record_log=str(log)))
    assert result_fingerprint(bare) == result_fingerprint(recorded)
