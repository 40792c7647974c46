"""Record + deterministic replay tests (repro.obsv.eventlog / .replay)."""

import json

import pytest

from repro.elastic import AutoscalerConfig
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


def test_a_retired_field_is_refused_as_unknown():
    # Removing a config field bumps the log version, so no readable header
    # carries one: a retired name in a spec or a --set is a stale setting.
    for name, value in [("wal_sync_every", 3), ("metrics_port", 9)]:
        data = config_to_dict(_small_config())
        data[name] = value
        with pytest.raises(EventLogError, match=f"unknown ExperimentConfig field '{name}'"):
            config_from_dict(data)
    data = config_to_dict(_small_config(autoscale=AutoscalerConfig()))
    data["autoscale"]["policy"] = "threshold"
    with pytest.raises(EventLogError, match="'policy'"):
        config_from_dict(data)


def test_record_then_replay_reproduces_fingerprint(tmp_path):
    log = tmp_path / "run.jsonl"
    cfg = _small_config(record_log=str(log))
    run_count_experiment(cfg)
    header, footer = read_log_meta(str(log))
    assert header["config"]["query"] is None
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

    log = tmp_path / "chaos.jsonl"
    cfg = default_chaos_experiment_config(
        duration_s=4.0, record_log=str(log)
    )
    outcome = run_chaos_experiment("crash-restart", "batched", cfg=cfg, seed=3)
    assert outcome.live
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
    from repro.nexmark.config import NexmarkConfig
    from repro.nexmark.harness import run_nexmark_experiment

    log = tmp_path / "nexmark.jsonl"
    table = NexmarkConfig(state_bytes_scale=64.0, q5_period_ms=2000)
    # The query is the runner's argument; the header names it all the same.
    cfg = _small_config(record_log=str(log), nexmark=table)
    run_nexmark_experiment(5, cfg)
    header, _ = read_log_meta(str(log))
    assert set(header) == {"kind", "version", "config"}
    assert header["config"]["query"] == 5
    assert header["config"]["nexmark"]["state_bytes_scale"] == 64.0
    assert header["config"]["nexmark"]["q5_period_ms"] == 2000
    rebuilt = config_from_dict(header["config"])
    assert (rebuilt.query, rebuilt.nexmark) == (5, table)
    report = replay_run(str(log))
    assert report.ok


def test_a_v4_nexmark_header_is_refused_naming_the_move(tmp_path):
    # A v4 header kept the query and the NEXMark table beside the config
    # ("workload_kind", "extra"); read as a config alone it would replay a
    # NEXMark log as a count run, so v4 is refused with the reason.
    log = tmp_path / "nexmark.jsonl"
    run_count_experiment(_small_config(record_log=str(log)))
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    config = {k: v for k, v in header["config"].items() if k not in ("query", "nexmark")}
    header.update(
        version=4,
        workload_kind="nexmark",
        config=config,
        extra={"workload_kind": "nexmark", "query": 3, "nexmark": {"dilation": 1}},
    )
    log.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(EventLogError) as excinfo:
        replay_run(str(log))
    message = str(excinfo.value)
    assert "event-log version 4 is not replayable" in message
    assert "the config carries a NEXMark run's query and generator table" in message


def test_recording_does_not_perturb_the_run(tmp_path):
    """The bus invariant, end to end: recorded and bare runs agree."""
    from repro.harness.experiment import result_fingerprint

    bare = run_count_experiment(_small_config(fingerprint_state=True))
    log = tmp_path / "run.jsonl"
    recorded = run_count_experiment(_small_config(record_log=str(log)))
    assert result_fingerprint(bare) == result_fingerprint(recorded)


def test_run_with_a_cost_model_replays_to_its_fingerprint(tmp_path):
    from repro.harness.experiment import result_fingerprint
    from repro.sim.cost import CostModel

    cost = CostModel(record_cost=2e-6, route_cost=3e-7)
    log = tmp_path / "run.jsonl"
    run_count_experiment(_small_config(record_log=str(log), cost=cost))
    header, footer = read_log_meta(str(log))
    assert config_from_dict(header["config"]).cost == cost
    assert replay_run(str(log)).ok
    # The model is not dropped on the way: the default one runs differently.
    default = run_count_experiment(_small_config(fingerprint_state=True))
    assert result_fingerprint(default) != footer["result_fingerprint"]
