"""Every experiment rule is checked when the config is constructed, raises
`ConfigError`, and names its field first — whether the config comes from
the library, the CLI, a matrix spec or a replayed log."""

import pytest

from repro.chaos.plan import ChaosConfig, FaultPlan, ProcessCrash
from repro.cli import main
from repro.elastic.autoscaler import AutoscalerConfig
from repro.harness.experiment import ConfigError, ExperimentConfig
from repro.nexmark.harness import run_nexmark_experiment
from repro.planner.policy import PlannerConfig
from repro.sim.engine import Simulator


def _sharded(**overrides):
    return lambda: ExperimentConfig(parallel=0, **overrides)


# id -> (construction, leading field name, message fragment)
CASES = {
    "rate": (lambda: ExperimentConfig(rate=0), "rate", "must be positive"),
    "duration": (
        lambda: ExperimentConfig(duration_s=0), "duration_s", "must be positive"
    ),
    "network_latency": (
        lambda: ExperimentConfig(network_latency_s=0),
        "network_latency_s",
        "must be positive",
    ),
    "batch_size": (
        lambda: ExperimentConfig(batch_size=0, migrate_at_s=(1.0,)),
        "batch_size",
        "must be positive",
    ),
    "granularity": (
        lambda: ExperimentConfig(granularity_ms=0),
        "granularity_ms",
        "must be positive",
    ),
    "hot_fraction": (
        lambda: ExperimentConfig(hot_fraction=1.5),
        "hot_fraction",
        "within [0, 1]",
    ),
    "migrate_after_input_closes": (
        lambda: ExperimentConfig(migrate_at_s=(5.0,), duration_s=1.0),
        "migrate_at_s",
        "5.0 is outside (0, 1.0)",
    ),
    "backend": (
        lambda: ExperimentConfig(state_backend="rocksdb"),
        "state_backend",
        "'rocksdb': unknown state backend 'rocksdb'; registered: dict, tiered, wal",
    ),
    "codec": (
        lambda: ExperimentConfig(codec="arrow"),
        "codec",
        "'arrow': unknown codec 'arrow'; registered: modeled",
    ),
    # Only the wal backend keeps the per-key dirty epochs a delta is cut by.
    "delta_dict": (
        lambda: ExperimentConfig(delta_migration=True),
        "delta_migration",
        "got state_backend 'dict'",
    ),
    "delta_tiered": (
        lambda: ExperimentConfig(delta_migration=True, state_backend="tiered"),
        "delta_migration",
        "got state_backend 'tiered'",
    ),
    "strategy": (
        lambda: ExperimentConfig(strategy="gradual"),
        "strategy",
        "must be one of ('all-at-once', 'fluid', 'batched', 'optimized'), got 'gradual'",
    ),
    "variant": (
        lambda: ExperimentConfig(variant="btree"),
        "variant",
        "must be one of ('key', 'hash'), got 'btree'",
    ),
    "bins": (
        lambda: ExperimentConfig(num_bins=12),
        "num_bins",
        "must be a power of two, got 12",
    ),
    "planner_drain": (
        lambda: PlannerConfig(objective="drain"),
        "drain_workers",
        "the drain objective",
    ),
    # The planner's telemetry and objectives count every provisioned slot.
    "planner_active_workers": (
        lambda: ExperimentConfig(
            num_workers=4, workers_per_process=2, active_workers=2,
            planner=PlannerConfig(),
        ),
        "planner",
        "cannot be combined with active_workers",
    ),
    "planner_scaling_plan": (
        lambda: ExperimentConfig(
            num_workers=4, workers_per_process=2, scaling_plan="leave@2.0:3",
            planner=PlannerConfig(),
        ),
        "planner",
        "cannot be combined with scaling_plan",
    ),
    "planner_autoscale": (
        lambda: ExperimentConfig(
            num_workers=4, workers_per_process=2, autoscale=AutoscalerConfig(),
            planner=PlannerConfig(),
        ),
        "planner",
        "cannot be combined with autoscale",
    ),
    # What the sharded engine cannot run.
    "chaos": (_sharded(chaos=ChaosConfig()), "parallel", "fault injection"),
    "planner": (_sharded(planner=PlannerConfig()), "parallel", "planner"),
    "sample_memory": (_sharded(sample_memory=True), "parallel", "memory sampling"),
    "collect_trace": (_sharded(collect_trace=True), "parallel", "trace collection"),
    "native": (_sharded(native=True), "parallel", "native"),
    "record_log": (_sharded(record_log="run.jsonl"), "parallel", "(record_log)"),
    "export_metrics": (_sharded(export_metrics="-"), "parallel", "(export_metrics)"),
    "elastic": (_sharded(active_workers=4), "parallel", "elastic membership"),
    "query": (_sharded(query=3), "parallel", "NEXMark queries"),
    "negative": (
        lambda: ExperimentConfig(parallel=-1), "parallel", "got -1"
    ),
    "forked": (
        lambda: ExperimentConfig(parallel=2),
        "parallel",
        "forked execution (parallel=N, N >= 1) was removed",
    ),
    # Settings from TOML and JSON can carry a float into an integer field.
    "float_workers": (
        lambda: ExperimentConfig(num_workers=4.0), "num_workers", "must be an integer, got 4.0"
    ),
    "float_domain": (
        lambda: ExperimentConfig(domain=1e4), "domain", "must be an integer, got 10000.0"
    ),
    "float_bins": (
        lambda: ExperimentConfig(num_bins=16.0), "num_bins", "must be an integer, got 16.0"
    ),
    "bool_seed": (lambda: ExperimentConfig(seed=True), "seed", "must be an integer"),
    "topics": (
        lambda: ExperimentConfig(collect_topic_counts=("migration", "bogus")),
        "collect_topic_counts",
        "names unknown topics ['bogus']",
    ),
    # A scalar where a list belongs.
    "scalar_migrate_at": (
        lambda: ExperimentConfig(migrate_at_s=3.0), "migrate_at_s", "must be a list, got 3.0"
    ),
    "scalar_topics": (
        lambda: ExperimentConfig(collect_topic_counts=5),
        "collect_topic_counts",
        "must be a list, got 5",
    ),
    # NEXMark: a known query, and a table of NexmarkConfig fields beside it.
    "unknown_query": (
        lambda: ExperimentConfig(query=9), "query", "must be one of [1, 2, 3, 4, 5, 6, 7, 8], got 9"
    ),
    "nexmark_unknown_key": (
        lambda: ExperimentConfig(query=3, nexmark={"dilation": 7}),
        "nexmark",
        "names unknown settings ['dilation']",
    ),
    "nexmark_without_query": (
        lambda: ExperimentConfig(nexmark={"state_bytes_scale": 2.0}),
        "nexmark",
        "need a query",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_at_construction(case):
    build, field, message = CASES[case]
    with pytest.raises(ConfigError) as excinfo:
        build()
    assert str(excinfo.value).startswith(field)
    assert message in str(excinfo.value)
    if field == "parallel":
        assert "parallel=0" in str(excinfo.value)


def test_sequences_are_normalised_to_tuples():
    cfg = ExperimentConfig(migrate_at_s=[1.0, 2.0], collect_topic_counts=[])
    assert cfg.migrate_at_s == (1.0, 2.0)
    assert cfg.collect_topic_counts == ()


def test_serial_config_is_not_subject_to_sharded_rules():
    cfg = ExperimentConfig(sample_memory=True, collect_trace=True, native=True)
    assert cfg.parallel is None


def test_nexmark_rejects_sharded_config():
    cfg = ExperimentConfig(
        num_workers=4, workers_per_process=2, duration_s=0.5, parallel=0
    )
    with pytest.raises(ConfigError, match="does not support NEXMark queries"):
        run_nexmark_experiment(3, cfg)


# A wrong-typed setting, nested tables included: (settings table, the same
# as `--set` arguments, the dotted path and what it must be).
WRONG_TYPES = {
    "sample_memory": (
        {"sample_memory": "no"}, ['sample_memory="no"'],
        "sample_memory must be true or false, got 'no'",
    ),
    "bytes_per_key": (
        {"bytes_per_key": "8"}, ['bytes_per_key="8"'],
        "bytes_per_key must be a number, got '8'",
    ),
    "bytes_per_key_migrating": (
        {"bytes_per_key": "8", "migrate_at_s": [0.5], "duration_s": 1.0},
        ['bytes_per_key="8"', "migrate_at_s=[0.5]", "duration_s=1.0"],
        "bytes_per_key must be a number, got '8'",
    ),
    "planner_decide_s": (
        {"planner": {"decide_s": "x"}}, ['planner={decide_s="x"}'],
        "planner.decide_s must be a number, got 'x'",
    ),
    "planner_word": (
        {"planner": "balance"}, ["planner=balance"],
        "planner must be a table, got 'balance'",
    ),
    "telemetry_sample_s": (
        {"planner": {"telemetry": {"sample_s": "x"}}},
        ['planner={telemetry={sample_s="x"}}'],
        "planner.telemetry.sample_s must be a number, got 'x'",
    ),
    "cost_record_cost": (
        {"cost": {"record_cost": "cheap"}}, ['cost={record_cost="cheap"}'],
        "cost.record_cost must be a number, got 'cheap'",
    ),
    "nexmark_word": (
        {"query": 3, "nexmark": "big"}, ["query=3", "nexmark=big"],
        "nexmark must be a table, got 'big'",
    ),
    "chaos_scalar": ({"chaos": 5}, ["chaos=5"], "chaos must be a table, got 5"),
    "scaling_plan_scalar": (
        {"scaling_plan": 3}, ["scaling_plan=3"],
        "scaling_plan must be a string, got 3",
    ),
    "retry_timeout_s": (
        {"chaos": {"retry": {"timeout_s": "x"}}},
        ['chaos={retry={timeout_s="x"}}'],
        "chaos.retry.timeout_s must be a number, got 'x'",
    ),
    "autoscale_cooldown_s": (
        {"autoscale": {"cooldown_s": "soon"}}, ['autoscale={cooldown_s="soon"}'],
        "autoscale.cooldown_s must be a number, got 'soon'",
    ),
    "migrate_at_s_scalar": (
        {"migrate_at_s": 0.5}, ["migrate_at_s=0.5"],
        "migrate_at_s must be a list, got 0.5",
    ),
    "crash_process_float": (
        {"chaos": {"plan": {"crashes": [{"at_s": 0.5, "process": 1.0}]}}},
        ["chaos={plan={crashes=[{at_s=0.5,process=1.0}]}}"],
        "chaos.plan.crashes[0].process must be an integer, got 1.0",
    ),
}


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if any simulator is built (no event can fire)."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(Simulator, "__init__", refuse)


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_a_wrong_type_is_refused_at_construction(case, no_simulation):
    table, _sets, message = WRONG_TYPES[case]
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig(**table)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_a_wrong_type_exits_2_from_the_cli(case, no_simulation, capsys):
    _table, sets, message = WRONG_TYPES[case]
    argv = ["run"] + [arg for item in sets for arg in ("--set", item)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_a_nested_instance_is_checked_like_its_table():
    crash = ProcessCrash(at_s=0.5, process=1.0)
    with pytest.raises(ConfigError, match=r"^chaos\.plan\.crashes\[0\]\.process "):
        ExperimentConfig(chaos=ChaosConfig(plan=FaultPlan(crashes=(crash,))))
    with pytest.raises(ConfigError, match=r"^planner\.decide_s must be a number"):
        ExperimentConfig(planner=PlannerConfig(decide_s="x"))


def test_an_unknown_nested_key_names_its_table():
    with pytest.raises(ConfigError, match=r"^chaos\.retry names unknown settings \['tries'\]"):
        ExperimentConfig(chaos={"retry": {"tries": 3}})


def test_tables_become_their_dataclasses():
    cfg = ExperimentConfig(
        query=3, nexmark={"filtered_states": ["OR"]},
        chaos={"plan": {"crashes": [{"at_s": 0.5, "process": 1}]}},
        scaling_plan="leave@2.0:7",
    )
    assert cfg.nexmark.filtered_states == ("OR",)
    assert cfg.chaos.plan.crashes == (ProcessCrash(at_s=0.5, process=1),)
    assert cfg.scaling_plan.spec() == "leave@2:7"
    # An int stays an int in a float field, so no digest moves.
    assert ExperimentConfig(rate=5000).rate == 5000
    assert type(ExperimentConfig(rate=5000).rate) is int
