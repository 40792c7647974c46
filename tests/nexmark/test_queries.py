"""Equivalence tests: native and Megaphone variants of every query must
produce the same results on identical inputs — with and without migration."""

import pytest

from repro.megaphone.controller import EpochTicker, MigrationController
from repro.megaphone.migration import imbalanced_target, make_plan
from repro.nexmark.config import NexmarkConfig
from repro.nexmark.generator import NexmarkGenerator
from repro.nexmark.queries import QUERIES
from repro.nexmark.queries.common import split_events
from tests.helpers import make_dataflow

WORKERS = 4
EPOCH_MS = 10
N_EPOCHS = 40
EVENTS_PER_EPOCH = 25

NEX_CFG = NexmarkConfig(
    active_auctions=20,
    auction_duration_ms=80,
    q5_window_ms=120,
    q5_period_ms=40,
    q7_window_ms=40,
    q8_window_ms=160,
)


def pregenerate():
    """One fixed event schedule shared by every variant."""
    gens = []
    for w in range(WORKERS):
        g = NexmarkGenerator(NEX_CFG, w, seed=5)
        g.configure_strides(WORKERS)
        gens.append(g)
    schedule = []
    for epoch in range(N_EPOCHS):
        t_ms = epoch * EPOCH_MS
        batches = [gens[w].generate(t_ms, EVENTS_PER_EPOCH) for w in range(WORKERS)]
        schedule.append((t_ms, batches))
    return schedule


SCHEDULE = pregenerate()


def run_query(query, variant, migrate=False, strategy="batched", num_bins=8):
    df = make_dataflow(num_workers=WORKERS, workers_per_process=2)
    control, control_group = df.new_input("control")
    events, data_group = df.new_input("events")
    streams = split_events(events)
    module = QUERIES[query]
    if variant == "native":
        out, op = module.native(streams, NEX_CFG)
        control.sink(name="control_sink")
    else:
        out, op = module.megaphone(control, streams, NEX_CFG, num_bins)
    outputs = []
    out.sink(lambda w, t, recs: outputs.extend(recs))
    probe = df.probe(out)
    runtime = df.build()

    ticker = EpochTicker(runtime, control_group, granularity_ms=EPOCH_MS)
    ticker.start()

    controller = None
    if migrate:
        assert op is not None
        initial = op.config.initial
        target = imbalanced_target(initial)
        plan = make_plan(strategy, initial, target, batch_size=2)
        controller = MigrationController(runtime, control_group, probe, initial)
        controller.submit(
            lambda _current: plan, at_s=(N_EPOCHS // 3) * EPOCH_MS / 1000.0
        )

    def make_tick(t_ms, batches):
        def tick():
            for handle, batch in zip(data_group.handles(), batches):
                handle.send(t_ms, batch)
                handle.advance_to(t_ms + EPOCH_MS)

        return tick

    for t_ms, batches in SCHEDULE:
        runtime.sim.schedule_at(t_ms / 1000.0, make_tick(t_ms, batches))
    runtime.sim.schedule_at(N_EPOCHS * EPOCH_MS / 1000.0, data_group.close_all)

    runtime.run(until=(N_EPOCHS + 20) * EPOCH_MS / 1000.0)
    guard = 0
    while controller is not None and not controller.done:
        runtime.sim.run(max_events=10_000)
        guard += 1
        assert guard < 500, "migration stalled"
    ticker.stop()
    runtime.run_to_quiescence()
    if controller is not None:
        assert controller.results[0].completed_at is not None
    return outputs


def final_by_key(pairs):
    """Last value per key (for running aggregates)."""
    out = {}
    for key, value in pairs:
        out[key] = value
    return out


@pytest.mark.parametrize("query", [1, 2])
def test_stateless_queries_equivalent(query):
    native = run_query(query, "native")
    mega = run_query(query, "megaphone")
    assert sorted(native, key=repr) == sorted(mega, key=repr)
    assert native, "query produced no output"


@pytest.mark.parametrize("query", [3, 8])
def test_join_queries_equivalent(query):
    native = run_query(query, "native")
    mega = run_query(query, "megaphone")
    assert sorted(native, key=repr) == sorted(mega, key=repr)
    assert native, "query produced no output"


@pytest.mark.parametrize("query", [4, 6])
def test_aggregate_queries_equivalent_final_values(query):
    native = final_by_key(run_query(query, "native"))
    mega = final_by_key(run_query(query, "megaphone"))
    assert native == mega
    assert native, "query produced no output"


@pytest.mark.parametrize("query", [5, 7])
def test_windowed_queries_equivalent(query):
    native = run_query(query, "native")
    mega = run_query(query, "megaphone")
    assert sorted(native) == sorted(mega)
    assert native, "query produced no output"


@pytest.mark.parametrize("query", [3, 4, 8])
def test_migration_does_not_change_results(query):
    baseline = run_query(query, "megaphone")
    migrated = run_query(query, "megaphone", migrate=True)
    if query == 4:
        assert final_by_key(baseline) == final_by_key(migrated)
    else:
        assert sorted(baseline, key=repr) == sorted(migrated, key=repr)


@pytest.mark.parametrize("strategy", ["all-at-once", "fluid"])
def test_q3_migration_strategies(strategy):
    baseline = run_query(3, "megaphone")
    migrated = run_query(3, "megaphone", migrate=True, strategy=strategy)
    assert sorted(baseline, key=repr) == sorted(migrated, key=repr)
