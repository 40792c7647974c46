"""NEXMark state on the wal backend is durable: the log checkpoints every
applied bin whole, so it follows values a fold changes in place.

Five of the six stateful folds (Q3, Q4, Q5, Q6 and Q8) change a value they
read (``closed_auctions_fold``'s ``entry[1] = bid.price``).  A key-level
log could not see that; these runs check that the log, the bins reborn
from it and a base-then-delta migration all still match live state.
"""

import pickle
from dataclasses import replace

import pytest

from repro.chaos.experiment import scenario_chaos
from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig
from repro.nexmark.harness import run_nexmark_experiment
from repro.runtime_events.events import TOPIC_MIGRATION, BinStateExtracted
from repro.state.wal import WalBackend, WalState, replay_frames

STATEFUL = (3, 4, 5, 6, 7, 8)
SHAPE = dict(num_workers=4, workers_per_process=2, num_bins=16, rate=5000.0)


def _frozen(states):
    """A deep copy of every bin's state, a mapping bin as a plain dict."""
    return {
        bin_id: pickle.loads(pickle.dumps(
            dict(state.data) if isinstance(state, WalState) else state
        ))
        for bin_id, state in states.items()
    }


def _with_part(monkeypatch, attach):
    """Attach ``attach`` to every run after the built-in parts."""
    monkeypatch.setattr(experiment, "_PARTS", experiment._PARTS + (attach,))


@pytest.mark.parametrize("query", STATEFUL)
def test_the_log_replays_to_live_state_throughout_a_run(monkeypatch, query):
    checks = []

    def attach(run):
        registry = run.op.config.backend_options["wal_registry"]

        def check():
            for worker, store in run.op.stores(run.runtime):
                frames, recovery = registry.wal_for(worker).scan()
                assert recovery.clean
                replayed, _ = replay_frames(frames, dict)
                checks.append((run.sim.now, worker, replayed == _frozen(store.backend._states)))

        for at_s in (0.5, 1.0, 1.5):
            run.sim.schedule_at(at_s, check)

    _with_part(monkeypatch, attach)
    run_nexmark_experiment(query, ExperimentConfig(duration_s=2.0, state_backend="wal", **SHAPE))
    assert len({at for at, _, _ in checks}) == 3
    assert [c for c in checks if not c[2]] == []


@pytest.mark.parametrize("query", (3, 4, 5, 6, 8))
def test_a_restart_rebuilds_the_state_at_the_crash(monkeypatch, query):
    at_crash: dict = {}
    reborn: dict = {}

    def attach(run):
        def on_membership(kind, _process, workers):
            if kind == "crash":
                for worker, store in run.op.stores(run.runtime, workers):
                    at_crash[worker] = _frozen(store.backend._states)

        run.injector.on_membership_change(on_membership)

    bind = WalBackend.bind_worker

    def recording_bind(backend, worker_id):
        bind(backend, worker_id)
        if backend.last_recovery is not None:  # replayed a surviving log
            reborn[worker_id] = _frozen(backend._states)

    _with_part(monkeypatch, attach)
    monkeypatch.setattr(WalBackend, "bind_worker", recording_bind)
    cfg = ExperimentConfig(
        duration_s=3.0, state_backend="wal", migrate_at_s=(1.0,), **SHAPE
    )
    result = run_nexmark_experiment(
        query, replace(cfg, chaos=scenario_chaos("crash-restart", cfg))
    )
    assert result.chaos_verdict == "completed"
    assert sorted(reborn) == sorted(at_crash) and reborn
    bins = [(w, b) for w in reborn for b in reborn[w]]
    assert len(bins) == 12
    assert [(w, b) for w, b in bins if reborn[w][b] != at_crash[w].get(b)] == []


def test_delta_migration_ships_nexmark_bases_and_deltas(monkeypatch):
    extracted = []

    def attach(run):
        run.sim.trace.subscribe(
            lambda event: type(event) is BinStateExtracted and extracted.append(event.kind),
            topics=(TOPIC_MIGRATION,),
        )

    cfg = ExperimentConfig(
        duration_s=3.0, migrate_at_s=(1.0,), fingerprint_state=True, **SHAPE
    )
    baseline = run_nexmark_experiment(4, cfg)
    _with_part(monkeypatch, attach)
    delta = run_nexmark_experiment(
        4, replace(cfg, state_backend="wal", delta_migration=True)
    )
    assert extracted.count("base") >= 1 and extracted.count("delta") >= 1
    assert delta.cluster_fingerprint == baseline.cluster_fingerprint
