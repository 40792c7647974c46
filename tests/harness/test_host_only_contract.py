"""The runtime's host-side optimisations must not move simulated results.

Changes to the per-message machinery (carriers, scheduled callbacks, the
event loop, accounting fast paths) are judged by wall-clock speed, and they
are only legal if the simulated computation is byte-identical: the same
callbacks fired in the same order, so the same callback count, the same
latency timeline, the same migration step times and the same final state.
The callbacks fire from fewer heap entries than there are callbacks (the
engine groups the callbacks due at one instant into one entry, and a
firing entry takes the callbacks scheduled at its instant); that count is
``sim_events``.  It is engine bookkeeping, so no digest includes it, but it
is pinned here as a plain number, so that a grouping change stays visible.

The two configurations are the paper-shaped count workload (16 workers,
4096 bins, ~12-record batches — the per-message regime) and NEXMark Q3,
both at 0.5 simulated seconds with their single migration scaled to fit,
plus the Megaphone variant of each NEXMark query 1-8 on a 4-worker,
64-bin shape.  They are written out here rather than imported from the
end-to-end benchmark so that neither side can resize the other.  The
callback counts and fingerprints were captured from a run of the runtime
before its per-message path was slimmed (the NEXMark 1-8 rows: before F's
per-record router was folded into its columnar one), when every callback
had its own heap entry.  ``result_fingerprint`` hashes the callback count,
so the heap-entry grouping since then moved neither.  A legitimate
*modelling* change must update them deliberately.
"""

import functools

import pytest

from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.nexmark.harness import run_nexmark_experiment
from repro.harness.experiment import result_fingerprint
from repro.sim.cost import CostModel
from repro.sim.engine import Simulator

# The paper testbed's per-record costs, scaled up 200x because the
# simulation materialises 200x fewer records than the paper's 4e6 rec/s.
_PAPER_COST = CostModel(
    record_cost=0.25e-6 * 200.0,
    ingest_record_cost=0.05e-6 * 200.0,
    route_cost=0.05e-6 * 200.0,
    batch_overhead=20e-6,
    progress_update_cost=1e-6,
)


def _count_paper() -> ExperimentConfig:
    return ExperimentConfig(
        num_workers=16,
        workers_per_process=4,
        num_bins=4096,
        domain=10**9,
        rate=20_000.0,
        duration_s=0.5,
        granularity_ms=10,
        bytes_per_key=8.0,
        strategy="batched",
        batch_size=64,
        migrate_at_s=(0.24,),
        cost=_PAPER_COST,
        seed=1,
        fingerprint_state=True,
    )


def _nexmark_q3() -> ExperimentConfig:
    return ExperimentConfig(
        num_workers=8,
        workers_per_process=4,
        num_bins=256,
        rate=20_000.0,
        duration_s=0.5,
        granularity_ms=10,
        strategy="batched",
        batch_size=16,
        migrate_at_s=(0.2,),
        seed=1,
        fingerprint_state=True,
    )


def _run_nexmark_q3(cfg: ExperimentConfig):
    return run_nexmark_experiment(3, cfg)


def _nexmark_4w() -> ExperimentConfig:
    return ExperimentConfig(
        num_workers=4,
        workers_per_process=2,
        num_bins=64,
        rate=20_000.0,
        duration_s=0.5,
        granularity_ms=10,
        strategy="batched",
        batch_size=16,
        migrate_at_s=(0.2,),
        seed=1,
        fingerprint_state=True,
    )


# name -> (runner, config, (callbacks fired, result_fingerprint), heap
# entries fired (sim_events), timeline series as (window start, records,
# max latency) with every float exact, or None where the fingerprint's own
# timeline digest is the pin).
CASES = {
    "count_paper": (
        run_count_experiment,
        _count_paper,
        (42044, "b64553160c0ffe3e8cd766d06c5468ee7f9984f11cde68dccbc7b7f8e40e5ed0"),
        13567,
        [
            (0.0, 4800.0, 0.011536999999999999),
            (0.25, 5200.0, 0.06133199999999994),
            (0.5, 24.0, 0.057093104000000894),
            (0.75, 24.0, 0.05709210400000142),
            (1.0, 27.0, 0.05709210400000164),
            (1.25, 25.0, 1.1102230246251565e-15),
        ],
    ),
    "nexmark_q3": (
        _run_nexmark_q3,
        _nexmark_q3,
        (10893, "d63b3fc34d657f4e80c55bf748f37791fb1433770c43585171715a5fd47e8267"),
        1650,
        [
            (0.0, 5000.0, 0.010194),
            (0.25, 5000.0, 0.0003167000000000031),
            (0.5, 25.0, 4.440892098500626e-16),
            (0.75, 25.0, 6.661338147750939e-16),
            (1.0, 25.0, 8.881784197001252e-16),
            (1.25, 25.0, 1.1102230246251565e-15),
        ],
    ),
}

# The Megaphone variant of every NEXMark query on a small shape: the
# relation streams reach F as plain record lists, so these pin the list
# entry to F's router (Q1 and Q2 are stateless and share a fingerprint).
_NEXMARK_4W = {
    1: (
        (7897, "425e53fed907d466f6966d745d6da356a258f482e2f10badac3457cb8e57d3f4"),
        2341,
    ),
    2: (
        (7897, "425e53fed907d466f6966d745d6da356a258f482e2f10badac3457cb8e57d3f4"),
        2341,
    ),
    3: (
        (7765, "2165fbe3e4a94cfe10f6a9074138dbbcfd6cb07670aa03388b0be21e80a828ff"),
        1788,
    ),
    4: (
        (11812, "ae602b492307e79c11d6ccbe65f0e87b418bea5e1922bdcaa892734cfe6ec8bd"),
        4004,
    ),
    5: (
        (9072, "23a7449ca6ca45186078254321ffbcc388446ba3b6d1b0ae1570535e5f4e1c83"),
        2859,
    ),
    6: (
        (11742, "dc6f384b53203a0603c1661b55e807155bfffa726b4883b646370f3f644da399"),
        4095,
    ),
    7: (
        (7931, "bc15bb33d56add80fa416ecd157db6ed4e2750d1fd0c11ee99b66566a33f1ae1"),
        2383,
    ),
    8: (
        (7777, "3578590a4109eeff33db65b5a938a9cdd39966a077ac05cc2bfb4d475dacd177"),
        1803,
    ),
}
for _query, (_callbacks, _heap_entries) in _NEXMARK_4W.items():
    CASES[f"nexmark_4w_q{_query}"] = (
        functools.partial(run_nexmark_experiment, _query),
        _nexmark_4w,
        _callbacks,
        _heap_entries,
        None,
    )


@pytest.fixture
def callbacks_fired(monkeypatch):
    """Count every callback the simulator fires, by wrapping it when it is
    scheduled (cancelled events never fire, so they are not counted)."""
    fired = [0]

    def counted(callback):
        def run():
            fired[0] += 1
            callback()

        return run

    schedule_at = Simulator.schedule_at
    schedule_fast_at = Simulator.schedule_fast_at
    monkeypatch.setattr(
        Simulator,
        "schedule_at",
        lambda self, time, callback: schedule_at(self, time, counted(callback)),
    )
    monkeypatch.setattr(
        Simulator,
        "schedule_fast_at",
        lambda self, time, callback: schedule_fast_at(self, time, counted(callback)),
    )
    return fired


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_results_are_pinned(name, callbacks_fired):
    run, config, (callbacks, fingerprint), heap_entries, series = CASES[name]
    result = run(config())
    assert result.records_injected == 10_000
    if series is not None:
        timeline = [(s.start_s, s.count, s.max_s) for s in result.timeline.series()]
        assert timeline == series
    # The engine's own count agrees with one taken outside it.
    assert result.sim_callbacks == callbacks_fired[0] == callbacks
    # Also covers migration step times and final per-worker state.
    assert result_fingerprint(result) == fingerprint
    assert result.sim_events == heap_entries
