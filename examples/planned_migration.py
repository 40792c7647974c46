#!/usr/bin/env python3
"""Ahead-of-time migration: reconfiguration as timestamped data.

The paper's second differentiating feature: because configuration updates
are ordinary records on a dataflow stream, a migration can be *prepared*
long before it happens — the update simply carries a future logical
timestamp.  No coordination is needed at the moment it takes effect; the
frontier machinery triggers it exactly when all earlier data has been
absorbed.

This example issues, at t~0.1s, a reconfiguration effective at logical
time 2000 ms.  The dataflow keeps processing; the state moves at t~2s on
its own.

Run:  python examples/planned_migration.py
"""

from repro.megaphone import (
    BinnedConfiguration,
    ControlInst,
    EpochTicker,
    imbalanced_target,
    state_machine,
)
from repro.runtime_events.events import BinStateExtracted
from repro.sim.engine import Simulator
from repro.sim.network import Cluster
from repro.timely.dataflow import Dataflow

WORKERS = 4
BINS = 16
EPOCH_MS = 10
EFFECTIVE_AT_MS = 2000
DURATION_S = 3.0


def main():
    sim = Simulator()
    cluster = Cluster(sim, num_workers=WORKERS, workers_per_process=2)
    df = Dataflow(cluster)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")

    initial = BinnedConfiguration.round_robin(BINS, WORKERS)
    target = imbalanced_target(initial)

    def fold(key, val, state):
        state[key] = state.get(key, 0) + val
        return []

    op = state_machine(
        control, data, fold=fold, num_bins=BINS, initial=initial, name="planned"
    )
    df.probe(op.output)
    runtime = df.build()
    ticker = EpochTicker(runtime, control_group, granularity_ms=EPOCH_MS)
    ticker.start()

    # Prepare the future migration NOW: commands post-dated to 2000 ms.
    insts = [
        ControlInst(bin=b, worker=w)
        for b, w in enumerate(target.assignment)
        if initial.worker_of(b) != w
    ]

    def prepare():
        control_group.handle(0).send(EFFECTIVE_AT_MS, insts)
        print(f"t={sim.now:.2f}s: issued {len(insts)} moves, "
              f"effective at logical time {EFFECTIVE_AT_MS} ms — no further "
              "coordination will happen")

    sim.schedule_at(0.1, prepare)

    # Watch when the state physically moves: F publishes every bin it ships
    # on the trace bus's migration topic.
    moved_at = {}
    moved = {"bins": 0, "bytes": 0.0}

    def on_migration(event):
        if type(event) is BinStateExtracted and event.time == EFFECTIVE_AT_MS:
            moved_at.setdefault("t", event.at)
            moved["bins"] += 1
            moved["bytes"] += event.size_bytes

    sim.trace.subscribe(on_migration, topics=("migration",))

    # A steady trickle of data the whole time.
    def feed(epoch):
        def tick():
            t_ms = epoch * EPOCH_MS
            for w, handle in enumerate(data_group.handles()):
                handle.send(t_ms, [(f"key{(epoch * 13 + w) % 50}", 1)])
                handle.advance_to(t_ms + EPOCH_MS)

        return tick

    n_epochs = int(DURATION_S * 1000 / EPOCH_MS)
    for epoch in range(n_epochs):
        sim.schedule_at(epoch * EPOCH_MS / 1000.0, feed(epoch))
    sim.schedule_at(DURATION_S, data_group.close_all)

    runtime.run(until=DURATION_S + 0.1)
    ticker.stop()
    runtime.run_to_quiescence()

    assert "t" in moved_at, "the prepared migration never executed"
    print(f"t={moved_at['t']:.2f}s: migration executed "
          f"({moved['bins']} bins, {moved['bytes']:.0f} modeled bytes)")
    assert moved_at["t"] >= EFFECTIVE_AT_MS / 1000.0 - 0.05
    for worker in range(WORKERS):
        resident = sorted(op.store(runtime, worker).resident_bins())
        assert resident == sorted(target.bins_of(worker))
        print(f"worker {worker}: bins {resident}")
    print("\nOK: the migration fired exactly at its prepared logical time.")


if __name__ == "__main__":
    main()
