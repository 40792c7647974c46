#!/usr/bin/env python3
"""Elastic rescaling driven by an observing controller (paper §4.4).

Megaphone deliberately externalizes the *policy*: any controller that can
write ``(time, bin, worker)`` updates to the control stream can drive it —
the paper names DS2, Dhalion, and Chi.  This example implements a small
DS2-flavoured closed loop:

1. the workload's key skew shifts over time (a hot key range moves);
2. the controller periodically samples per-worker load (records applied
   per interval, observed through the bin stores);
3. when imbalance exceeds a threshold, it plans a rebalancing migration
   with the `optimized` strategy and feeds it to the control stream —
   while data keeps flowing.

Run:  python examples/elastic_rescaling.py
"""

from repro.megaphone import (
    BinnedConfiguration,
    EpochTicker,
    MigrationController,
    bin_of,
    plan_optimized,
    state_machine,
    stable_hash,
)
from repro.sim.engine import Simulator
from repro.sim.network import Cluster
from repro.timely.dataflow import Dataflow

WORKERS = 4
BINS = 64
EPOCH_MS = 5
DURATION_S = 4.0
RECORDS_PER_EPOCH = 120
REBALANCE_EVERY_S = 0.5
IMBALANCE_THRESHOLD = 1.5


def main():
    sim = Simulator()
    cluster = Cluster(sim, num_workers=WORKERS, workers_per_process=2)
    df = Dataflow(cluster)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")

    initial = BinnedConfiguration.round_robin(BINS, WORKERS)
    bin_load = [0] * BINS  # records applied per bin since the last sample

    def fold(key, val, state):
        state[key] = state.get(key, 0) + val
        bin_load[bin_of(stable_hash(key), BINS)] += 1
        return []

    op = state_machine(
        control, data, fold=fold, num_bins=BINS, initial=initial, name="skewed"
    )
    probe = df.probe(op.output)
    runtime = df.build()
    ticker = EpochTicker(runtime, control_group, granularity_ms=EPOCH_MS)
    ticker.start()

    # --- the skewed workload: the hot range drifts over time -----------------
    def feed(epoch):
        def tick():
            t_ms = epoch * EPOCH_MS
            phase = epoch // 100  # the hot range jumps every ~0.5 s
            for w, handle in enumerate(data_group.handles()):
                batch = []
                for i in range(RECORDS_PER_EPOCH // WORKERS):
                    if i % 3:  # two thirds of traffic hits the hot range
                        key = f"hot{phase}-{i % 8}"
                    else:
                        key = f"cold-{(epoch * 31 + i * 7 + w) % 1000}"
                    batch.append((key, 1))
                handle.send(t_ms, batch)
                handle.advance_to(t_ms + EPOCH_MS)

        return tick

    n_epochs = int(DURATION_S * 1000 / EPOCH_MS)
    for epoch in range(n_epochs):
        sim.schedule_at(epoch * EPOCH_MS / 1000.0, feed(epoch))
    sim.schedule_at(DURATION_S, data_group.close_all)

    # --- the controller loop ---------------------------------------------------
    controller = MigrationController(runtime, control_group, probe, initial)
    migrations = []

    def worker_loads(config):
        loads = [0] * WORKERS
        for b, records in enumerate(bin_load):
            loads[config.worker_of(b)] += records
        return loads

    def control_loop():
        if controller.idle:
            config = controller.current
            loads = worker_loads(config)
            total = sum(loads) or 1
            imbalance = max(loads) / (total / WORKERS)
            if imbalance > IMBALANCE_THRESHOLD:
                target = plan_target(config)
                plan = plan_optimized(config, target)
                if plan.total_moves:
                    print(
                        f"t={sim.now:5.2f}s loads={loads} imbalance="
                        f"{imbalance:.2f} -> migrating {plan.total_moves} bins"
                    )
                    migrations.append(
                        controller.submit(lambda _current, plan=plan: plan)
                    )
        for b in range(BINS):
            bin_load[b] = 0
        if sim.now < DURATION_S:
            sim.schedule(REBALANCE_EVERY_S, control_loop)

    def plan_target(config):
        # Greedy: order bins by observed load, deal them to workers so the
        # per-worker load is as even as possible (a DS2-style decision).
        order = sorted(range(BINS), key=lambda b: -bin_load[b])
        loads = [0.0] * WORKERS
        assignment = list(config.assignment)
        for b in order:
            w = min(range(WORKERS), key=lambda w: loads[w])
            assignment[b] = w
            loads[w] += bin_load[b] + 1e-9
        return BinnedConfiguration(tuple(assignment))

    sim.schedule_at(REBALANCE_EVERY_S, control_loop)

    runtime.run(until=DURATION_S + 0.2)
    while not controller.done:
        sim.run(max_events=10_000)
    ticker.stop()
    runtime.run_to_quiescence()

    print(f"\ncompleted {len(migrations)} controller-initiated migrations")
    final = controller.current
    sizes = [
        sum(
            len(op.store(runtime, w).get(b).state)
            for b in final.bins_of(w)
            if op.store(runtime, w).has(b)
        )
        for w in range(WORKERS)
    ]
    print(f"final per-worker key counts: {sizes}")
    assert migrations, "controller should have reacted to skew"
    print("OK: the controller rebalanced the skewed workload live.")


if __name__ == "__main__":
    main()
