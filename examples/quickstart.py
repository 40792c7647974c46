#!/usr/bin/env python3
"""Quickstart: a migrating word-count dataflow (paper Listing 2 / Figure 4).

Builds a four-worker simulated cluster, runs a stateful word count through
Megaphone's ``state_machine`` operator, and performs a live fluid migration
halfway through — while input keeps flowing — printing where each bin lives
before and after, and demonstrating that the counts are unaffected.

Run:  python examples/quickstart.py
"""

from repro.megaphone import (
    BinnedConfiguration,
    EpochTicker,
    MigrationController,
    imbalanced_target,
    make_plan,
    state_machine,
)
from repro.sim.engine import Simulator
from repro.sim.network import Cluster
from repro.timely.dataflow import Dataflow

NUM_WORKERS = 4
NUM_BINS = 8
EPOCH_MS = 1
TEXT = (
    "the quick brown fox jumps over the lazy dog "
    "the dog barks and the fox runs away over the hill"
).split()


def count_fold(word, diff, state):
    """The paper's Listing 2 fold: accumulate counts per word."""
    state[word] = state.get(word, 0) + diff
    return [(word, state[word])]


def main():
    sim = Simulator()
    cluster = Cluster(sim, num_workers=NUM_WORKERS, workers_per_process=2)
    dataflow = Dataflow(cluster)

    # Two inputs: the text stream, and Megaphone's configuration stream.
    control, control_group = dataflow.new_input("control")
    text, text_group = dataflow.new_input("text")

    initial = BinnedConfiguration.round_robin(NUM_BINS, NUM_WORKERS)
    wordcount = state_machine(
        control,
        text,
        fold=count_fold,
        num_bins=NUM_BINS,
        initial=initial,
        name="wordcount",
    )
    latest = {}
    wordcount.output.sink(lambda w, t, recs: latest.update(recs))
    probe = dataflow.probe(wordcount.output)
    runtime = dataflow.build()

    # Keep logical time moving on the control stream.
    ticker = EpochTicker(runtime, control_group, granularity_ms=EPOCH_MS)
    ticker.start()

    # Feed one (word, +1) pair per epoch, round-robin across workers.
    def feed(epoch, word):
        def tick():
            for w, handle in enumerate(text_group.handles()):
                if w == epoch % NUM_WORKERS:
                    handle.send(epoch, [(word, 1)])
                handle.advance_to(epoch + 1)

        return tick

    for epoch, word in enumerate(TEXT):
        sim.schedule_at(epoch * EPOCH_MS / 1000.0, feed(epoch, word))
    sim.schedule_at(len(TEXT) * EPOCH_MS / 1000.0, text_group.close_all)

    # Halfway through, migrate a quarter of the state, one bin at a time.
    target = imbalanced_target(initial)
    controller = MigrationController(runtime, control_group, probe, initial)
    migration = controller.submit(
        lambda current: make_plan("fluid", current, target),
        at_s=len(TEXT) // 2 * EPOCH_MS / 1000.0,
    )

    print(f"bins before migration: {initial.assignment}")
    runtime.run(until=len(TEXT) * EPOCH_MS / 1000.0 + 0.05)
    while not controller.done:
        sim.run(max_events=10_000)
    ticker.stop()
    runtime.run_to_quiescence()

    print(f"bins after migration:  {target.assignment}")
    print(
        f"migration: {len(migration.steps)} steps, "
        f"{migration.duration * 1000:.1f} ms total"
    )
    print("\nword counts (unaffected by the live migration):")
    for word in sorted(latest):
        print(f"  {word:>6s}: {latest[word]}")

    expected = {}
    for word in TEXT:
        expected[word] = expected.get(word, 0) + 1
    assert latest == expected, "migration must not change results!"
    print("\nOK: counts match a sequential reference.")


if __name__ == "__main__":
    main()
