#!/usr/bin/env python3
"""NEXMark hot items (Q5) with a live migration.

Runs the paper's Query 5 — "which auction has the most bids over the
trailing window?" — on the simulated cluster at a sustained event rate,
performs a batched migration of the windowed counts mid-run, and prints
the latency timeline so the (absence of a) disruption is visible.

Run:  python examples/nexmark_hot_items.py [--strategy all-at-once|fluid|batched]
"""

import argparse

from repro.harness.experiment import ExperimentConfig
from repro.harness.report import print_table, print_timeline
from repro.nexmark.config import NexmarkConfig
from repro.nexmark.harness import run_nexmark_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--strategy",
        default="batched",
        choices=["all-at-once", "fluid", "batched", "optimized"],
    )
    parser.add_argument("--rate", type=float, default=10_000.0,
                        help="events per second (simulated)")
    args = parser.parse_args()

    cfg = ExperimentConfig(
        num_workers=8,
        workers_per_process=4,
        num_bins=256,
        rate=args.rate,
        duration_s=8.0,
        granularity_ms=10,
        migrate_at_s=(4.0,),
        strategy=args.strategy,
        batch_size=16,
        query=5,
        nexmark=NexmarkConfig(
            # Scale the modeled per-entry bytes up so the migration moves a
            # meaningful amount of state at example scale.
            state_bytes_scale=4096.0,
        ),
    )
    print(f"running NEXMark Q5 at {args.rate:,.0f} events/s, "
          f"{args.strategy} migration at t=4s ...")
    result = run_nexmark_experiment(5, cfg)

    print_timeline(
        f"Q5 service latency ({args.strategy})",
        result.timeline.series(),
        every=2,
    )
    migration = result.migrations[0]
    print_table(
        "migration summary",
        ["strategy", "steps", "moves", "duration [ms]", "max latency [ms]"],
        [(
            args.strategy,
            len(migration.steps),
            sum(s.moves for s in migration.steps),
            f"{result.migration_duration(0) * 1000:.1f}",
            f"{result.migration_max_latency(0) * 1000:.2f}",
        )],
    )
    print(f"\nsteady-state max latency: "
          f"{result.steady_max_latency() * 1000:.2f} ms")


if __name__ == "__main__":
    main()
