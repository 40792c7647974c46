"""Figure 20 variant: tiered state backend (resident vs spilled timeline).

Same workload as ``bench_fig20_memory`` — key-count with 16x10^9 keys and
4096 bins, migrations mid-run — but bin state lives on the ``tiered``
backend with a hot-tier capacity below the per-worker steady state, so the
least-recently-accessed bins are codec-spilled to the modeled cold tier.

Expected shape:

* every process's memory timeline reports non-zero ``spilled_bytes``
  alongside RSS (the resident/spilled breakdown the backend exposes);
* steady RSS sits *below* the flat-backend level by roughly the spilled
  volume (spilled bytes left RAM — that is the point of spilling);
* the all-at-once transient spike survives: the spike is serialized state
  backing up in the *send queues*, which tiering does not touch.
"""

from dataclasses import replace

from _common import count_config, run_once
from repro.harness.experiment import run_count_experiment
from repro.harness.report import format_bytes, print_table

DOMAIN = 16 * 10**9
BINS = 4096
MIGRATIONS = (2.0, 4.0)


def _run(strategy, state_backend="tiered"):
    cfg = count_config(
        num_bins=BINS,
        domain=DOMAIN,
        duration_s=6.0,
        migrate_at_s=MIGRATIONS,
        strategy=strategy,
        batch_size=16,
        sample_memory=True,
        memory_sample_s=0.05,
        bandwidth_bytes_per_s=1.25e9,
        state_backend=state_backend,
    )
    if state_backend == "tiered":
        # Steady modeled state is DOMAIN / workers * 8 B = 8 GB per worker;
        # cap the hot tier at 75% of that so roughly a quarter of each
        # worker's bins sit in the cold tier once the key space has filled in.
        hot_capacity = int(DOMAIN // cfg.num_workers * 8 * 0.75)
        cfg = replace(cfg, hot_capacity_bytes=hot_capacity)
    return run_count_experiment(cfg)


def bench_fig20_tiered(benchmark, sink):
    results = run_once(
        benchmark,
        lambda: {
            "all-at-once": _run("all-at-once"),
            "batched": _run("batched"),
            "dict/batched": _run("batched", state_backend="dict"),
        },
    )

    rows = []
    overshoots = {}
    steadies = {}
    spilled_peaks = {}
    for label, res in results.items():
        worst_overshoot = 0.0
        steady = 0.0
        spilled = 0
        for tl in res.memory:
            base = max(tl.at(1.8), tl.at(5.8))
            steady = max(steady, base)
            worst_overshoot = max(worst_overshoot, tl.peak() - base)
            spilled = max(spilled, tl.peak_spilled())
        overshoots[label] = worst_overshoot
        steadies[label] = steady
        spilled_peaks[label] = spilled
        rows.append(
            (
                label,
                format_bytes(steady),
                format_bytes(worst_overshoot),
                format_bytes(spilled),
            )
        )
    print_table(
        "Figure 20 (tiered): steady RSS, migration overshoot, cold tier",
        ["run", "steady RSS", "transient overshoot", "peak spilled"],
        rows,
        out=sink,
    )

    res = results["batched"]
    series = [
        (
            f"{s.time:.2f}",
            format_bytes(s.rss_bytes),
            format_bytes(s.spilled_bytes),
        )
        for s in res.memory[0].samples
        if 1.5 <= s.time <= 5.5
    ]
    print_table(
        "Figure 20 (tiered) timeline (process 0): batched",
        ["time [s]", "RSS (resident)", "spilled"],
        series[::4],
        out=sink,
    )

    # The cold tier is in use on every tiered process timeline...
    for label in ("all-at-once", "batched"):
        for tl in results[label].memory:
            assert tl.peak_spilled() > 0, (label, tl.process)
    # ...and never on the flat backend.
    assert spilled_peaks["dict/batched"] == 0
    # Spilling moved steady state out of RAM relative to the flat backend.
    assert steadies["batched"] < steadies["dict/batched"]
    # The all-at-once spike is send-queue backlog, not state residence:
    # tiering must not hide it.
    assert overshoots["all-at-once"] > 3 * overshoots["batched"]
