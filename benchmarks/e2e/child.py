"""One workload in one fresh process: set-up sample, timed repeats, or trace.

``run.py`` starts this file as a subprocess with ``PYTHONPATH`` pointing at
``src`` and reads the JSON object it prints last.  Nothing here is timed
from outside: every wall time below is taken around a call into a public
entry point, in this process, on one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import metrics
import workloads

# Hard floor on timed repeats, whatever the time budget.
MIN_REPEATS = 5


def entry_points() -> dict:
    """Import the public entry points (the import ``setup_s`` times)."""
    from repro.harness.experiment import ExperimentConfig, run_count_experiment
    from repro.nexmark.harness import run_nexmark_experiment
    from repro.sim.cost import CostModel

    return {
        "ExperimentConfig": ExperimentConfig,
        "CostModel": CostModel,
        "count": run_count_experiment,
        "nexmark_q3": lambda cfg: run_nexmark_experiment(3, cfg),
    }


def make_config(api: dict, kwargs: dict, **overrides):
    kwargs = dict(kwargs, **overrides)
    cost = kwargs.pop("cost")
    if cost is not None:
        kwargs["cost"] = api["CostModel"](**cost)
    return api["ExperimentConfig"](**kwargs)


def warmup_s(smoke: bool) -> float:
    return 0.0 if smoke else workloads.WARMUP_S


# -- set-up sample -------------------------------------------------------------------


def setup_sample(name: str, seed: int) -> dict:
    """Import plus a near-empty run of the workload's cluster and dataflow."""
    start = time.perf_counter()
    api = entry_points()
    imported = time.perf_counter()
    cfg = make_config(api, workloads.setup_kwargs(name, seed))
    api[workloads.WORKLOADS[name]["runner"]](cfg)
    done = time.perf_counter()
    return {"import_s": imported - start, "build_s": done - imported,
            "setup_s": done - start}


# -- verification ----------------------------------------------------------------------


class Verifier:
    """Counts attempted and failed records; remembers why a run failed."""

    def __init__(self, pinned: str | None) -> None:
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.light_digest: str | None = None

    def check(self, result, label: str, full_digest: str | None = None) -> None:
        records = result.records_injected
        self.attempted += records
        light = metrics.answer_digest(result, with_state=False)
        wrong = False
        if self.light_digest is None:
            self.light_digest = light
        elif light != self.light_digest:
            wrong = True
            self.problems.append(f"{label}: answer digest differs from the warm-up run")
        if full_digest is not None and self.pinned is not None:
            if full_digest != self.pinned:
                wrong = True
                self.problems.append(
                    f"{label}: answer digest {full_digest[:16]} differs from the "
                    f"pinned {self.pinned[:16]}"
                )
        if wrong:
            self.failed += records
        else:
            lost = records - metrics.completed_records(result)
            self.failed += max(0, int(lost))

    def problem(self, text: str) -> None:
        self.problems.append(text)


def run_serial_twin(api: dict, name: str, seed: int, smoke: bool):
    """The workload's serial twin, state hashed; None if it has no twin."""
    twin = workloads.SERIAL_TWIN.get(name)
    if twin is None:
        return None
    cfg = make_config(
        api, workloads.config_kwargs(twin, seed, smoke), fingerprint_state=True
    )
    return api[workloads.WORKLOADS[twin]["runner"]](cfg)


def check_twin(serial, sharded, verifier: Verifier) -> None:
    """A sharded run must leave every worker's state as its serial twin does."""
    if dict(serial.state_fingerprints) != dict(sharded.parallel["fingerprints"]):
        verifier.problem("per-worker state fingerprints differ from the serial twin's")
        verifier.failed += sharded.records_injected


# -- end-to-end measurement ------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, smoke: bool, pinned: str | None) -> dict:
    api = entry_points()
    run = api[workloads.WORKLOADS[name]["runner"]]
    kwargs = workloads.config_kwargs(name, seed, smoke)
    verifier = Verifier(pinned)

    # Warm-up, and the one run whose full answer (state included) is checked.
    result = run(make_config(api, kwargs, fingerprint_state=True))
    digest = metrics.answer_digest(result)
    verifier.check(result, "warm-up", full_digest=digest)
    serial = run_serial_twin(api, name, seed, smoke)
    if serial is not None:
        check_twin(serial, result, verifier)
    simulated = metrics.simulated_metrics(
        result, kwargs["duration_s"], warmup_s(smoke)
    )
    records = result.records_injected

    walls: list = []
    # Calibration-kernel seconds on the pinned CPU right before and right
    # after each repeat (see calibrate.py).
    kernel: list = []
    min_repeats = 2 if smoke else MIN_REPEATS
    while len(walls) < min_repeats or sum(walls) < seconds:
        cfg = make_config(api, kwargs, fingerprint_state=False)
        gc.collect()
        before = calibrate.pin_fastest_cpu()
        start = time.perf_counter()
        result = run(cfg)
        walls.append(time.perf_counter() - start)
        kernel.append((before, calibrate.sample()))
        verifier.check(result, f"repeat {len(walls)}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": name,
        "seed": seed,
        "records": records,
        "walls_s": walls,
        "kernel_s": kernel,
        "digest": digest,
        "simulated": simulated,
        "peak_rss_mb": peak_rss_mb,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "problems": verifier.problems,
        "environment": environment(),
    }


def environment() -> dict:
    """What only a process that imported ``repro`` can say about the machine."""
    from repro.runtime_events.columns import active_representation

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"batch_representation": active_representation(), "numpy": numpy_version}


# -- traced run -------------------------------------------------------------------------


def shape_problems(name: str, layer: dict) -> list:
    """A workload must keep stressing the layer it was chosen for."""
    problems = []

    def expect(ok: bool, text: str) -> None:
        if not ok:
            problems.append(f"shape: {text}")

    per_batch = layer.get("runtime_events.records_per_batch", 0.0)
    worker_for = layer["megaphone.worker_for_calls_per_record"]
    if name == "count_bulk":
        expect(per_batch >= 400, f"records_per_batch {per_batch:.1f} < 400")
        expect(worker_for == 0, f"worker_for_calls_per_record {worker_for} != 0")
    if name == "count_paper":
        expect(per_batch <= 16, f"records_per_batch {per_batch:.1f} > 16")
    if name == "count_migrating":
        expect(worker_for > 0, "worker_for_calls_per_record is 0")
        share = layer["megaphone.migrating_time_share"]
        expect(share >= 0.5, f"migrating_time_share {share:.2f} < 0.5")
    has_wal = layer.get("state.wal_frames_per_record", 0) > 0
    expect(has_wal == (name == "count_wal"), f"WAL frames written: {has_wal}")
    expect(
        ("parallel.rounds" in layer) == (name == "count_sharded"),
        f"parallel.rounds present: {'parallel.rounds' in layer}",
    )
    unsubscribed = layer["runtime_events.bus_publishes_unsubscribed"]
    expect(unsubscribed == 0, f"{unsubscribed} bus publishes with no subscriber")
    return problems


def traced(name: str, seed: int, smoke: bool, pinned: str | None, out_dir: str) -> dict:
    import trace as ledger

    api = entry_points()
    run = api[workloads.WORKLOADS[name]["runner"]]
    kwargs = workloads.config_kwargs(name, seed, smoke)
    verifier = Verifier(pinned)

    def timed_run(runner, run_kwargs, fingerprint_state=False):
        cfg = make_config(api, run_kwargs, fingerprint_state=fingerprint_state)
        gc.collect()
        calibrate.pin_fastest_cpu()
        start = time.perf_counter()
        result = runner(cfg)
        return result, time.perf_counter() - start

    # Untraced: warm-up (verified), then the baseline the overhead is against.
    # Only the warm-up hashes operator state: fingerprinting extracts every
    # bin, which would show up in the ledger as migration work.
    result, _ = timed_run(run, kwargs, fingerprint_state=True)
    digest = metrics.answer_digest(result)
    verifier.check(result, "warm-up", full_digest=digest)
    simulated = metrics.simulated_metrics(
        result, kwargs["duration_s"], warmup_s(smoke)
    )
    untraced = []
    for i in range(3):
        result, wall = timed_run(run, kwargs)
        untraced.append(wall)
        verifier.check(result, f"untraced {i + 1}")
    untraced_events = result.sim_events

    tracer = ledger.Tracer()
    tracer.calibrate()
    with ledger.tracing(tracer):
        cfg = make_config(api, kwargs, fingerprint_state=False)
        gc.collect()
        calibrate.pin_fastest_cpu()
        result = tracer.wrap(run, ledger.ROOT)(cfg)
    traced_wall = tracer.stats[ledger.ROOT][1] / 1e9
    # Wrappers must not perturb: same timeline, same migration steps, and
    # (sharded runs always hash it) the same final state.
    verifier.check(result, "traced")
    if metrics.state_digest(result) is not None:
        if metrics.answer_digest(result) != digest:
            verifier.problem("traced run's state differs from the untraced run's")
            verifier.failed += result.records_injected

    layer = ledger.layer_metrics(
        tracer, result, kwargs["duration_s"], kwargs["granularity_ms"]
    )
    layer["trace.overhead_ratio"] = traced_wall / statistics.median(untraced)
    twin = workloads.SERIAL_TWIN.get(name)
    if twin is not None:
        twin_run = api[workloads.WORKLOADS[twin]["runner"]]
        twin_kwargs = workloads.config_kwargs(twin, seed, smoke)
        serial, _ = timed_run(twin_run, twin_kwargs, fingerprint_state=True)
        check_twin(serial, result, verifier)
        twin_walls = [timed_run(twin_run, twin_kwargs)[1] for _ in range(3)]
        layer["parallel.extra_events_ratio"] = untraced_events / serial.sim_events
        layer["parallel.sharded_tax"] = min(twin_walls) / min(untraced)
    for metric in metrics.REPORTED:
        if metric.name in simulated:
            layer[metric.name] = simulated[metric.name]
    if not smoke:  # the shapes are properties of the full-scale workloads
        verifier.problems.extend(shape_problems(name, layer))

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{name}.json")
    tracer.dump(
        trace_path,
        {"workload": name, "seed": seed, "smoke": smoke, "traced_wall_s": traced_wall,
         "untraced_walls_s": untraced},
        ledger.ROOT,
    )
    return {
        "workload": name,
        "seed": seed,
        "records": result.records_injected,
        "digest": digest,
        "per_layer": layer,
        "ledger": tracer.ledger(ledger.ROOT)[:40],
        "trace_file": trace_path,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "problems": verifier.problems,
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pinned", default=None)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        report = setup_sample(args.workload, args.seed)
    elif args.mode == "measure":
        report = measure(args.workload, args.seed, args.seconds, args.smoke, args.pinned)
    else:
        report = traced(args.workload, args.seed, args.smoke, args.pinned, args.out_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
