"""Observability surface: telemetry export, trace record/replay, and the
experiment-matrix runner.

Everything in this package sits *above* the :class:`~repro.runtime_events.
bus.TraceBus` and below the CLI:

* :mod:`repro.obsv.exporter` — a bus subscriber that aggregates counters,
  gauges, and histograms and streams them as JSON lines while a run
  executes.
* :mod:`repro.obsv.eventlog` — a versioned event-log writer capturing the
  full bus stream plus the run's config/seed provenance, and the reader
  that validates it.
* :mod:`repro.obsv.replay` — deterministic re-execution of a recorded run,
  asserting the original ``result_fingerprint`` byte-identically.
* :mod:`repro.obsv.matrix` — the sweep runner over any config axes, with
  parallel worker processes, BENCH_matrix.json aggregation, a fingerprint
  regression gate, and the paper's shape claims checked after a sweep.

Every component here is an observer: attaching or detaching any of them
must leave the simulation byte-identical (the bus's subscriber contract).
"""

from repro.lazy import exports

__getattr__, __all__ = exports(__name__, {
    "eventlog": ("EventLogError", "EventLogRecorder", "read_log_meta"),
    "exporter": ("MetricsExporter",),
    "replay": ("ReplayReport", "replay_run"),
})
