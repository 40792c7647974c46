"""NEXMark experiment harness: run any query under load and migrations.

Bridges the query implementations to the generic
:class:`repro.harness.experiment.MigrationExperiment`: the builder splits
the generated event stream into the three NEXMark relations, instantiates
the chosen query in its native or Megaphone variant, and wires the latency
probe to the query's output.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    MigrationExperiment,
)
from repro.nexmark.config import NexmarkConfig
from repro.nexmark.generator import make_generator
from repro.nexmark.queries import QUERIES
from repro.nexmark.queries.common import split_events

STATEFUL_QUERIES = (3, 4, 5, 6, 7, 8)


def run_nexmark_experiment(
    query: int,
    cfg: ExperimentConfig,
    nexmark: Optional[NexmarkConfig] = None,
    native: Optional[bool] = None,
) -> ExperimentResult:
    """Run NEXMark query ``query`` (1-8) under ``cfg``.

    ``native`` overrides ``cfg.native``.  Stateful queries use the
    Megaphone variant by default; migrations (if scheduled in ``cfg``)
    apply to the query's main operator.
    """
    if query not in QUERIES:
        raise ValueError(f"unknown NEXMark query {query}; implemented: {sorted(QUERIES)}")
    if cfg.parallel is not None:
        raise ConfigError(
            "parallel must be None: NEXMark queries run on the serial engine "
            "only, and the sharded runner (parallel=0) builds just the "
            "count dataflow"
        )
    if nexmark is None:
        nexmark = NexmarkConfig(dilation=cfg.dilation)
    use_native = cfg.native if native is None else native
    module = QUERIES[query]

    def build(df, control, data, config):
        streams = split_events(data)
        if use_native:
            out, _op = module.native(streams, nexmark)
            control.sink(name="control_sink")
            op = None
        else:
            # Elastic runs start bins on the active prefix only; the
            # default (initial=None) is round-robin over every worker.
            initial = None
            if config.initial_active != config.num_workers:
                from repro.megaphone.control import BinnedConfiguration

                initial = BinnedConfiguration.round_robin(
                    config.num_bins, config.initial_active
                )
            out, op = module.megaphone(
                control, streams, nexmark, config.num_bins,
                initial=initial,
                state_backend=config.state_backend,
                codec=config.codec,
                backend_options=config.backend_options(),
            )

        state_bytes_fn = None
        if op is not None:
            name = op.config.name

            def state_bytes_fn(worker: int, _name=name) -> tuple:
                runtime = df._runtime
                store = runtime.workers[worker].shared.get(f"megaphone:{_name}")
                if store is None:
                    return (0, 0)
                return (store.resident_state_size(), store.spilled_state_size())

        return out, op, state_bytes_fn

    generator = make_generator(nexmark, cfg.num_workers, seed=cfg.seed)
    record_extra = None
    if cfg.record_log:
        # Replay re-executes from the log header alone, so it needs the
        # query number and the full NexmarkConfig alongside the generic
        # experiment config.
        from dataclasses import asdict

        record_extra = {
            "workload_kind": "nexmark",
            "query": query,
            "nexmark": asdict(nexmark),
        }
    experiment = MigrationExperiment(
        cfg, build, generator, record_extra=record_extra
    )
    return experiment.run()
