"""NEXMark experiment harness: run any query under load and migrations.

Bridges the query implementations to the generic
:class:`repro.harness.experiment.MigrationExperiment`: the builder splits
the generated event stream into the three NEXMark relations, instantiates
the chosen query in its native or Megaphone variant, and wires the latency
probe to the query's output.  It imports the generator, the event split
and the one query it runs when a run starts, so importing this module
loads none of them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    MigrationExperiment,
)
from repro.nexmark.config import NexmarkConfig

STATEFUL_QUERIES = (3, 4, 5, 6, 7, 8)


def run_nexmark_experiment(query: int, cfg: ExperimentConfig) -> ExperimentResult:
    """Run NEXMark query ``query`` (1-8) under ``cfg``.

    The run's config is ``cfg`` with ``query`` set, so a recorded log names
    the query.  ``cfg.nexmark`` describes the auction site (None: the
    :class:`NexmarkConfig` defaults), and ``cfg.native`` picks the
    hand-tuned variant over Megaphone's; migrations (if scheduled in
    ``cfg``) apply to the query's main operator.
    """
    from repro.nexmark.generator import make_generator
    from repro.nexmark.queries import QUERIES
    from repro.nexmark.queries.common import split_events

    cfg = replace(cfg, query=query)
    nexmark = cfg.nexmark or NexmarkConfig()
    module = QUERIES[query]

    def build(df, control, data, config):
        streams = split_events(data)
        if config.native:
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
                delta_migration=config.delta_migration,
            )
        return out, op, None

    generator = make_generator(nexmark, cfg.num_workers, seed=cfg.seed)
    return MigrationExperiment(cfg, build, generator).run()
