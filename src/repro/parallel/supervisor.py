"""The shard executor: every domain hosted in the calling process.

:class:`LocalExecutor` (``--parallel 0``) is the *sharded reference
engine*: it builds one :class:`DomainHost` per domain and, each round of
:func:`repro.parallel.sync.run_protocol`, runs the granted domains' windows
one after another in domain order.  There is no IPC and no other executor;
a forked one existed and was removed after measuring 0.3x this one
(EXPERIMENTS.md, "Forked shard executor").
"""

from __future__ import annotations

from repro.parallel.domain import DomainHost
from repro.parallel.partition import ShardPartition


class LocalExecutor:
    """All domains in-process: the sharded reference engine."""

    def __init__(self, cfg, partition: ShardPartition) -> None:
        self.hosts = {d: DomainHost(cfg, partition, d) for d in partition.domains()}
        self.lookahead = next(iter(self.hosts.values())).lookahead

    def domains(self) -> list:
        return sorted(self.hosts)

    def initial_next_times(self) -> dict:
        return {d: host.next_time for d, host in self.hosts.items()}

    def run_round(self, assignments: dict) -> dict:
        return {
            d: self.hosts[d].run_window(*assignments[d])
            for d in sorted(assignments)
        }

    def finalize(self) -> dict:
        return {d: host.finalize() for d, host in self.hosts.items()}
