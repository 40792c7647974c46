"""The shard partition: simulated process groups become shards.

A cluster of ``num_workers`` workers grouped ``workers_per_process`` to a
simulated process yields ``num_domains`` *domains*; on the sharded engine
each domain runs its own event loop.  The same partition is the unit of
fate-sharing everywhere else — the chaos layer's ``ProcessCrash`` kills
exactly the workers of one domain.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ShardPartition:
    """Maps workers to domains (= simulated processes = parallel shards)."""

    num_workers: int
    workers_per_process: int

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {self.num_workers}")
        if self.workers_per_process <= 0:
            raise ValueError(
                f"workers_per_process must be positive, got {self.workers_per_process}"
            )

    @property
    def num_domains(self) -> int:
        """Number of domains (ceiling division: a ragged tail is its own domain)."""
        return -(-self.num_workers // self.workers_per_process)

    def domain_of(self, worker: int) -> int:
        """Domain owning ``worker``."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker {worker} outside [0, {self.num_workers})")
        return worker // self.workers_per_process

    def workers_of(self, domain: int) -> range:
        """The contiguous worker range resident in ``domain``."""
        if not 0 <= domain < self.num_domains:
            raise ValueError(f"domain {domain} outside [0, {self.num_domains})")
        lo = domain * self.workers_per_process
        hi = min(lo + self.workers_per_process, self.num_workers)
        return range(lo, hi)

    def domains(self) -> range:
        """All domain indices."""
        return range(self.num_domains)
