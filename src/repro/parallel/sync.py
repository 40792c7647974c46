"""Conservative lookahead synchronization across shards.

One barrier round of the protocol (the classic synchronous
conservative-window scheme, null-message-free):

1. Compute each domain's *effective next time* ``eff[d]``: the earlier of
   its local heap peek and the earliest delivery among entries queued for
   it.  ``inf`` everywhere means the simulation is drained — terminate.
2. Grant every domain the same global bound ``B = min_d eff[d] +
   lookahead`` (``inf`` for a single domain): no event anywhere in the
   system exists below ``min eff``, and any cross-shard effect of an event
   is delayed by at least the minimum cross-process link latency.
3. Every domain with queued entries or ``eff[d] < B`` runs one window:
   inject its inbox, fire local events strictly below the grant, emit data
   and progress entries for other domains.  Route those into inboxes for
   the next round.

Safety: every event fired in round ``j`` has time ``>= min_eff(j)``, so
every entry generated in round ``j`` has delivery ``>= min_eff(j) +
lookahead = B(j)``; since every domain's clock stays strictly below
``B(j)``, injections never travel into a shard's past — *including*
transitive chains (a message sent mid-window cannot provoke a reply
inside the same window, because the reply is itself an effect of an
in-window event and therefore also lands at ``>= B(j)``).
``DomainSimulator`` enforces the invariant with a hard error.  The
tempting sharper per-domain grant ``B[d] = min_{o != d} eff[o] +
lookahead`` is **unsound** for exactly that chain reason: a domain
running far past the global minimum can send a message that wakes a peer
whose induced reply lands in the sender's already-executed window.

Progress: every domain that fires in round ``j`` drains its heap below
``B(j)`` and all new entries deliver at ``>= B(j)``, so the global
minimum advances by at least one full lookahead per round — the round
count is bounded by (simulated duration / lookahead).

Determinism: the sequence of ``(grant, inbox)`` pairs per domain is a
pure function of this loop and of the windows' own outputs; the executor
only decides where a granted window runs, which is why two runs of one
config produce identical simulations.
"""

from __future__ import annotations

import math

_INF = math.inf

# Backstop against a protocol bug looping forever; real runs take
# (duration / lookahead) rounds, a few hundred at ms-scale links.
MAX_ROUNDS = 10_000_000


class ParallelStall(RuntimeError):
    """The protocol found live work but could not grant any domain a
    window — a lookahead/accounting bug, never a user error."""


def run_protocol(executor) -> int:
    """Drive shards to global quiescence; returns the number of rounds.

    ``executor`` is a :class:`repro.parallel.supervisor.LocalExecutor`:
    ``lookahead``, ``domains()``, ``initial_next_times()`` and
    ``run_round(assignments)`` are what this loop uses of it.
    """
    domains = list(executor.domains())
    lookahead = executor.lookahead
    next_times = dict(executor.initial_next_times())
    inboxes: dict = {d: [] for d in domains}
    single = len(domains) == 1
    rounds = 0
    while True:
        eff = {}
        for d in domains:
            inbox_min = min(
                (entry.delivery for entry in inboxes[d]), default=_INF
            )
            eff[d] = min(next_times[d], inbox_min)
        minimum = min(eff.values())
        if minimum == _INF:
            return rounds
        grant = _INF if single else minimum + lookahead
        active = [d for d in domains if inboxes[d] or eff[d] < grant]
        if not active:
            raise ParallelStall(
                "no shard is grantable but work remains: "
                + ", ".join(
                    f"domain {d}: next={eff[d]:.9f} grant={grant:.9f}"
                    for d in domains
                    if eff[d] != _INF
                )
            )
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise ParallelStall(
                f"exceeded {MAX_ROUNDS} synchronization rounds; "
                "the window protocol is not converging"
            )
        assignments = {d: (grant, inboxes[d]) for d in active}
        for d in active:
            inboxes[d] = []
        results = executor.run_round(assignments)
        for d, (next_time, outbox) in results.items():
            next_times[d] = next_time
            for entry in outbox:
                inboxes[entry.dst_domain].append(entry)
