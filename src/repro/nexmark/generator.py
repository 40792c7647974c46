"""Deterministic NEXMark event generator.

A Python port of the structural behaviour of the reference generator the
paper drives its harness with:

* events arrive in a fixed 50-event cycle — 1 person, 3 auctions, 46 bids;
* person and auction ids increase monotonically;
* at any moment the ``active_auctions`` most recent auctions are open; bids
  target them uniformly, except that a configurable fraction goes to the
  few hottest (most recent) auctions;
* replaying faster does not change the active-auction count — auctions
  simply live shorter — which is exactly the paper's justification for
  time-dilating Q5 and Q8.

The generator is deterministic per ``(seed, worker)`` and produces records
whose ``date_time`` is the (optionally dilated) epoch timestamp, so event
time and dataflow time stay aligned.
"""

from __future__ import annotations

from repro.harness.openloop import Lcg
from repro.nexmark.config import NexmarkConfig
from repro.nexmark.model import (
    Auction,
    Bid,
    Person,
    FIRST_NAMES,
    LAST_NAMES,
    US_CITIES,
    US_STATES,
)


class NexmarkGenerator:
    """Event source for one worker."""

    def __init__(self, config: NexmarkConfig, worker: int, seed: int = 1) -> None:
        self.config = config
        self.worker = worker
        self._lcg = Lcg(seed * 7919 + worker)
        self._events = 0
        self._next_person = worker
        self._next_auction = worker
        self._person_stride = 1
        self._auction_stride = 1

    def configure_strides(self, num_workers: int) -> None:
        """Give each worker a disjoint id space (ids stay monotone)."""
        self._person_stride = num_workers
        self._auction_stride = num_workers

    # -- record construction ---------------------------------------------------

    def _make_person(self, time_ms: int) -> Person:
        pid = self._next_person
        self._next_person += self._person_stride
        r = self._lcg.next()
        name = (
            f"{FIRST_NAMES[r % len(FIRST_NAMES)]} "
            f"{LAST_NAMES[(r >> 8) % len(LAST_NAMES)]}"
        )
        idx = (r >> 16) % len(US_STATES)
        return Person(
            id=pid,
            name=name,
            email=f"user{pid}@example.com",
            city=US_CITIES[idx],
            state=US_STATES[idx],
            date_time=time_ms,
        )

    def _make_auction(self, time_ms: int) -> Auction:
        aid = self._next_auction
        self._next_auction += self._auction_stride
        r = self._lcg.next()
        seller = self._recent_person_id(r)
        return Auction(
            id=aid,
            item_name=f"item-{aid}",
            initial_bid=1 + r % 100,
            reserve=1 + r % 1000,
            date_time=time_ms,
            expires=time_ms + self.config.auction_duration_ms,
            seller=seller,
            category=1 + (r >> 20) % self.config.num_categories,
        )

    def _recent_person_id(self, r: int) -> int:
        newest = max(self._next_person - self._person_stride, 0)
        offset = (r % 50) * self._person_stride
        return max(newest - min(offset, newest), newest % self._person_stride)

    # -- the harness-facing surface ----------------------------------------------

    def generate(self, epoch_ms: int, count: int) -> list:
        """The next ``count`` events, stamped with the epoch's event time.

        ``epoch_ms`` is already in the (possibly dilated) event-time domain:
        the open-loop source multiplies processing-time epochs by the
        configured dilation before calling the generator, so event time and
        dataflow timestamps coincide.

        Persons and auctions come from their helpers.  Bids, 46 of every 50
        events, come from one loop per run of consecutive bids: the newest
        person and auction ids cannot change inside a run, so the loop keeps
        them, the LCG state and the config in locals, and writes the LCG
        state back once per run.  ``tests/nexmark/reference_generator.py``
        is the per-event generator it must match record for record.
        """
        cfg = self.config
        cycle = cfg.events_per_cycle
        persons = cfg.person_proportion
        first_bid = persons + cfg.auction_proportion
        hot_ratio = cfg.hot_auction_ratio
        hot_count = cfg.hot_auction_count
        active = cfg.active_auctions
        lcg = self._lcg
        mult, inc, mask = lcg.MULT, lcg.INC, lcg.MASK
        new = object.__new__
        out = []
        append = out.append
        events = self._events
        end = events + count
        while events < end:
            slot = events % cycle
            if slot < first_bid:
                events += 1
                if slot < persons:
                    append(self._make_person(epoch_ms))
                else:
                    append(self._make_auction(epoch_ms))
                continue
            run = min(cycle - slot, end - events)
            events += run
            # The pick is ``newest - offset`` clamped at the oldest id of
            # this worker's id space, which ``newest % stride`` is.
            a_stride = self._auction_stride
            newest_auction = max(self._next_auction - a_stride, 0)
            oldest_auction = newest_auction % a_stride
            p_stride = self._person_stride
            newest_person = max(self._next_person - p_stride, 0)
            oldest_person = newest_person % p_stride
            state = lcg.state
            for _ in range(run):
                state = (state * mult + inc) & mask
                r = state >> 16
                offset = ((r >> 8) % (active if r % hot_ratio else hot_count)) * a_stride
                # A frozen dataclass without slots keeps its fields in the
                # instance ``__dict__``; filling it in field order gives the
                # object ``Bid(...)`` would, pickle bytes included.
                bid = new(Bid)
                fields = bid.__dict__
                fields["auction"] = (
                    newest_auction - offset if offset < newest_auction else oldest_auction
                )
                offset = ((r >> 12) % 50) * p_stride
                fields["bidder"] = (
                    newest_person - offset if offset < newest_person else oldest_person
                )
                fields["price"] = 100 + r % 10_000
                fields["date_time"] = epoch_ms
                append(bid)
            lcg.state = state
        self._events = events
        return out


def make_generator(config: NexmarkConfig, num_workers: int, seed: int = 1):
    """A harness generator function backed by per-worker NexmarkGenerators."""
    generators: dict[int, NexmarkGenerator] = {}

    def generate(worker: int, epoch_ms: int, count: int) -> list:
        gen = generators.get(worker)
        if gen is None:
            gen = generators[worker] = NexmarkGenerator(config, worker, seed)
            gen.configure_strides(num_workers)
        return gen.generate(epoch_ms, count)

    return generate
