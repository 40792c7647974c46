"""The per-event NEXMark generator, kept as a test oracle.

This is :class:`repro.nexmark.generator.NexmarkGenerator` as it was before
its bids came from one fused loop: every event goes through a helper, every
bid draws through ``Lcg.next`` and builds its ``Bid`` with the dataclass
``__init__``.  ``tests/nexmark/test_generator_oracle.py`` drives both
generators through the same ``generate`` calls and requires the same
records, down to their pickle bytes, and the same generator state after.
(``make_generator`` and one dead assignment are left out.)
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

    def _make_bid(self, time_ms: int) -> Bid:
        r = self._lcg.next()
        return Bid(
            auction=self._pick_auction(r),
            bidder=self._recent_person_id(r >> 12),
            price=100 + r % 10_000,
            date_time=time_ms,
        )

    def _recent_person_id(self, r: int) -> int:
        newest = max(self._next_person - self._person_stride, 0)
        offset = (r % 50) * self._person_stride
        return max(newest - min(offset, newest), newest % self._person_stride)

    def _pick_auction(self, r: int) -> int:
        cfg = self.config
        newest = max(self._next_auction - self._auction_stride, 0)
        if r % cfg.hot_auction_ratio == 0:
            span = cfg.hot_auction_count
        else:
            span = cfg.active_auctions
        offset = ((r >> 8) % span) * self._auction_stride
        return max(newest - min(offset, newest), newest % self._auction_stride)

    # -- the harness-facing surface ----------------------------------------------

    def generate(self, epoch_ms: int, count: int) -> list:
        """The next ``count`` events, stamped with the epoch's event time.

        ``epoch_ms`` is already in the (possibly dilated) event-time domain:
        the open-loop source multiplies processing-time epochs by the
        configured dilation before calling the generator, so event time and
        dataflow timestamps coincide.
        """
        time_ms = epoch_ms
        cfg = self.config
        cycle = cfg.events_per_cycle
        out = []
        for _ in range(count):
            slot = self._events % cycle
            self._events += 1
            if slot < cfg.person_proportion:
                out.append(self._make_person(time_ms))
            elif slot < cfg.person_proportion + cfg.auction_proportion:
                out.append(self._make_auction(time_ms))
            else:
                out.append(self._make_bid(time_ms))
        return out

