"""Shared pieces of the NEXMark query implementations.

``split_events`` fans the generator's single event stream out into persons,
auctions, and bids.  ``closed_auctions_native`` / ``closed_auctions_megaphone``
implement the winning-bid subplan shared by Q4 and Q6 (the paper points out
both queries share a large fraction of their plan): auctions accumulate bids
until they expire, at which point the winning price is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nexmark.model import Auction, Bid, Person
from repro.timely.dataflow import Stream
from repro.timely.graph import Exchange
from repro.timely.operators import FnLogic


@dataclass
class NexmarkStreams:
    """The three NEXMark relations as dataflow streams."""

    persons: Stream
    auctions: Stream
    bids: Stream


def split_events(events: Stream) -> NexmarkStreams:
    """Partition the event stream by record kind.

    Each relation gets one send of plain records per non-empty filtered
    batch; a Megaphone F downstream columnises them with the query's own
    exchange functions.  The filters are written out here rather than with
    ``Stream.filter`` so a profile attributes their time to the split.
    """

    def split(name: str, kind: type) -> Stream:
        def factory(worker_id: int) -> FnLogic:
            def on_input(ctx, port, time, records):
                kept = [r for r in records if isinstance(r, kind)]
                if kept:
                    ctx.send(0, time, kept)

            return FnLogic(on_input=on_input)

        return events.unary(name, factory)

    return NexmarkStreams(
        persons=split("persons", Person),
        auctions=split("auctions", Auction),
        bids=split("bids", Bid),
    )


@dataclass(frozen=True)
class ClosedAuction:
    """An expired auction and its winning price."""

    auction: int
    seller: int
    category: int
    price: int
    expires: int


# -- native subplan -------------------------------------------------------------


class _NativeClosedAuctionsLogic:
    """Hand-tuned closed-auction operator: keyed by auction id.

    Auctions register a notification at their expiry; bids fold into the
    current best price immediately (max is commutative, so arrival order
    within the window does not matter).
    """

    def __init__(self, worker_id: int) -> None:
        self._open: dict[int, list] = {}  # auction id -> [Auction, best price]
        self._closing: dict[int, list] = {}  # expiry time -> auction ids

    def on_input(self, ctx, port, time, records):
        if port == 0:
            for auction in records:
                self._open[auction.id] = [auction, auction.initial_bid]
                if auction.expires not in self._closing:
                    self._closing[auction.expires] = []
                    ctx.notify_at(auction.expires)
                self._closing[auction.expires].append(auction.id)
        else:
            for bid in records:
                entry = self._open.get(bid.auction)
                if (
                    entry is not None
                    and bid.date_time < entry[0].expires
                    and bid.price > entry[1]
                ):
                    entry[1] = bid.price

    def on_notify(self, ctx, time):
        out = []
        for auction_id in self._closing.pop(time, ()):
            auction, price = self._open.pop(auction_id)
            if price >= auction.reserve:
                out.append(
                    ClosedAuction(
                        auction=auction.id,
                        seller=auction.seller,
                        category=auction.category,
                        price=price,
                        expires=auction.expires,
                    )
                )
        if out:
            ctx.send(0, time, out)


def closed_auctions_native(streams: NexmarkStreams) -> Stream:
    """The native winning-bid subplan."""
    return streams.auctions.binary(
        streams.bids,
        "closed_auctions",
        lambda worker_id: _NativeClosedAuctionsLogic(worker_id),
        pact1=Exchange(lambda a: a.id),
        pact2=Exchange(lambda b: b.auction),
    )


# -- megaphone subplan -----------------------------------------------------------


def closed_auctions_fold(time, auctions, bids, state, notificator):
    """Megaphone fold for the winning-bid subplan (keyed by auction id).

    ``state`` maps auction id -> [Auction, best price]; a post-dated
    ``("close", id)`` record triggers the emission at expiry and migrates
    with the bin.
    """
    out = []
    for record in auctions:
        if isinstance(record, Auction):
            state[record.id] = [record, record.initial_bid]
            notificator.notify_at(record.expires, ("close", record.id))
        else:
            _, auction_id = record
            auction, price = state.pop(auction_id)
            if price >= auction.reserve:
                out.append(
                    ClosedAuction(
                        auction=auction.id,
                        seller=auction.seller,
                        category=auction.category,
                        price=price,
                        expires=auction.expires,
                    )
                )
    for bid in bids:
        entry = state.get(bid.auction)
        if (
            entry is not None
            and bid.date_time < entry[0].expires
            and bid.price > entry[1]
        ):
            entry[1] = bid.price
    return out


def closed_auctions_megaphone(
    control, streams, cfg, num_bins, initial=None, **state_opts
):
    """The migrateable winning-bid subplan."""
    from repro.megaphone.api import binary

    return binary(
        control,
        streams.auctions,
        streams.bids,
        exchange1=lambda a: a.id,
        exchange2=lambda b: b.auction,
        fold=closed_auctions_fold,
        num_bins=num_bins,
        initial=initial,
        name="closed_auctions",
        state_size_fn=lambda s: 48.0 * cfg.state_bytes_scale * len(s),
        **state_opts,
    )
