"""NEXMark Query 3: local item suggestion (incremental two-input join).

Join persons from selected states with category-10 auctions, keyed by
person id = auction seller.  Both relations are retained forever, so state
grows without bound (paper Figure 7).
"""

from __future__ import annotations

from repro.nexmark.config import NexmarkConfig
from repro.nexmark.queries.common import NexmarkStreams
from repro.timely.graph import Exchange

class _NativeQ3Logic:
    """Hand-tuned incremental join: person id == auction seller."""

    def __init__(self, cfg: NexmarkConfig, worker_id: int) -> None:
        self._cfg = cfg
        self._persons: dict[int, tuple] = {}
        self._auctions: dict[int, list] = {}

    def on_input(self, ctx, port, time, records):
        out = []
        if port == 0:
            for person in records:
                if person.state not in self._cfg.filtered_states:
                    continue
                info = (person.name, person.city, person.state)
                self._persons[person.id] = info
                for auction_id in self._auctions.get(person.id, ()):
                    out.append(info + (auction_id,))
        else:
            for auction in records:
                if auction.category != self._cfg.filtered_category:
                    continue
                self._auctions.setdefault(auction.seller, []).append(auction.id)
                info = self._persons.get(auction.seller)
                if info is not None:
                    out.append(info + (auction.id,))
        if out:
            ctx.send(0, time, out)


def native(streams: NexmarkStreams, cfg: NexmarkConfig):
    """Hand-tuned Q3."""
    out = streams.persons.binary(
        streams.auctions,
        "q3",
        lambda worker_id: _NativeQ3Logic(cfg, worker_id),
        pact1=Exchange(lambda p: p.id),
        pact2=Exchange(lambda a: a.seller),
    )
    return out, None


def megaphone(control, streams: NexmarkStreams, cfg: NexmarkConfig,
              num_bins: int, initial=None, **state_opts):
    """Megaphone Q3: the join as one migrateable binary operator."""
    from repro.megaphone.api import binary

    def fold(time, persons, auctions, state, notificator):
        out = []
        people = state.setdefault("p", {})
        listings = state.setdefault("a", {})
        for person in persons:
            if person.state not in cfg.filtered_states:
                continue
            info = (person.name, person.city, person.state)
            people[person.id] = info
            out.extend(info + (aid,) for aid in listings.get(person.id, ()))
        for auction in auctions:
            if auction.category != cfg.filtered_category:
                continue
            listings.setdefault(auction.seller, []).append(auction.id)
            info = people.get(auction.seller)
            if info is not None:
                out.append(info + (auction.id,))
        return out

    op = binary(
        control, streams.persons, streams.auctions,
        exchange1=lambda p: p.id,
        exchange2=lambda a: a.seller,
        fold=fold, num_bins=num_bins, initial=initial, name="q3",
        state_size_fn=lambda s: 64.0 * cfg.state_bytes_scale
        * (len(s.get("p", ())) + len(s.get("a", ()))),
        **state_opts,
    )
    return op.output, op
