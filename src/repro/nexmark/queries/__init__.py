"""The eight NEXMark standing queries, each in two variants.

``native(streams, cfg)`` is the hand-tuned timely implementation;
``megaphone(control, streams, cfg, num_bins, initial=None)`` is built on
Megaphone's reconfigurable operator interface.  Both return
``(output_stream, migrateable_operator_or_None)``.

:data:`QUERIES` maps each query number to its module, imported the first
time it is looked up, so a run loads only the query it runs.
"""

from __future__ import annotations

import importlib
from collections.abc import Mapping

from repro.lazy import exports


class _Queries(Mapping):
    """Query number (1-8) -> its module, each imported on first lookup."""

    _NUMBERS = range(1, 9)

    def __getitem__(self, query):
        if type(query) is not int or query not in self._NUMBERS:
            raise KeyError(query)
        return importlib.import_module(f"{__name__}.q{query}")

    def __iter__(self):
        return iter(self._NUMBERS)

    def __len__(self) -> int:
        return len(self._NUMBERS)


QUERIES = _Queries()

__getattr__, __all__ = exports(__name__, {
    "common": (
        "ClosedAuction", "NexmarkStreams", "closed_auctions_megaphone",
        "closed_auctions_native", "split_events",
    ),
})
__all__ = ["QUERIES", *__all__]
