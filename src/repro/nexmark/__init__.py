"""NEXMark benchmark suite (paper §5.1).

A deterministic port of the reference generator plus all eight standing
queries, each implemented twice: hand-tuned on the native timely substrate
and on Megaphone's reconfigurable operator interface.  The harness that
runs them is :mod:`repro.nexmark.harness`; it imports
:mod:`repro.harness.experiment`, whose config imports this package.
"""

from repro.nexmark.config import NexmarkConfig
from repro.nexmark.generator import NexmarkGenerator, make_generator
from repro.nexmark.model import Auction, Bid, Person, kind_of
from repro.nexmark.queries import QUERIES

__all__ = [
    "Auction",
    "Bid",
    "NexmarkConfig",
    "NexmarkGenerator",
    "Person",
    "QUERIES",
    "kind_of",
    "make_generator",
]

