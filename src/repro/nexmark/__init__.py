"""NEXMark benchmark suite (paper §5.1).

A deterministic port of the reference generator plus all eight standing
queries, each implemented twice: hand-tuned on the native timely substrate
and on Megaphone's reconfigurable operator interface.  The harness that
runs them is :mod:`repro.nexmark.harness`; it imports
:mod:`repro.harness.experiment`, whose config imports this package.
"""

from repro.lazy import exports

__getattr__, __all__ = exports(__name__, {
    "config": ("NexmarkConfig",),
    "generator": ("NexmarkGenerator", "make_generator"),
    "model": ("Auction", "Bid", "Person", "kind_of"),
    "queries": ("QUERIES",),
})
