"""The fused-bid generator emits exactly what the per-event generator emits.

``NexmarkGenerator.generate`` builds bids in one loop per run of
consecutive bids and fills each ``Bid``'s ``__dict__`` directly;
``tests/nexmark/reference_generator.py`` is the generator before that
change, one helper call and one dataclass ``__init__`` per event.  Random
configs, workers, seeds, strides and sequences of ``generate`` calls run on
both.  Every record must be equal to the reference's, of the same type,
with the same hash, ``repr`` and pickle bytes (so the same ``__dict__``
key order), and both generators must end in the same state.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nexmark.config import NexmarkConfig
from repro.nexmark.generator import NexmarkGenerator
from tests.nexmark.reference_generator import NexmarkGenerator as ReferenceGenerator

_CONFIGS = st.one_of(
    st.just(NexmarkConfig()),
    st.builds(
        NexmarkConfig,
        person_proportion=st.integers(0, 3),
        auction_proportion=st.integers(0, 4),
        bid_proportion=st.integers(0, 60),
        active_auctions=st.integers(1, 200),
        hot_auction_ratio=st.integers(1, 8),
        hot_auction_count=st.integers(1, 20),
        num_categories=st.integers(1, 12),
    ).filter(lambda config: config.events_per_cycle > 0),
)

# Counts of 0, short calls that end mid-cycle and calls longer than the
# default 50-event cycle, so calls straddle cycle boundaries.
_COUNTS = st.lists(
    st.one_of(st.just(0), st.integers(1, 60), st.integers(60, 400)),
    min_size=1,
    max_size=8,
)


def _state(gen):
    return (
        gen._lcg.state,
        gen._events,
        gen._next_person,
        gen._next_auction,
        gen._person_stride,
        gen._auction_stride,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    config=_CONFIGS,
    worker=st.integers(0, 7),
    seed=st.integers(0, 2**32),
    strides=st.one_of(st.none(), st.integers(1, 16)),
    counts=_COUNTS,
)
def test_fused_generator_matches_the_reference(config, worker, seed, strides, counts):
    fused = NexmarkGenerator(config, worker, seed)
    reference = ReferenceGenerator(config, worker, seed)
    if strides is not None:
        fused.configure_strides(strides)
        reference.configure_strides(strides)
    for epoch_ms, count in enumerate(counts):
        got = fused.generate(epoch_ms * 10, count)
        want = reference.generate(epoch_ms * 10, count)
        assert len(got) == len(want) == count
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert g == w
            assert hash(g) == hash(w)
            assert repr(g) == repr(w)
            assert pickle.dumps(g) == pickle.dumps(w)
        assert _state(fused) == _state(reference)

