"""Property tests: every backend x codec combination must round-trip bin
state through the single serialization path (extract -> encode -> wire ->
decode -> install) without loss."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.state import make_backend, resolve_codec

BACKENDS = ["dict", "tiered", "wal"]
CODECS = ["modeled", "pickle", "struct"]


def _size_fn(state):
    return len(state) * 8


def _build(backend_name, codec_name, **options):
    return make_backend(backend_name, dict, _size_fn, codec=codec_name, options=options)


# struct packs <qq pairs, so stay inside signed 64-bit range; bools are ints
# by inheritance and exercise the pickle fallback path.
int64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
int_states = st.dictionaries(int64 | st.booleans(), int64, max_size=16)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("codec_name", CODECS)
@given(state=int_states)
@settings(max_examples=25, deadline=None)
def test_extract_install_round_trip(backend_name, codec_name, state):
    source = _build(backend_name, codec_name)
    source.create_bin(7)
    for key, value in state.items():
        source.put(7, key, value)

    payload = source.extract_bin(7, remove=True)
    assert not source.has_bin(7)
    assert payload.codec == codec_name
    assert payload.keys == len(state)

    # Snapshots and the chaos log pickle the payload itself; the wire hop
    # must not corrupt it.
    revived = pickle.loads(pickle.dumps(payload))
    assert revived.decode_state(copy=True) == state

    destination = _build(backend_name, codec_name)
    destination.install_bin(revived)
    assert dict(destination.items(7)) == state
    assert destination.bin_stats(7).keys == len(state)


@pytest.mark.parametrize("codec_name", CODECS)
@given(state=int_states)
@settings(max_examples=25, deadline=None)
def test_cross_backend_migration_preserves_state(codec_name, state):
    """A bin extracted from any backend installs into any other backend."""
    backends = [_build(name, codec_name) for name in BACKENDS]
    backends[0].create_bin(0)
    for key, value in state.items():
        backends[0].put(0, key, value)
    for source, destination in zip(backends, backends[1:] + backends[:1]):
        destination.install_bin(source.extract_bin(0, remove=True))
    assert dict(backends[0].items(0)) == state


# The modeled and pickle codecs take arbitrary picklable state, not just
# flat integer maps.
rich_states = st.dictionaries(
    st.integers() | st.text(max_size=4),
    st.integers() | st.lists(st.integers(), max_size=3),
    max_size=8,
)


@pytest.mark.parametrize("codec_name", ["modeled", "pickle"])
@given(state=rich_states)
@settings(max_examples=25, deadline=None)
def test_rich_state_round_trips(codec_name, state):
    codec = resolve_codec(codec_name)
    assert codec.decode(codec.encode(codec.copy(state))) == state


@given(state=int_states)
@settings(max_examples=15, deadline=None)
def test_tiered_cold_extract_round_trips(state):
    """Bins extracted straight from the cold tier still ship full state."""
    backend = _build("tiered", "struct", hot_capacity_bytes=8)
    backend.create_bin(0)
    for key, value in state.items():
        backend.put(0, key, value)
    backend.create_bin(1)
    backend.put(1, 0, 0)
    backend.note_applied(1)  # enforce capacity: bin 0 goes cold
    destination = _build("dict", "struct")
    destination.install_bin(backend.extract_bin(0, remove=True))
    assert dict(destination.items(0)) == state
