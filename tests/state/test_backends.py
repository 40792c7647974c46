"""Backend unit tests: lifecycle, residency errors, spill/promote, and the
registry's unknown-name behavior."""

import pytest

from repro.megaphone.bins import BinStore
from repro.state import (
    BinNotResident,
    ModeledCodec,
    backend_names,
    codec_names,
    make_backend,
    resolve_backend,
    resolve_codec,
)


def _size_fn(state):
    return len(state) * 8


def _backend(name, **options):
    return make_backend(name, dict, _size_fn, codec="modeled", options=options)


@pytest.mark.parametrize("name", ["dict", "tiered", "wal"])
def test_backend_lifecycle(name):
    backend = _backend(name)
    backend.create_bin(3)
    assert backend.has_bin(3)
    assert backend.bin_ids() == [3]
    backend.put(3, "k", 1)
    backend.put(3, "j", 2)
    assert backend.get(3, "k") == 1
    assert backend.get(3, "missing", 99) == 99
    assert dict(backend.items(3)) == {"k": 1, "j": 2}
    backend.delete(3, "j")
    assert backend.bin_stats(3).keys == 1
    assert backend.state_bytes(3) >= 8
    with pytest.raises(ValueError):
        backend.create_bin(3)
    backend.drop_bin(3)
    assert not backend.has_bin(3)


@pytest.mark.parametrize("name", ["dict", "tiered", "wal"])
def test_extract_install_round_trip(name):
    backend = _backend(name)
    backend.create_bin(0)
    backend.put(0, 1, 10)
    backend.put(0, 2, 20)
    payload = backend.extract_bin(0, remove=True)
    assert not backend.has_bin(0)
    assert payload.keys == 2 or name == "tiered"  # tiered reports 0 for cold
    other = _backend(name)
    other.install_bin(payload)
    assert dict(other.items(0)) == {1: 10, 2: 20}


def test_bin_not_resident_error_names_the_disagreement():
    store = BinStore(num_bins=8, state_factory=dict, worker_id=3)
    store.create(1)
    store.create(5)
    with pytest.raises(BinNotResident) as excinfo:
        store.get(2)
    message = str(excinfo.value)
    assert "bin 2" in message
    assert "worker 3" in message
    assert "1" in message and "5" in message  # the resident set
    assert excinfo.value.bin_id == 2
    assert excinfo.value.worker == 3
    assert set(excinfo.value.resident) == {1, 5}
    # take() goes through the same residency check.
    with pytest.raises(BinNotResident):
        store.take(2)
    # BinNotResident is a KeyError, so pre-existing handlers still work.
    assert isinstance(excinfo.value, KeyError)


def test_tiered_spills_coldest_bin_first():
    backend = _backend("tiered", hot_capacity_bytes=40)
    for bin_id in range(3):
        backend.create_bin(bin_id)
        for k in range(2):
            backend.put(bin_id, k, k)  # 16 bytes per bin
    # Touch 0 and 2 so bin 1 is the coldest.
    backend.state_of(0)
    backend.state_of(2)
    backend.create_bin(3)
    backend.put(3, 1, 1)  # pushes resident past 40 bytes
    assert backend.spills >= 1
    stats = {b: backend.bin_stats(b) for b in backend.bin_ids()}
    assert not stats[1].resident  # the coldest was evicted
    assert backend.spilled_bytes() > 0
    assert backend.resident_bytes() <= 40
    # Touching the spilled bin promotes it back (and may evict another).
    assert dict(backend.items(1)) == {0: 0, 1: 1}
    assert backend.promotions >= 1
    assert backend.bin_stats(1).resident


def test_tiered_spill_order_is_deterministic():
    def build():
        backend = _backend("tiered", hot_capacity_bytes=64)
        for bin_id in range(8):
            backend.create_bin(bin_id)
            backend.put(bin_id, bin_id, bin_id)
            backend.put(bin_id, -bin_id - 1, 0)
        return backend

    first, second = build(), build()
    assert [first.bin_stats(b).resident for b in range(8)] == [
        second.bin_stats(b).resident for b in range(8)
    ]
    assert first.spills == second.spills


def test_tiered_extract_ships_cold_payload_without_promotion():
    backend = _backend("tiered", hot_capacity_bytes=8)
    backend.create_bin(0)
    backend.put(0, 1, 10)
    backend.create_bin(1)
    backend.put(1, 2, 20)
    backend.note_applied(1)  # re-enforce capacity: spills the colder bin 0
    assert not backend.bin_stats(0).resident
    promotions = backend.promotions
    payload = backend.extract_bin(0, remove=True)
    assert backend.promotions == promotions  # shipped cold, not promoted
    assert payload.state_bytes == 8
    other = _backend("dict")
    other.install_bin(payload)
    assert dict(other.items(0)) == {1: 10}


def test_registry_lists_builtins_and_rejects_unknown_names():
    assert backend_names() == ["dict", "tiered", "wal"]
    assert codec_names() == ["modeled", "pickle", "struct"]
    with pytest.raises(ValueError, match="registered: dict, tiered, wal$"):
        resolve_backend("rocksdb")
    with pytest.raises(ValueError, match="modeled"):
        resolve_codec("arrow")


def test_make_backend_drops_none_options():
    backend = make_backend(
        "tiered", dict, _size_fn,
        codec=ModeledCodec(),
        options={"hot_capacity_bytes": None},
    )
    assert backend.hot_capacity_bytes is None
    with pytest.raises(TypeError):
        make_backend("dict", dict, _size_fn, options={"hot_capacity_bytes": 8})
