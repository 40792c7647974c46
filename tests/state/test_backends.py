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
    backend.state_of(3)["k"] = 1
    backend.state_of(3)["j"] = 2
    assert backend.state_of(3).get("k") == 1
    assert backend.state_of(3).get("missing", 99) == 99
    assert dict(backend.state_of(3).items()) == {"k": 1, "j": 2}
    del backend.state_of(3)["j"]
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
    backend.state_of(0)[1] = 10
    backend.state_of(0)[2] = 20
    payload = backend.extract_bin(0, remove=True)
    assert not backend.has_bin(0)
    assert payload.keys == 2 or name == "tiered"  # tiered reports 0 for cold
    other = _backend(name)
    other.install_bin(payload)
    assert dict(other.state_of(0).items()) == {1: 10, 2: 20}


def test_bin_not_resident_error_names_the_disagreement():
    for backend in ("dict", "wal", "tiered"):
        store = BinStore(
            num_bins=8, state_factory=dict, backend=backend, worker_id=3
        )
        store.create(1)
        store.create(5)
        # One lookup, one group read (the columnar apply path) and a take:
        # each names the same disagreement.
        for lookup in (
            lambda: store.get(2),
            lambda: store.group_states([1, 2, 5]),
            lambda: store.take(2),
        ):
            with pytest.raises(BinNotResident) as excinfo:
                lookup()
            message = str(excinfo.value)
            assert "bin 2" in message
            assert "worker 3" in message
            assert "1" in message and "5" in message  # the resident set
            assert excinfo.value.bin_id == 2
            assert excinfo.value.worker == 3
            assert set(excinfo.value.resident) == {1, 5}
            # BinNotResident is a KeyError, so pre-existing handlers still work.
            assert isinstance(excinfo.value, KeyError)


def test_tiered_spills_coldest_bin_first():
    backend = _backend("tiered", hot_capacity_bytes=40)
    for bin_id in range(3):
        backend.create_bin(bin_id)
        for k in range(2):
            backend.state_of(bin_id)[k] = k  # 16 bytes per bin
    # Touch 0 and 2 so bin 1 is the coldest.
    backend.state_of(0)
    backend.state_of(2)
    backend.create_bin(3)
    backend.state_of(3)[1] = 1  # pushes resident past 40 bytes
    assert backend.spills >= 1
    stats = {b: backend.bin_stats(b) for b in backend.bin_ids()}
    assert not stats[1].resident  # the coldest was evicted
    assert backend.spilled_bytes() > 0
    assert backend.resident_bytes() <= 40
    # Touching the spilled bin promotes it back (and may evict another).
    assert dict(backend.state_of(1).items()) == {0: 0, 1: 1}
    assert backend.promotions >= 1
    assert backend.bin_stats(1).resident


def test_tiered_spill_order_is_deterministic():
    def build():
        backend = _backend("tiered", hot_capacity_bytes=64)
        for bin_id in range(8):
            backend.create_bin(bin_id)
            backend.state_of(bin_id)[bin_id] = bin_id
            backend.state_of(bin_id)[-bin_id - 1] = 0
        return backend

    first, second = build(), build()
    assert [first.bin_stats(b).resident for b in range(8)] == [
        second.bin_stats(b).resident for b in range(8)
    ]
    assert first.spills == second.spills


def test_tiered_spill_and_promote_order_is_pinned():
    """The exact LRU order: which bins are resident after each step of one
    scripted mix of accesses, and the final spill/promotion counts.  Every
    bin is created holding one 8-byte key, so untouched bins tie on the
    access stamp and their ``repr`` decides ("30" spills before "9")."""
    backend = make_backend(
        "tiered", lambda: {"seed": 0}, _size_fn, codec="modeled",
        options={"hot_capacity_bytes": 40},
    )

    def resident():
        return sorted(b for b in backend.bin_ids() if backend.bin_stats(b).resident)

    steps = []
    for bin_id in (0, 1, 2):
        backend.create_bin(bin_id)
    steps.append(resident())
    for bin_id in (2, 1, 0):
        backend.state_of(bin_id)["a"] = 1  # 16 bytes each; puts do not spill
    steps.append(resident())
    backend.note_applied(0)
    steps.append(resident())
    backend.states_of_group([2, 1])
    steps.append(resident())
    payload = backend.extract_bin(2, remove=True)
    steps.append(resident())
    backend.create_bin(30)
    backend.create_bin(9)
    steps.append(resident())
    backend.install_bin(payload)
    steps.append(resident())
    backend.state_of(30)
    steps.append(resident())
    backend.put_state(9, {"x": 1, "y": 2, "z": 3})
    steps.append(resident())
    backend.states_of_group([1, 2, 9])
    steps.append(resident())
    assert steps == [
        [0, 1, 2],
        [0, 1, 2],
        [0, 1],
        [1, 2],
        [1],
        [1, 9, 30],
        [1, 2, 9],
        [1, 2, 30],
        [9, 30],
        [2, 9],
    ]
    assert (backend.spills, backend.promotions) == (10, 6)


def test_tiered_extract_ships_cold_payload_without_promotion():
    backend = _backend("tiered", hot_capacity_bytes=8)
    backend.create_bin(0)
    backend.state_of(0)[1] = 10
    backend.create_bin(1)
    backend.state_of(1)[2] = 20
    backend.note_applied(1)  # re-enforce capacity: spills the colder bin 0
    assert not backend.bin_stats(0).resident
    promotions = backend.promotions
    payload = backend.extract_bin(0, remove=True)
    assert backend.promotions == promotions  # shipped cold, not promoted
    assert payload.state_bytes == 8
    other = _backend("dict")
    other.install_bin(payload)
    assert dict(other.state_of(0).items()) == {1: 10}


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
