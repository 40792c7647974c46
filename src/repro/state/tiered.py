"""Tiered spill backend: hot bins in modeled RAM, cold bins on modeled disk.

The paper's memory evaluation (Figure 20) is entirely about where state
bytes live over time.  This backend makes that a policy: resident (hot)
bins hold live state objects; once resident bytes exceed
``hot_capacity_bytes``, the least-recently-accessed bins are *spilled* —
codec-encoded and held in a cold tier whose bytes no longer count toward
the process's modeled RSS.  Touching a spilled bin *promotes* it back
(decode, then re-enforce the capacity), so access patterns drive a
deterministic spill/promote churn the tiered Fig. 20 bench plots as a
resident-vs-spilled timeline.

Everything is deterministic in simulated terms: spill order is the LRU
order of the backend's own access sequence (stamped by ``state_of``,
``put_state`` and ``install_bin``; a bin never accessed holds stamp 0), and
no simulator events are scheduled — the tier only moves bytes between
accounting pools.  The stamps are this backend's alone: no other backend
keeps per-access state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.state.backend import (
    BinPayload,
    BinStats,
    StateBackend,
    _key_count,
)
from repro.state.codecs import Codec


@dataclass
class _Slot:
    """One bin's tier residence: exactly one of state/payload is set."""

    state: object = None
    payload: object = None
    cold_bytes: int = 0
    resident: bool = True


class TieredSpillBackend(StateBackend):
    """Two-tier bin storage with LRU spill and promote-on-access."""

    name = "tiered"

    def __init__(
        self,
        state_factory: Callable[[], object],
        size_fn: Callable[[object], float],
        codec: Codec,
        hot_capacity_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(state_factory, size_fn, codec)
        if hot_capacity_bytes is not None and hot_capacity_bytes <= 0:
            raise ValueError("hot_capacity_bytes must be positive (or None)")
        self.hot_capacity_bytes = hot_capacity_bytes
        self._slots: dict[object, _Slot] = {}
        # LRU bookkeeping: each bin's last access, on a backend-wide sequence.
        self._last_access: dict[object, int] = {}
        self._access_seq = 0
        self.spills = 0
        self.promotions = 0
        self.spilled_bytes_total = 0
        self.promoted_bytes_total = 0

    # -- bin lifecycle ----------------------------------------------------------

    def create_bin(self, bin_id: object) -> object:
        if bin_id in self._slots:
            raise ValueError(f"bin {bin_id} already present")
        state = self._state_factory()
        self._slots[bin_id] = _Slot(state=state)
        self._enforce_capacity(exclude=bin_id)
        return state

    def has_bin(self, bin_id: object) -> bool:
        return bin_id in self._slots

    def drop_bin(self, bin_id: object) -> None:
        self._slots.pop(bin_id, None)
        self._forget(bin_id)

    def bin_ids(self) -> list:
        return list(self._slots)

    # -- access stamps ----------------------------------------------------------

    def _touch(self, bin_id: object) -> None:
        self._access_seq += 1
        self._last_access[bin_id] = self._access_seq

    def _forget(self, bin_id: object) -> None:
        super()._forget(bin_id)
        self._last_access.pop(bin_id, None)

    # -- tier movement ----------------------------------------------------------

    def _promote(self, bin_id: object, slot: _Slot) -> None:
        slot.state = self.codec.decode(slot.payload)
        self.promotions += 1
        self.promoted_bytes_total += slot.cold_bytes
        slot.payload = None
        slot.cold_bytes = 0
        slot.resident = True

    def _spill(self, bin_id: object, slot: _Slot) -> None:
        payload = self.codec.encode(slot.state)
        measured = self.codec.measured_bytes(payload)
        cold = measured if measured is not None else self.modeled_bytes(slot.state)
        slot.payload = payload
        slot.cold_bytes = cold
        slot.state = None
        slot.resident = False
        self.spills += 1
        self.spilled_bytes_total += cold

    def _enforce_capacity(self, exclude: object = None) -> None:
        capacity = self.hot_capacity_bytes
        if capacity is None:
            return
        resident = self.resident_bytes()
        if resident <= capacity:
            return
        # Coldest-first: smallest last-access sequence; bin id breaks ties
        # so spill order is deterministic across runs.
        candidates = sorted(
            (
                (self._last_access.get(bin_id, 0), repr(bin_id), bin_id)
                for bin_id, slot in self._slots.items()
                if slot.resident and bin_id != exclude
            ),
        )
        for _, _, bin_id in candidates:
            if resident <= capacity:
                break
            slot = self._slots[bin_id]
            size = self.modeled_bytes(slot.state)
            self._spill(bin_id, slot)
            resident -= size

    # -- state access -----------------------------------------------------------

    def state_of(self, bin_id: object) -> object:
        slot = self._slots[bin_id]
        self._touch(bin_id)
        if not slot.resident:
            self._promote(bin_id, slot)
            self._enforce_capacity(exclude=bin_id)
        return slot.state

    def put_state(self, bin_id: object, state: object) -> None:
        slot = self._slots[bin_id]
        slot.state = state
        slot.payload = None
        slot.cold_bytes = 0
        slot.resident = True
        self._touch(bin_id)
        self._enforce_capacity(exclude=bin_id)

    def note_applied(self, bin_id: object) -> None:
        """Re-enforce capacity after an applier grew the bin."""
        self._enforce_capacity(exclude=bin_id)

    # -- byte accounting --------------------------------------------------------

    def state_bytes(self, bin_id: object) -> int:
        slot = self._slots[bin_id]
        if slot.resident:
            return self.modeled_bytes(slot.state)
        return slot.cold_bytes

    def resident_bytes(self) -> int:
        return sum(
            self.modeled_bytes(slot.state)
            for slot in self._slots.values()
            if slot.resident
        )

    def spilled_bytes(self) -> int:
        return sum(
            slot.cold_bytes
            for slot in self._slots.values()
            if not slot.resident
        )

    # -- statistics -------------------------------------------------------------

    def bin_stats(self, bin_id: object) -> BinStats:
        slot = self._slots[bin_id]
        if slot.resident:
            keys = _key_count(slot.state)
            hot, cold = self.modeled_bytes(slot.state), 0
        else:
            keys = 0
            hot, cold = 0, slot.cold_bytes
        return BinStats(
            bin_id=bin_id,
            keys=keys,
            resident_bytes=hot,
            spilled_bytes=cold,
            records=self._records.get(bin_id, 0),
        )

    # -- serialization ----------------------------------------------------------

    def extract_bin(self, bin_id: object, *, remove: bool = True) -> BinPayload:
        slot = self._slots[bin_id]
        if slot.resident:
            state = slot.state
            keys = _key_count(state)
            if remove:
                payload = self.codec.encode(state)
            else:
                payload = self.codec.encode(self.codec.copy(state))
            measured = self.codec.measured_bytes(payload)
            nbytes = measured if measured is not None else self.modeled_bytes(state)
        else:
            # Already encoded in the cold tier: ship the payload as-is.
            payload = slot.payload
            nbytes = slot.cold_bytes
            keys = 0
            if not remove:
                payload = (
                    bytes(payload)
                    if isinstance(payload, (bytes, bytearray))
                    else self.codec.encode(self.codec.copy(self.codec.decode(payload)))
                )
        if remove:
            del self._slots[bin_id]
            self._forget(bin_id)
        return BinPayload(
            bin_id=bin_id,
            codec=self.codec.name,
            payload=payload,
            state_bytes=nbytes,
            size_bytes=nbytes,
            keys=keys,
        )

    def install_bin(self, payload: BinPayload, *, replace: bool = False) -> object:
        if not replace and payload.bin_id in self._slots:
            raise ValueError(f"bin {payload.bin_id} already present")
        from repro.state.registry import resolve_codec

        state = resolve_codec(payload.codec).decode(payload.payload)
        self._slots[payload.bin_id] = _Slot(state=state)
        self._touch(payload.bin_id)
        self._enforce_capacity(exclude=payload.bin_id)
        return state
