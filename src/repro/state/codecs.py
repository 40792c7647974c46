"""Codecs: how bin state turns into shipped bytes.

Megaphone treats operator state as opaque payloads that are serialized,
shipped, and installed (paper §3-4).  A :class:`Codec` decides what those
payloads look like and how many bytes they occupy; the cost model
(:class:`repro.sim.cost.CostModel`) prices the CPU seconds per byte, and a
codec may scale those prices asymmetrically (a compact encoder can be
cheaper to write than to read back, or vice versa).

Three codecs ship:

* ``modeled`` — the default.  Payloads are the state objects themselves
  (zero-copy inside the simulation) and sizes come from the bin's modeled
  size function, so a run with this codec is byte-identical to the
  pre-backend code: shipped bytes equal the ``keys x bytes-per-key`` model.
* ``pickle`` — real ``pickle.dumps`` bytes.  Sizes are measured, not
  modeled, so state with heavy Python overhead ships more bytes than the
  model predicts.
* ``struct`` — a compact fixed-width packing for integer mappings (the
  counting workloads), falling back to pickle for anything else.  Encoding
  is cheaper per byte than decoding, exercising cost asymmetry.
"""

from __future__ import annotations

import copy
import pickle
import struct
from typing import ClassVar, Optional


class Codec:
    """Turns a bin's user state into a shippable payload and back.

    ``encode``/``decode`` must round-trip losslessly.  ``measured_bytes``
    returns the payload's actual size, or ``None`` when the codec defers to
    the bin's modeled size function (the ``modeled`` codec).  The cost
    factors scale the cost model's per-byte serialize/deserialize prices.
    """

    name: ClassVar[str] = ""
    encode_cost_factor: ClassVar[float] = 1.0
    decode_cost_factor: ClassVar[float] = 1.0

    def encode(self, state: object) -> object:
        raise NotImplementedError

    def decode(self, payload: object) -> object:
        raise NotImplementedError

    def copy(self, state: object) -> object:
        """An independent copy of ``state`` (snapshots must not alias)."""
        return self.decode(self.encode(state))

    def measured_bytes(self, payload: object) -> Optional[int]:
        """Actual payload bytes, or None to use the modeled size."""
        return None

    def encode_cost(self, cost, num_bytes: int) -> float:
        """CPU seconds to encode ``num_bytes`` of state."""
        return cost.serialize_cost(num_bytes) * self.encode_cost_factor

    def decode_cost(self, cost, num_bytes: int) -> float:
        """CPU seconds to decode ``num_bytes`` of payload."""
        return cost.deserialize_cost(num_bytes) * self.decode_cost_factor


class ModeledCodec(Codec):
    """Identity payloads, modeled sizes: the seed's exact behavior."""

    name = "modeled"

    def encode(self, state: object) -> object:
        return state

    def decode(self, payload: object) -> object:
        return payload

    def copy(self, state: object) -> object:
        return copy.deepcopy(state)


class PickleCodec(Codec):
    """Pickle-bytes payloads with measured sizes."""

    name = "pickle"

    def encode(self, state: object) -> bytes:
        return pickle.dumps(state, protocol=4)

    def decode(self, payload: object) -> object:
        return pickle.loads(payload)

    def measured_bytes(self, payload: object) -> Optional[int]:
        return len(payload)


_STRUCT_TAG = b"S"
_PICKLE_TAG = b"P"
_PAIR = struct.Struct("<qq")


def _packable(state: object) -> bool:
    if not isinstance(state, dict):
        return False
    for key, value in state.items():
        if type(key) is not int or type(value) is not int:
            return False
        if not (-(1 << 63) <= key < (1 << 63) and -(1 << 63) <= value < (1 << 63)):
            return False
    return True


class StructCodec(Codec):
    """Compact fixed-width packing for ``dict[int, int]`` states.

    16 bytes per entry instead of pickle's per-object overhead.  Non-
    conforming states fall back to pickle behind a one-byte tag, so the
    codec is safe for any workload.  Encoding is modeled cheaper per byte
    than decoding (writers stream, readers validate).
    """

    name = "struct"
    encode_cost_factor = 0.5
    decode_cost_factor = 1.25

    def encode(self, state: object) -> bytes:
        if _packable(state):
            parts = [_STRUCT_TAG]
            pack = _PAIR.pack
            parts.extend(pack(key, value) for key, value in sorted(state.items()))
            return b"".join(parts)
        return _PICKLE_TAG + pickle.dumps(state, protocol=4)

    def decode(self, payload: object) -> object:
        tag, body = payload[:1], payload[1:]
        if tag == _STRUCT_TAG:
            return {
                key: value
                for key, value in _PAIR.iter_unpack(body)
            }
        return pickle.loads(body)

    def measured_bytes(self, payload: object) -> Optional[int]:
        return len(payload)
