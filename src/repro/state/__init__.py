"""``repro.state`` — the pluggable state-backend layer.

Lifts bin state behind a :class:`~repro.state.backend.StateBackend`
interface (whole-state access, ``extract_bin``/``install_bin``, byte
accounting, per-bin key and record stats) with a
:class:`~repro.state.codecs.Codec` abstraction for the serialized form.
``BinStore`` owns one backend per worker-operator pair; migration
shipping, snapshots, and crash recovery all serialize through the single
``extract_bin`` + codec path.

Built-ins: ``dict`` (the seed's behavior, byte-identical), ``tiered``
(hot RAM tier, cold modeled-disk tier with LRU spill and
promote-on-access), and ``wal`` (segmented CRC32-framed write-ahead log with crash-consistent recovery and per-key dirty epochs
for delta migration — DESIGN.md §13).  Codecs: ``modeled``, ``pickle``,
``struct``.  See DESIGN.md §10.
"""

from repro.state.backend import (
    BinNotResident,
    BinPayload,
    BinStats,
    DictBackend,
    StateBackend,
    default_state_size,
)
from repro.state.codecs import Codec, ModeledCodec, PickleCodec, StructCodec
from repro.state.registry import (
    DEFAULT_BACKEND,
    DEFAULT_CODEC,
    backend_names,
    codec_names,
    make_backend,
    resolve_backend,
    resolve_codec,
)
from repro.state.tiered import TieredSpillBackend
from repro.state.wal import (
    WalBackend,
    WalRecovery,
    WalRegistry,
    WalState,
    WorkerWal,
)

__all__ = [
    "BinNotResident",
    "BinPayload",
    "BinStats",
    "Codec",
    "DEFAULT_BACKEND",
    "DEFAULT_CODEC",
    "DictBackend",
    "ModeledCodec",
    "PickleCodec",
    "StateBackend",
    "StructCodec",
    "TieredSpillBackend",
    "WalBackend",
    "WalRecovery",
    "WalRegistry",
    "WalState",
    "WorkerWal",
    "backend_names",
    "codec_names",
    "default_state_size",
    "make_backend",
    "resolve_backend",
    "resolve_codec",
]
