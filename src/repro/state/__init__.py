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

from repro.lazy import exports

__getattr__, __all__ = exports(__name__, {
    "backend": (
        "BinNotResident", "BinPayload", "BinStats", "DictBackend", "StateBackend",
        "default_state_size",
    ),
    "codecs": ("Codec", "ModeledCodec", "PickleCodec", "StructCodec"),
    "registry": (
        "DEFAULT_BACKEND", "DEFAULT_CODEC", "backend_names", "codec_names",
        "make_backend", "resolve_backend", "resolve_codec",
    ),
    "tiered": ("TieredSpillBackend",),
    "wal": ("WalBackend", "WalRecovery", "WalRegistry", "WalState", "WorkerWal"),
})
