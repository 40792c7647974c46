"""The built-in state backends and codecs, by name.

Selection everywhere (``ExperimentConfig``'s ``state_backend`` and
``codec`` fields, the NEXMark harness) is by name.  Unknown names raise
``ValueError`` listing the known ones; the config turns that into a
``ConfigError``, which the CLI reports as a usage error.  A backend's
module is imported by the first lookup of its name, so a run on ``dict``
loads neither the tiered nor the WAL backend.
"""

from __future__ import annotations

import importlib
from typing import Callable, Optional, Type

from repro.state.backend import StateBackend
from repro.state.codecs import Codec, ModeledCodec, PickleCodec, StructCodec

DEFAULT_BACKEND = "dict"
DEFAULT_CODEC = "modeled"

# name -> (module, class name)
_BACKENDS: dict[str, tuple[str, str]] = {
    "dict": ("repro.state.backend", "DictBackend"),
    "tiered": ("repro.state.tiered", "TieredSpillBackend"),
    "wal": ("repro.state.wal", "WalBackend"),
}
# Codecs are stateless, so one instance each serves every backend.
_CODECS: dict[str, Codec] = {
    "modeled": ModeledCodec(),
    "pickle": PickleCodec(),
    "struct": StructCodec(),
}


def backend_names() -> list[str]:
    return sorted(_BACKENDS)


def codec_names() -> list[str]:
    return sorted(_CODECS)


def resolve_backend(name: str) -> Type[StateBackend]:
    """The backend class registered under ``name`` (ValueError if unknown)."""
    try:
        module, cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown state backend {name!r}; registered: "
            f"{', '.join(backend_names())}"
        ) from None
    return getattr(importlib.import_module(module), cls)


def resolve_codec(name: str) -> Codec:
    """The codec instance registered under ``name`` (ValueError if unknown)."""
    try:
        return _CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; registered: {', '.join(codec_names())}"
        ) from None


def make_backend(
    name: str,
    state_factory: Callable[[], object],
    size_fn: Callable[[object], float],
    codec: str | Codec = DEFAULT_CODEC,
    options: Optional[dict] = None,
) -> StateBackend:
    """Construct a named backend with a resolved codec.

    ``options`` are backend-specific constructor keywords (e.g. the tiered
    backend's ``hot_capacity_bytes``); ``None`` values are dropped so
    callers can thread optional config fields through unconditionally.
    """
    cls = resolve_backend(name)
    if isinstance(codec, str):
        codec = resolve_codec(codec)
    kwargs = {
        key: value for key, value in (options or {}).items() if value is not None
    }
    return cls(state_factory, size_fn, codec, **kwargs)

