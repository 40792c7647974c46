"""Settings tables to config dataclasses and back, by the type hints.

A run's parameters arrive as tables (``repro.cli run --set``, a matrix
spec's cells, an event log's header).  One rule, read off each field's
resolved type hint, turns a table into its config dataclass:
``Optional[X]`` takes ``None`` or what ``X`` takes; ``int`` an integer,
never a bool; ``float`` any real but a bool, an int kept as given;
``str`` and ``bool`` only themselves; ``tuple[X, ...]`` and ``tuple`` a
list or a tuple, kept as a tuple; ``dict`` a table, its lists kept as
tuples; a class with ``parse`` and ``spec`` (``ScalingPlan``) its text;
a nested dataclass a table of its fields, or an instance whose fields
are checked the same way.  An unknown key or a wrong type raises
:class:`ConfigError` naming the dotted path
(``planner.telemetry.sample_s must be a number, got 'x'``).
:func:`to_table` is the inverse.  Value rules (ranges, combinations)
stay with the classes that own them; this module checks types only.
"""

from __future__ import annotations

import dataclasses
import numbers
import types
import typing
from functools import cache

from repro.errors import ConfigError


@cache
def field_types(cls) -> dict:
    """``{field name: resolved type hint}`` of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


def from_table(cls, table: dict, path: str = ""):
    """Build ``cls`` from ``table``, converting every value by its hint."""
    known = field_types(cls)
    unknown = sorted(set(table) - set(known))
    if unknown:
        if not path:
            raise ConfigError(f"unknown {cls.__name__} field {unknown[0]!r}")
        raise ConfigError(
            f"{path} names unknown settings {unknown}; known: {', '.join(known)}"
        )
    missing = [
        f.name for f in dataclasses.fields(cls)
        if f.init and f.name not in table
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{path} needs {', '.join(missing)}")
    kwargs = {
        name: convert(known[name], value, _join(path, name))
        for name, value in table.items()
    }
    return _construct(path, cls, **kwargs)


def check_fields(obj) -> None:
    """Convert every field of the dataclass ``obj`` in place (a config's
    ``__post_init__`` calls this before its value rules)."""
    for name, value in _converted(obj, "").items():
        setattr(obj, name, value)


def convert(tp, value, path: str):
    """``value`` as the hint ``tp`` holds it (ConfigError if it cannot)."""
    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is types.UnionType:
        if value is None:
            return None
        (inner,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        return convert(inner, value, path)
    if tp is bool:
        if isinstance(value, bool):
            return value
        raise _wrong(path, "true or false", value)
    if tp is int:
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return value
        raise _wrong(path, "an integer", value)
    if tp is float:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return value
        raise _wrong(path, "a number", value)
    if tp is str:
        if isinstance(value, str):
            return value
        raise _wrong(path, "a string", value)
    if tp is tuple or origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _wrong(path, "a list", value)
        args = typing.get_args(tp)
        items = [
            convert(args[0], item, f"{path}[{i}]") if args else _frozen(item)
            for i, item in enumerate(value)
        ]
        return value if _same(value, items) else tuple(items)
    if tp is dict or origin is dict:
        if not isinstance(value, dict):
            raise _wrong(path, "a table", value)
        items = {key: _frozen(item) for key, item in value.items()}
        unchanged = all(items[key] is item for key, item in value.items())
        return value if unchanged else items
    if hasattr(tp, "parse") and hasattr(tp, "spec"):
        if isinstance(value, tp):
            return value
        if not isinstance(value, str):
            raise _wrong(path, "a string", value)
        try:
            return tp.parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path} {value!r}: {exc}") from None
    if dataclasses.is_dataclass(tp):
        if isinstance(value, tp):
            changed = _converted(value, path)
            if not changed:
                return value
            return _construct(path, dataclasses.replace, value, **changed)
        if not isinstance(value, dict):
            raise _wrong(path, "a table", value)
        return from_table(tp, value, path)
    raise TypeError(f"{path}: no settings rule for the type {tp!r}")


def to_table(value):
    """The table form of a config value: a dataclass as a table of its
    fields, a ``spec``/``parse`` class as its text, tuples as lists."""
    if hasattr(value, "spec") and hasattr(type(value), "parse"):
        return value.spec()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_table(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [to_table(item) for item in value]
    if isinstance(value, dict):
        return {key: to_table(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"{type(value).__name__} has no table form")


def _converted(obj, path: str) -> dict:
    """The fields of the dataclass ``obj`` that their conversion changes
    (a list held for a tuple, a table for a nested dataclass)."""
    changed = {}
    for name, tp in field_types(type(obj)).items():
        value = getattr(obj, name)
        converted = convert(tp, value, _join(path, name))
        if converted is not value:
            changed[name] = converted
    return changed


def _construct(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a class's own ``ValueError`` re-raised
    as a ConfigError naming ``path`` (a ConfigError names its field)."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


def _frozen(value):
    """A list inside an untyped value, as a tuple (recursively)."""
    if isinstance(value, (list, tuple)):
        items = [_frozen(item) for item in value]
        return value if _same(value, items) else tuple(items)
    return value


def _same(value, items: list) -> bool:
    return isinstance(value, tuple) and all(a is b for a, b in zip(items, value))


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _wrong(path: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{path} must be {expected}, got {value!r}")
