"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists, per submodule, the names it re-exports.  The submodule is
imported the first time one of its names is read from the package, so
importing one light module of a package (``repro.planner.config``, say)
does not load the rest of it.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __all__)`` for ``package``, re-exporting ``table``
    (submodule name -> the names it defines)."""
    home = {name: f"{package}.{module}" for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, sorted(home)
