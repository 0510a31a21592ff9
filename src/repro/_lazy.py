"""Lazy package namespaces (PEP 562): a name is imported when first read.

A package ``__init__`` states its exports once, as a table from module to
the names it contributes, and gets back its module ``__getattr__`` and its
``__all__``::

    __getattr__, __all__ = namespace(__name__, {
        "repro.service.cache": "CacheEntry LeafResultCache",
        "repro.service.snapshot": "snapshot",   # a submodule itself
    })

``from repro.service import LeafResultCache`` then imports
``repro.service.cache`` and nothing else, so a process loads the modules it
uses, not every module its packages re-export.  A resolved name is stored
on the package, so ``__getattr__`` runs once per name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def namespace(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], list[str]]:
    """The ``(__getattr__, __all__)`` of ``package`` from ``exports``, a
    table of module -> space-separated names; a name equal to the module's
    last component (a submodule of ``package``) stands for the module."""
    origin = {name: module for module, names in exports.items() for name in names.split()}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(origin[name])
        value = module if origin[name] == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(origin)
