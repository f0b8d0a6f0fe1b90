"""Name -> method registry (factories, so each job gets fresh bookkeeping).

The in-tree methods are one table, :data:`METHODS`, written without
importing any of them: a method's module loads the first time one of its
names is resolved, so listing the names, or running a ``none`` job,
loads none of the other eight.
"""

from __future__ import annotations

import importlib
from typing import Callable

from repro.errors import PrivatizationError
from repro.privatization.base import PrivatizationMethod

#: method name -> (home module under ``repro.privatization``, class name,
#: constructor options)
METHODS: dict[str, tuple[str, str, dict[str, bool]]] = {
    "none": ("none_", "NoPrivatization", {}),
    "manual": ("manual", "ManualRefactoring", {}),
    "photran": ("manual", "Photran", {}),
    "swapglobals": ("swapglobals", "Swapglobals", {}),
    "tlsglobals": ("tlsglobals", "TlsGlobals", {}),
    "mpc": ("mpc", "MpcPrivatize", {}),
    "pipglobals": ("pipglobals", "PipGlobals", {}),
    "fsglobals": ("fsglobals", "FsGlobals", {}),
    "pieglobals": ("pieglobals", "PieGlobals", {}),
    "pieglobals-shared-rodata": ("pieglobals", "PieGlobals",
                                 {"share_rodata": True}),
    "pieglobals-robust-scan": ("pieglobals", "PieGlobals",
                               {"robust_scan": True}),
    "pieglobals-dedup-migration": ("pieglobals", "PieGlobals",
                                   {"dedup_migration": True}),
    "pieglobals-mmap-code": ("pieglobals", "PieGlobals",
                             {"mmap_code_sharing": True}),
}

#: methods added at run time with :func:`register`
_REGISTRY: dict[str, Callable[[], PrivatizationMethod]] = {}


def register(name: str, factory: Callable[[], PrivatizationMethod]) -> None:
    if name in METHODS or name in _REGISTRY:
        raise PrivatizationError(f"method {name!r} already registered")
    _REGISTRY[name] = factory


def get_method(name_or_method: "str | PrivatizationMethod") -> PrivatizationMethod:
    """Resolve a method by name, or pass an instance through."""
    if isinstance(name_or_method, PrivatizationMethod):
        return name_or_method
    factory = _REGISTRY.get(name_or_method)
    if factory is not None:
        return factory()
    try:
        home, cls, options = METHODS[name_or_method]
    except KeyError:
        raise PrivatizationError(
            f"unknown privatization method {name_or_method!r}; "
            f"known: {', '.join(method_names())}"
        ) from None
    module = importlib.import_module(f"repro.privatization.{home}")
    return getattr(module, cls)(**options)


def method_names() -> list[str]:
    return sorted({*METHODS, *_REGISTRY})
