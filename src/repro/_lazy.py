"""PEP 562 lazy re-exports for package ``__init__`` modules.

``import repro.harness`` should cost what the caller then uses, not the
whole subtree: a package lists its public names by home module and this
helper resolves each on first attribute access (``pkg.name``,
``from pkg import name``, ``from pkg import *``), then caches it in the
package namespace so later accesses are plain lookups.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    namespace: dict[str, Any], homes: Mapping[str, Sequence[str]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """Module-level ``__getattr__``, ``__dir__`` and ``__all__`` for a
    package whose ``globals()`` is ``namespace`` and whose public names
    live in ``homes`` (``{home module: names}``)::

        if TYPE_CHECKING:                 # what type checkers/IDEs read
            from repro.perf.clock import SimClock
        __getattr__, __dir__, __all__ = lazy_exports(
            globals(), {"repro.perf.clock": ("SimClock",)})
    """
    home_of = {name: module for module, names in homes.items()
               for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home_of[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(importlib.import_module(module),
                                          name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home_of})

    return __getattr__, __dir__, list(home_of)
