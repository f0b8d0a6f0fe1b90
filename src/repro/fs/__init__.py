"""Simulated shared filesystem (the FSglobals substrate)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.sharedfs import SharedFileSystem, FsFile

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.fs.sharedfs": ("SharedFileSystem", "FsFile"),
})
