"""Privatization methods — the paper's core contribution surface.

Eight methods are implemented behind one interface
(:class:`~repro.privatization.base.PrivatizationMethod`):

=================  ==========================================================
``none``           baseline: all ranks share globals (the Figure 2/3 bug)
``manual``         manual code refactoring (globals -> per-rank struct)
``photran``        source-to-source refactoring, Fortran only
``swapglobals``    per-rank GOT swapped at context switch (no statics, no SMP)
``tlsglobals``     user-tagged thread_local vars, TLS pointer swapped
``mpc``            ``-fmpc-privatize``: compiler auto-tags everything as TLS
``pipglobals``     dlmopen namespace per rank (glibc limit, no migration)
``fsglobals``      per-rank binary copy on a shared FS + dlopen (no migration)
``pieglobals``     manual PIE code+data copies via Isomalloc (migratable)
=================  ==========================================================
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.privatization.base import (
        Capabilities,
        PrivatizationMethod,
        RankWiring,
        SetupEnv,
    )
    from repro.privatization.registry import get_method, method_names, register
    from repro.privatization.none_ import NoPrivatization
    from repro.privatization.manual import ManualRefactoring, Photran
    from repro.privatization.swapglobals import Swapglobals
    from repro.privatization.tlsglobals import TlsGlobals
    from repro.privatization.mpc import MpcPrivatize
    from repro.privatization.pipglobals import PipGlobals
    from repro.privatization.fsglobals import FsGlobals
    from repro.privatization.pieglobals import PieGlobals

# A job loads the registry and its own method's module
# (:data:`repro.privatization.registry.METHODS`), never the other eight.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.privatization.base": ("Capabilities", "PrivatizationMethod",
                                 "RankWiring", "SetupEnv"),
    "repro.privatization.registry": ("get_method", "method_names",
                                     "register"),
    "repro.privatization.none_": ("NoPrivatization",),
    "repro.privatization.manual": ("ManualRefactoring", "Photran"),
    "repro.privatization.swapglobals": ("Swapglobals",),
    "repro.privatization.tlsglobals": ("TlsGlobals",),
    "repro.privatization.mpc": ("MpcPrivatize",),
    "repro.privatization.pipglobals": ("PipGlobals",),
    "repro.privatization.fsglobals": ("FsGlobals",),
    "repro.privatization.pieglobals": ("PieGlobals",),
})
