"""The "legacy MPI program" model.

Programs under test are written as Python callables plus declarations of
their global/static/TLS variables — a stand-in for C/C++/Fortran sources.
The :class:`~repro.program.compiler.Compiler` lowers a
:class:`~repro.program.source.ProgramSource` to a simulated ELF image;
at run time every global access goes through a per-rank
:class:`~repro.program.context.GlobalsView`, which is where each
privatization method's correctness and per-access cost semantics live.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.program.source import Program, ProgramSource
    from repro.program.compiler import Compiler, CompileOptions
    from repro.program.binary import Binary
    from repro.program.context import (
        AccessKind,
        AccessRoute,
        ExecutionContext,
        FetchTracer,
        GlobalsProxy,
        GlobalsView,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.program.source": ("Program", "ProgramSource"),
    "repro.program.compiler": ("Compiler", "CompileOptions"),
    "repro.program.binary": ("Binary",),
    "repro.program.context": ("AccessKind", "AccessRoute",
                              "ExecutionContext", "FetchTracer",
                              "GlobalsProxy", "GlobalsView"),
})
