"""Program sources: declarations + function bodies.

A :class:`ProgramSource` is the simulator's analogue of a C/C++/Fortran
code base: global/static/TLS variable declarations (the privatization
problem surface), functions (Python callables taking the execution
context as their first argument), optional C++-style static constructors,
and a code-size hint so large applications (ADCIRC: ~14 MB of .text) cost
accordingly when copied or migrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import CompileError
from repro.mem.segments import FuncDef, VarDef


def _source_location(fn: Callable) -> tuple[str | None, int]:
    """Where ``fn`` was defined on the host, for clickable findings."""
    code = getattr(fn, "__code__", None)
    if code is None:  # builtins, partials, C callables
        return None, 0
    return code.co_filename, code.co_firstlineno


@dataclass(frozen=True)
class ProgramSource:
    """An immutable program description (build input)."""

    name: str
    variables: tuple[VarDef, ...] = ()
    functions: tuple[FuncDef, ...] = ()
    entry: str = "main"
    static_ctors: tuple[str, ...] = ()
    #: `int *p = &x;`-style address initializations: var -> target symbol
    addr_inits: dict[str, str] = field(default_factory=dict)
    code_bytes: int = 0          #: pad .text to at least this
    language: str = "c"          #: "c", "cxx", or "fortran"

    def var(self, name: str) -> VarDef:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(f"{self.name}: no variable {name!r}")

    def unsafe_vars(self) -> list[VarDef]:
        """Variables whose sharing across ranks is incorrect (Section 2.2)."""
        return [v for v in self.variables if v.unsafe]


class Program:
    """Fluent builder for :class:`ProgramSource`.

    Example
    -------
    >>> p = Program("hello")
    >>> p.add_global("my_rank", 0)
    >>> p.add_global("num_ranks", 0, write_once_same=True)
    >>> @p.function(code_bytes=300)
    ... def main(ctx):
    ...     ctx.g.my_rank = ctx.mpi.rank()
    ...     ctx.mpi.barrier()
    ...     return ctx.g.my_rank
    >>> source = p.build()
    """

    def __init__(self, name: str, language: str = "c", code_bytes: int = 0):
        if language not in ("c", "cxx", "fortran"):
            raise CompileError(f"unknown language {language!r}")
        self.name = name
        self.language = language
        self.code_bytes = code_bytes
        self._vars: list[VarDef] = []
        self._funcs: list[FuncDef] = []
        self._ctors: list[str] = []
        self._addr_inits: dict[str, str] = {}
        self._entry = "main"

    # -- declarations ----------------------------------------------------------

    def add_global(self, name: str, init: Any = 0, *, size: int = 8,
                   const: bool = False, tls: bool = False,
                   write_once_same: bool = False,
                   hls_level: str = "rank") -> "Program":
        """Declare a mutable (or const) global variable.

        ``hls_level`` ("rank"/"process"/"node") is MPC's hierarchical
        local storage hint: data that is identical across all ranks of a
        process or node can be privatized at that coarser level to save
        memory (honoured by the ``mpc`` method).
        """
        self._vars.append(VarDef(name, size=size, init=init, const=const,
                                 tls=tls, write_once_same=write_once_same,
                                 hls_level=hls_level))
        return self

    def add_static(self, name: str, init: Any = 0, *, size: int = 8,
                   tls: bool = False) -> "Program":
        """Declare a static (local-linkage) variable — the Swapglobals hole."""
        self._vars.append(VarDef(name, size=size, init=init, static=True,
                                 tls=tls))
        return self

    def add_pointer_global(self, name: str, target: str) -> "Program":
        """Declare ``type *name = &target;`` — an address-initialized slot.

        These are exactly the data-segment contents PIEglobals' pointer
        scan must discover and rebase.
        """
        self.add_global(name, init=0)
        self._addr_inits[name] = target
        return self

    def function(self, name: str | None = None, code_bytes: int = 256
                 ) -> Callable[[Callable], Callable]:
        """Decorator registering a function body."""
        def register(fn: Callable) -> Callable:
            self.add_function(fn, name=name or fn.__name__,
                              code_bytes=code_bytes)
            return fn
        return register

    def add_function(self, fn: Callable, *, name: str | None = None,
                     code_bytes: int = 256) -> "Program":
        src_file, src_line = _source_location(fn)
        self._funcs.append(FuncDef(name or fn.__name__, code_bytes, fn,
                                   src_file=src_file, src_line=src_line))
        return self

    def static_ctor(self, name: str | None = None, code_bytes: int = 128
                    ) -> Callable[[Callable], Callable]:
        """Decorator registering a C++-style static constructor.

        Constructors run at load (``dlopen``) time with a
        :class:`~repro.elf.loader.LoaderCtx`, not an execution context.
        """
        if self.language == "c":
            raise CompileError("static constructors require C++ ('cxx')")

        def register(fn: Callable) -> Callable:
            fname = name or fn.__name__
            src_file, src_line = _source_location(fn)
            self._funcs.append(FuncDef(fname, code_bytes, fn,
                                       src_file=src_file, src_line=src_line))
            self._ctors.append(fname)
            return fn
        return register

    def set_entry(self, name: str) -> "Program":
        self._entry = name
        return self

    # -- output -------------------------------------------------------------------

    def build(self) -> ProgramSource:
        names = [v.name for v in self._vars]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise CompileError(f"{self.name}: duplicate variables {dupes}")
        return ProgramSource(
            name=self.name,
            variables=tuple(self._vars),
            functions=tuple(self._funcs),
            entry=self._entry,
            static_ctors=tuple(self._ctors),
            addr_inits=dict(self._addr_inits),
            code_bytes=self.code_bytes,
            language=self.language,
        )
