"""Build products: a linked image plus the options that produced it."""

from __future__ import annotations

from dataclasses import dataclass

from repro.elf.image import ElfImage
from repro.mem.segments import VarDef
from repro.program.source import ProgramSource


@dataclass(frozen=True)
class Binary:
    """One compiled+linked program, ready for a loader."""

    image: ElfImage
    source: ProgramSource
    options: "CompileOptions"  # noqa: F821 - forward ref, defined in compiler.py

    @property
    def name(self) -> str:
        return self.image.name

    @property
    def is_pie(self) -> bool:
        return self.image.is_pie

    @property
    def tls_switchable(self) -> bool:
        """Whether TLS accesses go through the segment pointer
        (-mno-tls-direct-seg-refs or the MPC compiler pass), i.e. the
        runtime may swap TLS segments per rank."""
        return self.options.tls_seg_refs or self.options.fmpc_privatize

    def tls_vars(self) -> list[VarDef]:
        """Variables the build placed in the TLS segment."""
        return list(self.image.tls.vars.values())

    def unsafe_shared_vars(self) -> list[VarDef]:
        """Unsafe variables that are *not* in TLS — i.e. still vulnerable
        under a TLS-only privatization scheme (the TLSglobals tagging gap)."""
        return [v for v in self.image.data.vars.values() if v.unsafe]

    def got_covered_vars(self) -> list[str]:
        """Variable names reachable through the GOT (Swapglobals coverage)."""
        return [slot.symbol for slot in self.image.got if not slot.is_func]

    def describe(self) -> str:
        return self.image.describe()
