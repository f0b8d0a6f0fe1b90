"""Simulated ELF object format and GNU-flavoured dynamic loader.

This package models exactly the pieces of the ELF/glibc machinery the
paper's privatization methods exploit: Position Independent Executables,
the Global Offset Table, TLS segments, ``dlopen``, ``dlmopen`` with
link-map namespaces (and glibc's 12-namespace practical limit), ``dlsym``,
and ``dl_iterate_phdr``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.elf.symbols import Symbol, SymbolKind, SymbolBinding, SymbolTable
    from repro.elf.got import GotTemplate, GotInstance
    from repro.elf.relocation import Relocation, RelocKind
    from repro.elf.image import ElfImage, ElfType
    from repro.elf.linker import StaticLinker, CompileUnit
    from repro.elf.loader import DynamicLoader, LinkMap, LM_ID_BASE, LM_ID_NEWLM

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.elf.symbols": ("Symbol", "SymbolKind", "SymbolBinding",
                          "SymbolTable"),
    "repro.elf.got": ("GotTemplate", "GotInstance"),
    "repro.elf.relocation": ("Relocation", "RelocKind"),
    "repro.elf.image": ("ElfImage", "ElfType"),
    "repro.elf.linker": ("StaticLinker", "CompileUnit"),
    "repro.elf.loader": ("DynamicLoader", "LinkMap", "LM_ID_BASE",
                         "LM_ID_NEWLM"),
})
