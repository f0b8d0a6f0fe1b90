"""Linked ELF image model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.elf.got import GotTemplate
from repro.elf.relocation import Relocation
from repro.elf.symbols import SymbolTable
from repro.mem.segments import CodeImage, SegmentImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.elf.loader import RelocPlan


class ElfType(enum.Enum):
    ET_EXEC = "exec"   #: fixed-address executable
    ET_DYN = "dyn"     #: PIE or shared object (relocatable anywhere)


ELF_HEADER_BYTES = 4096  #: headers + phdrs + misc sections, rounded up


class LoadPlans:
    """What the loader works out from an image at its first load and
    applies at every later one.  The image holds it, so no plan outlives
    the image — or the job that built it."""

    __slots__ = ("runtime_relocs", "reloc")

    def __init__(self) -> None:
        self.runtime_relocs: int | None = None
        self.reloc: RelocPlan | None = None


@dataclass
class ElfImage:
    """The static linker's output: segment layouts + tables.

    Instances of the segments are created at load time (by the dynamic
    loader) or by privatization methods making extra copies.  Tables may
    be edited until the image is first loaded; ``plans`` is derived from
    them then.
    """

    name: str
    etype: ElfType
    code: CodeImage
    data: SegmentImage
    rodata: SegmentImage
    tls: SegmentImage
    got: GotTemplate
    symbols: SymbolTable
    relocations: list[Relocation] = field(default_factory=list)
    static_ctors: list[str] = field(default_factory=list)
    needed: list[str] = field(default_factory=list)   #: DT_NEEDED sonames
    entry: str = "main"
    link_base: int = 0        #: preferred base; 0 for ET_DYN
    #: data variables initialized with the address of another symbol
    #: (`int *p = &x;`): var name -> symbol name.  These land as ABS64
    #: relocations and are what the PIEglobals pointer scan must find.
    addr_inits: dict[str, str] = field(default_factory=dict)
    #: shared by shallow copies: FSglobals' per-rank renamed images are
    #: one image under many paths
    plans: LoadPlans = field(default_factory=LoadPlans, repr=False,
                             compare=False)

    @property
    def is_pie(self) -> bool:
        return self.etype is ElfType.ET_DYN

    @property
    def load_size(self) -> int:
        """Bytes of address space one instance occupies."""
        return self.code.size + self.data.size + self.rodata.size

    @property
    def file_size(self) -> int:
        """On-disk size (what FSglobals copies per rank)."""
        return ELF_HEADER_BYTES + self.load_size + self.tls.size + self.got.size_bytes

    @property
    def runtime_reloc_count(self) -> int:
        n = self.plans.runtime_relocs
        if n is None:
            n = self.plans.runtime_relocs = sum(
                1 for r in self.relocations if r.needs_runtime_work)
        return n

    def describe(self) -> str:
        return (
            f"{self.name}: {self.etype.value}, "
            f"text={self.code.size}B data={self.data.size}B "
            f"rodata={self.rodata.size}B tls={self.tls.size}B "
            f"got={len(self.got)} entries, "
            f"{len(self.relocations)} relocs, "
            f"{len(self.static_ctors)} static ctors, "
            f"file={self.file_size}B"
        )
