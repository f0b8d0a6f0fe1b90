"""Segment images and instances.

An *image* is the linker's output: a layout of named slots (variables or
functions) at fixed offsets.  An *instance* is one materialized copy of an
image at a base address in some address space.  Privatization methods are,
at bottom, policies for how many instances of which segments exist and how
a rank's accesses are routed to them:

* no privatization — one data instance shared by every rank;
* Swapglobals — one data instance per rank for GOT-addressed globals only;
* TLSglobals — one TLS instance per rank for tagged variables;
* PIP/FS/PIEglobals — full per-rank copies of code+data instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.errors import SegFault


class SegmentKind(enum.Enum):
    CODE = "code"    # .text
    DATA = "data"    # .data + .bss
    RODATA = "rodata"
    TLS = "tls"      # .tdata + .tbss


POINTER_SIZE = 8


@dataclass(frozen=True)
class VarDef:
    """One global/static/TLS variable declaration.

    The flags mirror the paper's taxonomy of unsafe variables
    (Section 2.2): mutable globals and statics are unsafe; const or
    written-once-to-the-same-value variables are safe to share.
    """

    name: str
    size: int = POINTER_SIZE
    init: Any = 0
    const: bool = False          #: read-only -> safe to share
    static: bool = False         #: static linkage (not in the GOT!)
    tls: bool = False            #: tagged thread_local / __thread
    write_once_same: bool = False  #: e.g. num_ranks: same value everywhere
    #: MPC hierarchical-local-storage level: how far privatization must
    #: go ("rank" = one copy per ULT; "process"/"node" = coarser sharing
    #: to save memory — Section 2.3.5's HLS extension).
    hls_level: str = "rank"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"variable {self.name!r} has non-positive size")
        if self.const and self.tls:
            raise ValueError(f"variable {self.name!r}: const TLS is pointless")
        if self.hls_level not in ("rank", "process", "node"):
            raise ValueError(
                f"variable {self.name!r}: unknown HLS level "
                f"{self.hls_level!r}"
            )

    @property
    def unsafe(self) -> bool:
        """True if sharing one copy across ranks can produce wrong results."""
        return not (self.const or self.write_once_same)


@dataclass(frozen=True)
class FuncDef:
    """One function: a named span of simulated machine code.

    ``fn`` is the Python callable that *interprets* the function body when
    a rank executes it; ``code_bytes`` is how much .text it occupies (what
    gets copied, migrated, and fetched through the icache model).
    """

    name: str
    code_bytes: int = 256
    fn: Callable[..., Any] | None = None
    src_file: str | None = None  #: host .py file the body was defined in
    src_line: int = 0            #: 1-based first line of the body there

    def __post_init__(self) -> None:
        if self.code_bytes <= 0:
            raise ValueError(f"function {self.name!r} has non-positive size")


class SegmentImage:
    """Linker layout of a data/rodata/TLS segment: name -> (offset, VarDef)."""

    def __init__(self, kind: SegmentKind, variables: Iterable[VarDef] = (),
                 pad_to: int = 0):
        if kind is SegmentKind.CODE:
            raise ValueError("use CodeImage for code segments")
        self.kind = kind
        self.offsets: dict[str, int] = {}
        self.vars: dict[str, VarDef] = {}
        #: every instance's starting values (copied, never handed out)
        self.initial: dict[str, Any] = {}
        off = 0
        for v in variables:
            if v.name in self.vars:
                raise ValueError(f"duplicate variable {v.name!r}")
            # 8-byte alignment for every slot, like a real linker would.
            off = (off + POINTER_SIZE - 1) & ~(POINTER_SIZE - 1)
            self.offsets[v.name] = off
            self.vars[v.name] = v
            self.initial[v.name] = v.init
            off += v.size
        self.size = max(off, pad_to, POINTER_SIZE)

    def var_names(self) -> list[str]:
        return list(self.vars)

    def __contains__(self, name: str) -> bool:
        return name in self.vars

    def instantiate(self, base: int) -> "SegmentInstance":
        return SegmentInstance(self, base)


class SegmentInstance:
    """One copy of a data/TLS segment at a base address.

    Values live in a per-instance dict; the pointer-scan API exposes them
    as (address, value) slots so PIEglobals' GOT-fixup scan can operate on
    instances the same way it would on raw memory.
    """

    __slots__ = ("image", "base", "values")

    def __init__(self, image: SegmentImage, base: int):
        self.image = image
        self.base = base
        self.values: dict[str, Any] = dict(image.initial)

    @property
    def end(self) -> int:
        return self.base + self.image.size

    def addr_of(self, name: str) -> int:
        return self.base + self.image.offsets[name]

    def read(self, name: str) -> Any:
        try:
            return self.values[name]
        except KeyError:
            raise SegFault(self.base, f"no variable {name!r} in segment") from None

    def check_writable(self, name: str) -> None:
        """Raise the fault a write to ``name`` would.

        A start-up plan asks once per image and then stores into
        ``values`` directly for every instance of it.
        """
        if name not in self.values:
            raise SegFault(self.base, f"no variable {name!r} in segment")
        if self.image.vars[name].const:
            raise SegFault(self.addr_of(name),
                           f"write to const variable {name!r}")

    def write(self, name: str, value: Any) -> None:
        self.check_writable(name)
        self.values[name] = value

    def slots(self) -> Iterator[tuple[int, str, Any]]:
        """Yield (simulated address, name, value) for every slot."""
        for name, off in self.image.offsets.items():
            yield self.base + off, name, self.values[name]

    def clone_at(self, base: int) -> "SegmentInstance":
        """A deep-enough copy at a new base (values copied, image shared)."""
        inst = SegmentInstance.__new__(SegmentInstance)
        inst.image = self.image
        inst.base = base
        inst.values = dict(self.values)
        return inst


class CodeImage:
    """Linker layout of a .text segment: function name -> offset."""

    def __init__(self, functions: Iterable[FuncDef] = (), pad_to: int = 0):
        self.offsets: dict[str, int] = {}
        self.funcs: dict[str, FuncDef] = {}
        off = 0
        for f in functions:
            if f.name in self.funcs:
                raise ValueError(f"duplicate function {f.name!r}")
            off = (off + 15) & ~15  # 16-byte function alignment
            self.offsets[f.name] = off
            self.funcs[f.name] = f
            off += f.code_bytes
        self.size = max(off, pad_to, 16)

    def __contains__(self, name: str) -> bool:
        return name in self.funcs

    def instantiate(self, base: int) -> "CodeInstance":
        return CodeInstance(self, base)


class CodeInstance:
    """One copy of a code segment at a base address."""

    __slots__ = ("image", "base")

    def __init__(self, image: CodeImage, base: int):
        self.image = image
        self.base = base

    @property
    def end(self) -> int:
        return self.base + self.image.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def addr_of(self, name: str) -> int:
        try:
            return self.base + self.image.offsets[name]
        except KeyError:
            raise SegFault(self.base, f"no function {name!r} in code segment") from None

    def symbol_at(self, addr: int) -> tuple[str, int]:
        """Map an address back to (function name, offset inside it)."""
        if not self.contains(addr):
            raise SegFault(addr, "address outside this code segment")
        rel = addr - self.base
        best_name, best_off = None, -1
        for name, off in self.image.offsets.items():
            if off <= rel and off > best_off:
                f = self.image.funcs[name]
                if rel < off + f.code_bytes:
                    best_name, best_off = name, off
        if best_name is None:
            raise SegFault(addr, "address falls in inter-function padding")
        return best_name, rel - best_off

    def fn(self, name: str) -> Callable[..., Any]:
        f = self.image.funcs[name].fn
        if f is None:
            raise SegFault(self.addr_of(name),
                           f"function {name!r} has no body to execute")
        return f
