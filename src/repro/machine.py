"""Machine and toolchain models.

The paper's portability matrix (Tables 1 and 3) is about *which method
works where*: linker versions (Swapglobals), compiler support for
``-mno-tls-direct-seg-refs`` (TLSglobals), patched compilers
(-fmpc-privatize), glibc extensions and patches (PIPglobals, PIEglobals),
and shared filesystems (FSglobals).  :class:`Toolchain` and
:class:`MachineModel` carry exactly that information so the capability
probes in the benchmark harness can *execute* the portability checks
rather than hardcode a table.

Presets model the paper's two testbeds:

* ``BRIDGES2`` — PSC Bridges-2 regular-memory nodes: 2x AMD EPYC 7742
  (128 cores), GCC 10.2, Mellanox HDR InfiniBand, Lustre shared FS.
* ``STAMPEDE2_ICX`` — TACC Stampede2 Intel Xeon Ice Lake nodes (used in
  the paper only for the instruction-cache counter study).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

from repro.perf.costs import CacheGeometry, CostModel, TEST_COSTS


class Arch(enum.Enum):
    X86_64 = "x86_64"
    ARM64 = "arm64"
    PPC64LE = "ppc64le"


class Os(enum.Enum):
    LINUX = "linux"
    MACOS = "macos"
    BSD = "bsd"


class Libc(enum.Enum):
    GLIBC = "glibc"
    MUSL = "musl"
    SYSTEM = "system"  #: non-GNU system libc (macOS, BSD)


@dataclass(frozen=True)
class Toolchain:
    """Compiler / linker / libc feature description."""

    compiler: str = "gcc"                 #: "gcc", "clang", "icc", ...
    compiler_version: tuple[int, int] = (10, 2)
    linker_version: tuple[int, int] = (2, 35)   #: binutils ld version
    linker_got_patch: bool = False        #: patched ld >= 2.24 keeping GOT refs
    libc: Libc = Libc.GLIBC
    glibc_patched_namespaces: bool = False  #: PIP's patched glibc (> 12 namespaces)
    supports_pie: bool = True             #: PIE is ubiquitous on modern systems
    mpc_privatize_support: bool = False   #: Intel compiler or patched GCC

    # -- feature predicates the privatization methods query -------------------

    @property
    def supports_tls_seg_refs_flag(self) -> bool:
        """GCC (any recent) or Clang >= 10 provide -mno-tls-direct-seg-refs."""
        if self.compiler == "gcc":
            return True
        if self.compiler == "clang":
            return self.compiler_version >= (10, 0)
        return False

    @property
    def linker_keeps_got_refs(self) -> bool:
        """Swapglobals needs ld <= 2.23 or a patched newer ld; otherwise the
        linker optimizes away the GOT reference at each global access."""
        return self.linker_version <= (2, 23) or self.linker_got_patch

    @property
    def has_dlmopen(self) -> bool:
        return self.libc is Libc.GLIBC

    @property
    def has_dl_iterate_phdr(self) -> bool:
        """Stable in glibc since 2005; musl ships it too."""
        return self.libc in (Libc.GLIBC, Libc.MUSL)

    @property
    def dlmopen_namespace_limit(self) -> int:
        """Usable dlmopen namespaces per process (glibc caps at 16 link-map
        namespaces; ~12 are practically available; PIP's patch lifts it)."""
        if not self.has_dlmopen:
            return 0
        return 1024 if self.glibc_patched_namespaces else 12


@dataclass(frozen=True)
class MachineModel:
    """One machine configuration: hardware + toolchain + cost model."""

    name: str
    arch: Arch = Arch.X86_64
    os: Os = Os.LINUX
    toolchain: Toolchain = field(default_factory=Toolchain)
    costs: CostModel = field(default_factory=CostModel)
    cores_per_node: int = 128
    l1i: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8, 64)
    )
    l2_per_core_bytes: int = 512 * 1024
    has_shared_fs: bool = True
    #: simulated link-time base of the runtime's hot code; differences in
    #: incidental code layout across toolchains are what made the paper's
    #: icache results flip sign between testbeds (see DESIGN.md Section 4).
    runtime_code_base: int = 0x40_0000
    app_code_base: int = 0x60_0000
    #: hot-loop code-volume inflation of builds using
    #: -mno-tls-direct-seg-refs (TLSglobals): each TLS access carries an
    #: extra address-computation sequence.  Toolchain-dependent — GCC's
    #: codegen inflates noticeably more than ICC's — and the parameter
    #: behind the paper's machine-dependent Section 4.5 icache results.
    tls_code_inflation: float = 0.15

    def copy_with(self, **kw: Any) -> "MachineModel":
        return replace(self, **kw)


#: PSC Bridges-2 "regular memory" node (2x AMD EPYC 7742, GCC 10.2.0,
#: OpenMPI over Mellanox HDR InfiniBand, Lustre).
BRIDGES2 = MachineModel(
    name="bridges2",
    arch=Arch.X86_64,
    os=Os.LINUX,
    toolchain=Toolchain(
        compiler="gcc",
        compiler_version=(10, 2),
        linker_version=(2, 35),
        libc=Libc.GLIBC,
    ),
    cores_per_node=128,
    l1i=CacheGeometry(32 * 1024, 8, 64),
    l2_per_core_bytes=512 * 1024,
    runtime_code_base=0x40_0000,
    app_code_base=0x60_0000,
    tls_code_inflation=0.35,
)

#: TACC Stampede2 Intel Xeon Ice Lake node (newer GCC with MPC's patch
#: available; different code layout, larger L2, and a front-end whose
#: TLS-access code volume is leaner — the Section 4.5 comparison point).
STAMPEDE2_ICX = MachineModel(
    name="stampede2-icx",
    arch=Arch.X86_64,
    os=Os.LINUX,
    toolchain=Toolchain(
        compiler="gcc",
        compiler_version=(11, 2),
        linker_version=(2, 36),
        libc=Libc.GLIBC,
        mpc_privatize_support=True,
    ),
    cores_per_node=80,
    # Effective front-end instruction-supply capacity (L1i plus the large
    # Ice Lake decoded-uop cache): bigger than the raw 32 KiB L1i.
    l1i=CacheGeometry(48 * 1024, 12, 64),
    l2_per_core_bytes=1280 * 1024,
    runtime_code_base=0x40_0000,
    app_code_base=0x48_0000,
    tls_code_inflation=0.06,
)

#: A generic laptop-scale Linux box for examples and docs.
GENERIC_LINUX = MachineModel(
    name="generic-linux",
    cores_per_node=8,
)

#: An old cluster whose binutils predate the GOT optimization — the one
#: environment where Swapglobals still works out of the box.
LEGACY_LINUX_OLD_LD = MachineModel(
    name="legacy-linux-old-ld",
    toolchain=Toolchain(
        compiler="gcc",
        compiler_version=(4, 8),
        linker_version=(2, 23),
        libc=Libc.GLIBC,
    ),
    cores_per_node=16,
)

#: macOS: no glibc, hence no dlmopen and no PIP/PIE loader extensions.
MACOS_ARM = MachineModel(
    name="macos-arm",
    arch=Arch.ARM64,
    os=Os.MACOS,
    toolchain=Toolchain(
        compiler="clang",
        compiler_version=(14, 0),
        linker_version=(2, 0),
        libc=Libc.SYSTEM,
    ),
    cores_per_node=10,
    has_shared_fs=False,
)

#: An ARM64 HPC cluster (A64FX/Graviton-class).  The paper extended
#: TLSglobals to ARM and validated PIEglobals there.
ARM_CLUSTER = MachineModel(
    name="arm-cluster",
    arch=Arch.ARM64,
    os=Os.LINUX,
    toolchain=Toolchain(
        compiler="gcc",
        compiler_version=(11, 0),
        linker_version=(2, 36),
        libc=Libc.GLIBC,
    ),
    cores_per_node=64,
    l1i=CacheGeometry(64 * 1024, 4, 64),
    l2_per_core_bytes=1024 * 1024,
)

#: A POWER9 system (Summit-class).  PIEglobals was validated on POWER.
POWER9 = MachineModel(
    name="power9",
    arch=Arch.PPC64LE,
    os=Os.LINUX,
    toolchain=Toolchain(
        compiler="gcc",
        compiler_version=(9, 1),
        linker_version=(2, 30),
        libc=Libc.GLIBC,
    ),
    cores_per_node=42,
    l1i=CacheGeometry(32 * 1024, 8, 128),
    l2_per_core_bytes=512 * 1024,
)

#: Bridges-2 with PIP's patched glibc installed (lifts the namespace cap).
BRIDGES2_PATCHED_GLIBC = BRIDGES2.copy_with(
    name="bridges2-patched-glibc",
    toolchain=replace(BRIDGES2.toolchain, glibc_patched_namespaces=True),
)

#: Tiny deterministic machine for unit tests.
TEST_MACHINE = MachineModel(
    name="test",
    costs=TEST_COSTS,
    cores_per_node=4,
    l1i=CacheGeometry(4 * 1024, 2, 64),
    l2_per_core_bytes=64 * 1024,
)

PRESETS: dict[str, MachineModel] = {
    m.name: m
    for m in (
        BRIDGES2,
        STAMPEDE2_ICX,
        GENERIC_LINUX,
        ARM_CLUSTER,
        POWER9,
        LEGACY_LINUX_OLD_LD,
        MACOS_ARM,
        BRIDGES2_PATCHED_GLIBC,
        TEST_MACHINE,
    )
}


def get_machine(name: str) -> MachineModel:
    """Look up a preset by name (KeyError with a helpful message)."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown machine {name!r}; known presets: {known}") from None
