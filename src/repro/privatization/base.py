"""Common interface for privatization methods.

A method participates at three points in a job's life:

1. **Build time** — it adjusts :class:`~repro.program.compiler.CompileOptions`
   (force PIE, tag TLS, keep GOT refs, ...) and validates toolchain/OS
   requirements.
2. **Startup** — :meth:`PrivatizationMethod.setup_process` runs once per
   OS process; it creates whatever per-rank storage the method uses and
   returns each rank's *wiring*: which segment instance every global name
   routes to, which code segment the rank executes, and its TLS instance.
   All work is charged to the process's startup clock (Figure 5).
3. **Steady state** — a per-context-switch surcharge
   (:meth:`context_switch_extra_ns`, Figure 6) and migration support
   (Figure 8), including any method-specific blockers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import MigrationUnsupportedError, UnsupportedToolchain
from repro.machine import MachineModel
from repro.mem.segments import CodeInstance, SegmentInstance
from repro.perf.costs import CostModel
from repro.program.binary import Binary
from repro.program.compiler import CompileOptions
from repro.program.context import AccessRoute

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import JobLayout, OsProcess
    from repro.charm.vrank import VirtualRank
    from repro.elf.loader import DynamicLoader
    from repro.fs.sharedfs import SharedFileSystem


@dataclass(frozen=True)
class Capabilities:
    """Feature-matrix row (Tables 1 and 3)."""

    method: str
    automation: str          #: "Poor" / "Mediocre" / "Good" / "Fortran-specific" / ...
    portability: str
    requires_source_changes: bool = False


@dataclass
class RankWiring:
    """What setup produced for one rank."""

    routes: dict[str, AccessRoute]
    code: CodeInstance
    tls_instance: SegmentInstance | None = None
    #: MPI entry table from the function-pointer shim (funcptr builds) —
    #: name -> callable into the *single* runtime instance.
    shim_calltable: dict[str, Callable] | None = None


@dataclass
class SetupEnv:
    """Everything a method may touch while setting up one OS process."""

    process: "OsProcess"
    loader: "DynamicLoader"
    machine: MachineModel
    layout: "JobLayout"
    costs: CostModel
    sharedfs: "SharedFileSystem | None" = None
    #: concurrent processes hammering the shared FS at startup (FSglobals)
    concurrent_procs: int = 1
    job_tag: str = "job0"
    optimized: bool = True
    #: the AMPI API transport handed to funcptr shims (one per process;
    #: identical bound methods everywhere == the runtime is NOT privatized)
    funcptr_transport: dict[str, Callable] | None = None
    #: optional :class:`repro.trace.TraceRecorder` (None == tracing off)
    trace: Any = None
    #: pid of this process's startup track in the trace
    trace_pid: int = 0
    #: ``unpack_funcptr_shim``'s plan for this process: (data segment
    #: image, transport, slot -> pointer, calltable); dropped with the env
    shim_plan: tuple | None = field(default=None, init=False, repr=False)


class PrivatizationMethod(abc.ABC):
    """Base class; subclasses are stateless policy + per-job bookkeeping."""

    name: str = "abstract"
    capabilities: Capabilities
    #: whether the program must be linked against the AMPI function-pointer
    #: shim (Figure 4) because its code is duplicated per rank
    uses_funcptr_shim: bool = False
    #: place among the automatic runtime methods, cheapest machinery
    #: first: the order ``repro check`` tries them in when it predicts
    #: the minimal sufficient method (None: never predicted — a source
    #: refactoring, or an option variant registered under a second name)
    cost_rank: int | None = None
    #: what a caller with no program or machine of its own (the capability
    #: probes) needs to build a job of this method: the source language its
    #: tooling accepts, a preset whose toolchain has what it requires
    #: (None: any), and whether one OS process may run several PEs
    source_language: str = "c"
    toolchain_preset: str | None = None
    smp_capable: bool = True

    # -- build time ---------------------------------------------------------------

    def compile_options(self, base: CompileOptions,
                        machine: MachineModel) -> CompileOptions:
        """Adjust build flags.  Code that is duplicated per rank (the
        shim methods) must be position-independent; nothing else is."""
        return base.with_(pie=True) if self.uses_funcptr_shim else base

    def check_supported(self, machine: MachineModel,
                        layout: "JobLayout") -> None:
        """Raise a specific error if this machine/layout cannot run the
        method (portability checks executed, not tabulated)."""

    def validate_binary(self, binary: Binary) -> None:
        """Raise if the build product is unusable with this method."""
        if self.uses_funcptr_shim and not binary.is_pie:
            raise UnsupportedToolchain(
                f"{self.capabilities.method} requires the program to be "
                "built as a PIE")

    # -- startup --------------------------------------------------------------------

    @abc.abstractmethod
    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        """Materialize per-rank state for every rank in this process."""

    # -- steady state ------------------------------------------------------------------

    def context_switch_extra_ns(self, costs: CostModel) -> int:
        """Extra work at each ULT context switch (on top of the baseline)."""
        return 0

    # -- migration ------------------------------------------------------------------------

    #: whether the method can migrate ranks at all
    supports_migration: bool = True
    #: human-readable reason when it cannot
    migration_blocker: str = ""
    #: ... and whether that reason is only that nobody built it
    migration_possible: bool = False

    def check_migratable(self, rank: "VirtualRank") -> None:
        if not self.supports_migration:
            raise MigrationUnsupportedError(
                f"{self.name}: {self.migration_blocker or 'migration unsupported'}",
                possible=self.migration_possible,
            )

    def migration_discount_bytes(self, rank: "VirtualRank",
                                 dest_process: "OsProcess") -> int:
        """Bytes of the rank's payload that need not cross the wire
        because the destination already holds identical content (e.g.
        deduplicated code segments).  Default: none."""
        return 0

    # -- correctness probe metadata -----------------------------------------------------------

    def privatizes_var(self, var) -> bool:
        """Whether a given VarDef gets a private per-rank copy.

        Used by capability probes; the authoritative answer is what the
        wiring actually routes, this is the method's *claim*.
        """
        return var.unsafe

    # -- misc ------------------------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ({self.name})>"
