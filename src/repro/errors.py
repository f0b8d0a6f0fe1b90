"""Exception hierarchy for the process-virtualization simulator.

Every failure mode the paper discusses has a dedicated exception type so
that tests can assert on the *specific* limitation being exercised (e.g.
the glibc namespace limit for PIPglobals, or the missing-rank reduction
error for PIEglobals).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all simulator errors."""


# ---------------------------------------------------------------------------
# Memory / address-space errors
# ---------------------------------------------------------------------------

class MemoryError_(ReproError):
    """Base class for simulated-memory errors."""


class MapError(MemoryError_):
    """An mmap-style request could not be satisfied (overlap/exhaustion)."""


class SegFault(MemoryError_):
    """An access touched an unmapped simulated address."""

    def __init__(self, address: int, message: str = ""):
        self.address = address
        super().__init__(message or f"segmentation fault at {address:#x}")


class IsomallocError(MemoryError_):
    """Isomalloc invariant violation (range collision, double free, ...)."""


# ---------------------------------------------------------------------------
# Linker / loader errors
# ---------------------------------------------------------------------------

class LinkError(ReproError):
    """Static-link failure (duplicate/undefined symbols, bad relocation)."""


class LoaderError(ReproError):
    """Dynamic-loader failure (dlopen/dlmopen/dlsym)."""


class NamespaceLimitError(LoaderError):
    """glibc's dlmopen namespace limit was exhausted.

    Stock glibc supports only 16 link-map namespaces, of which PIP-style
    usage can claim about 12 before running out; the PIP project ships a
    patched glibc raising the limit.  PIPglobals inherits this ceiling.
    """


class SymbolNotFound(LoaderError):
    """dlsym failed to resolve a symbol."""


# ---------------------------------------------------------------------------
# Compiler / toolchain errors
# ---------------------------------------------------------------------------

class CompileError(ReproError):
    """The simulated compiler rejected the program or flag combination."""


class UnsupportedToolchain(CompileError):
    """A method's compiler/linker requirement is not met.

    Examples from the paper: Swapglobals needs ld <= 2.23 or a patched
    newer ld; TLSglobals needs GCC or Clang >= 10 for
    ``-mno-tls-direct-seg-refs``; -fmpc-privatize needs the Intel compiler
    or a patched GCC.
    """


# ---------------------------------------------------------------------------
# Privatization / runtime errors
# ---------------------------------------------------------------------------

class PrivatizationError(ReproError):
    """A privatization method could not be applied."""


class SmpUnsupportedError(PrivatizationError):
    """Method cannot run with multiple scheduler threads per OS process.

    Swapglobals has exactly one active GOT per process, so SMP mode (many
    PEs per process) is impossible.
    """


class MigrationUnsupportedError(PrivatizationError):
    """The rank's memory cannot be migrated between address spaces.

    PIPglobals and FSglobals cannot intercept the loader's internal mmap
    calls, leaving their code/data segments outside Isomalloc.
    ``possible`` marks the other case (Table 1's "Not implemented, but
    possible"): nothing in the design forbids it, it was never built.
    """

    def __init__(self, message: str = "", *, possible: bool = False):
        self.possible = possible
        super().__init__(message)


class ReductionOffsetError(ReproError):
    """A user-defined reduction op must be applied on a PE with no
    resident virtual ranks while PIEglobals is active (no code base to
    rebase the function-pointer offset against)."""


class CheckpointError(ReproError):
    """Checkpoint/restart failure."""


#: machine-checkable unrecoverability taxonomy — every
#: :class:`FaultUnrecoverableError` carries exactly one of these codes,
#: so harnesses classify failures structurally instead of string-matching
#: exception messages
UNRECOVERABLE_REASONS = (
    "buddy-pair-dead",        #: a crash destroyed both snapshot copies
    "nprocs-too-small",       #: single OS process: the buddy is itself
    "no-survivor",            #: every PE in the job is down
    "no-checkpoint",          #: crash before any checkpoint existed
    "retrans-exhausted",      #: reliable transport hit its attempt cap
    "crash-during-recovery",  #: a cascading crash killed the restart
    "checkpoint-corrupt",     #: no intact checkpoint generation left
    "method-uncheckpointable",  #: privatization method cannot snapshot
    "bad-ft-config",          #: invalid fault-tolerance configuration
    # -- service-layer reasons (repro serve resilience) --------------------
    "poison-job",             #: job killed its worker repeatedly; quarantined
    "deadline-exceeded",      #: client deadline passed before completion
    "pool-dead",              #: every pool worker died, respawn budget spent
    "unclassified",           #: raise site predates the taxonomy
)


class FaultUnrecoverableError(ReproError):
    """An injected fault cannot be recovered from.

    Raised (instead of hanging or silently corrupting the job) when a
    node crash strikes a job whose state cannot be restored: no
    checkpoint exists, the privatization method cannot checkpoint
    (PIPglobals/FSglobals under the Isomalloc limitation), or the crash
    took both in-memory copies of some rank's snapshot.

    ``reason`` is one of :data:`UNRECOVERABLE_REASONS`; it is surfaced
    on :class:`~repro.ampi.runtime.JobResult` as ``unrecoverable_reason``
    and compared during provenance replay, so an unrecoverable scenario
    must fail with the *same* classification on every re-run.
    """

    def __init__(self, message: str = "", *, reason: str = "unclassified"):
        if reason not in UNRECOVERABLE_REASONS:
            raise ValueError(f"unknown unrecoverable reason {reason!r}")
        self.reason = reason
        super().__init__(message)


# ---------------------------------------------------------------------------
# MPI-layer errors
# ---------------------------------------------------------------------------

class MpiError(ReproError):
    """Generic MPI-layer error (bad communicator, count mismatch, ...)."""


class MpiAbort(ReproError):
    """MPI_Abort was invoked by a rank."""

    def __init__(self, errorcode: int = 1, message: str = ""):
        self.errorcode = errorcode
        super().__init__(message or f"MPI_Abort(errorcode={errorcode})")


class DeadlockError(ReproError):
    """The scheduler found no runnable ULT while ranks are still blocked."""


class SharedFsError(ReproError):
    """Simulated shared-filesystem failure (missing file, out of space)."""
