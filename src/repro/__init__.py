"""repro — reproduction of "Runtime Techniques for Automatic Process
Virtualization" (Ramos, White, Bhosale, Kale; ICPP Workshops 2022).

An AMPI-style process-virtualization runtime on a simulated machine:
virtual MPI ranks as user-level threads, a simulated ELF loader
(dlopen/dlmopen/dl_iterate_phdr), Isomalloc-backed migration, dynamic
load balancing, and eight global-variable privatization methods,
including the paper's three new runtime methods (PIPglobals, FSglobals,
PIEglobals).

Quickstart
----------
>>> from repro import Program, AmpiJob
>>> p = Program("hello")
>>> p.add_global("my_rank", 0)
>>> @p.function()
... def main(ctx):
...     ctx.g.my_rank = ctx.mpi.rank()
...     ctx.mpi.barrier()
...     return ctx.g.my_rank          # wrong under method="none"!
>>> result = AmpiJob(p.build(), nvp=4, method="pieglobals").run()
>>> sorted(result.exit_values.values())
[0, 1, 2, 3]
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.program import Program, ProgramSource, Compiler, CompileOptions
    from repro.ampi import AmpiJob, JobResult, Checkpoint
    from repro.charm.node import JobLayout
    from repro.machine import (
        BRIDGES2,
        BRIDGES2_PATCHED_GLIBC,
        GENERIC_LINUX,
        LEGACY_LINUX_OLD_LD,
        MACOS_ARM,
        STAMPEDE2_ICX,
        TEST_MACHINE,
        MachineModel,
        Toolchain,
        get_machine,
    )
    from repro.privatization import get_method, method_names

__version__ = "1.0.0"

# Importing ``repro`` (which ``python -m repro`` does before anything
# else) loads none of the simulator; each name resolves on first use.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.program": ("Program", "ProgramSource", "Compiler",
                      "CompileOptions"),
    "repro.ampi": ("AmpiJob", "JobResult", "Checkpoint"),
    "repro.charm.node": ("JobLayout",),
    "repro.machine": ("BRIDGES2", "BRIDGES2_PATCHED_GLIBC", "GENERIC_LINUX",
                      "LEGACY_LINUX_OLD_LD", "MACOS_ARM", "STAMPEDE2_ICX",
                      "TEST_MACHINE", "MachineModel", "Toolchain",
                      "get_machine"),
    "repro.privatization": ("get_method", "method_names"),
})
