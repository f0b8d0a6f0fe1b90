"""Memhog: a rank that allocates a configurable heap and migrates.

The Figure 8 workload: one rank fills its heap with ``heap_mb`` of data,
then asks to migrate to another PE.  Total migration payload is the heap
plus the ULT stack, TLS copy, and — under PIEglobals — the private
code+data segment copy, so sweeping ``heap_mb`` exposes how the fixed
code-segment surcharge amortizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.program.source import Program, ProgramSource


@dataclass(frozen=True)
class MemhogConfig:
    heap_mb: int = 16
    code_bytes: int = 14 * 1024 * 1024   #: ADCIRC-sized .text by default
    target_pe: int = 1                   #: where rank 0 migrates to
    chunk_mb: int = 4                    #: allocation granularity

    def __post_init__(self) -> None:
        if self.heap_mb < 1:
            raise ReproError("heap_mb must be >= 1")


def build_memhog_program(cfg: MemhogConfig) -> ProgramSource:
    p = Program("memhog", code_bytes=cfg.code_bytes)
    p.add_global("allocated_mb", 0)

    heap_mb = cfg.heap_mb
    chunk_mb = cfg.chunk_mb
    target_pe = cfg.target_pe

    @p.function(code_bytes=2048)
    def main(ctx):
        mpi = ctx.mpi
        mpi.init()
        me = mpi.rank()
        remaining = heap_mb
        while remaining > 0:
            mb = min(chunk_mb, remaining)
            data = np.zeros(mb * 1024 * 1024 // 8)
            ctx.malloc(data.nbytes, data=data, tag="memhog")
            remaining -= mb
            ctx.g.allocated_mb = heap_mb - remaining
        yield from mpi.barrier()
        t0 = ctx.clock.now
        if me == 0:
            yield from mpi.migrate_to(target_pe)
        migrate_ns = ctx.clock.now - t0
        yield from mpi.barrier()
        yield from mpi.finalize()
        return migrate_ns

    return p.build()
