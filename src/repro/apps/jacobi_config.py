"""Jacobi-3D's configuration and its process grid, without numpy.

:meth:`repro.harness.jobspec.JobSpec.validate` refuses a Jacobi spec
whose grid is finer than its domain through
:meth:`JacobiConfig.check_grid`; that runs on ``repro serve``'s submit
path, which does not load numpy.  The solver itself is
:mod:`repro.apps.jacobi3d`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ReproError

#: simulated .text footprint: "our Jacobi-3D standalone benchmark is
#: around 100 lines of code and has a PIEglobals code segment size of 3 MB"
JACOBI_CODE_BYTES = 3 * 1024 * 1024


@lru_cache(maxsize=None)
def dims_create(nranks: int, ndims: int = 3) -> tuple[int, ...]:
    """MPI_Dims_create-style balanced factorization of ``nranks``.

    Pure function of its arguments and called once per rank, so it is
    memoized — at 4k VPs the repeated factorization showed up in the
    event-loop profile.
    """
    dims = [1] * ndims
    remaining = nranks
    f = 2
    factors: list[int] = []
    while f * f <= remaining:
        while remaining % f == 0:
            factors.append(f)
            remaining //= f
        f += 1
    if remaining > 1:
        factors.append(remaining)
    for p in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= p
    return tuple(sorted(dims, reverse=True))


def _block_bounds(n: int, parts: int, idx: int) -> tuple[int, int]:
    """[start, end) of block ``idx`` when n cells split into ``parts``."""
    base = n // parts
    extra = n % parts
    start = idx * base + min(idx, extra)
    end = start + base + (1 if idx < extra else 0)
    return start, end


@dataclass(frozen=True)
class JacobiConfig:
    n: int = 24                      #: global cube edge (n^3 cells)
    iters: int = 10
    reduce_every: int = 5            #: residual allreduce period
    omega: float = 0.8               #: relaxation weight
    compute_ns_per_cell: float = 2.0
    code_bytes: int = JACOBI_CODE_BYTES
    lb_period: int = 0               #: call AMPI_Migrate every k iters (0=off)
    #: collective checkpoint every k iters (0=off); makes the solver
    #: restart-aware: it resumes from the checkpointed iteration, both
    #: after an in-run crash recovery and under ``restore_from=``
    ckpt_period: int = 0
    #: tag the inner-loop globals ``thread_local`` — what a user does when
    #: building for TLSglobals (Figure 7's per-access overhead probe)
    tag_tls: bool = False

    def __post_init__(self) -> None:
        if self.n < 2 or self.iters < 1:
            raise ReproError("jacobi needs n >= 2 and iters >= 1")

    def check_grid(self, nvp: int) -> None:
        """Refuse ``nvp`` ranks whose process grid has more ranks than
        cells on an axis: a rank would own an empty block (and send its
        ghost plane as a face)."""
        dims = dims_create(nvp, 3)
        if self.n < max(dims):
            raise ReproError(
                f"jacobi needs n >= {max(dims)} to give each of {nvp} "
                f"ranks a block of the {'x'.join(map(str, dims))} "
                f"dims_create grid, got n={self.n}")
