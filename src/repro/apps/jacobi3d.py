"""Jacobi-3D: a 7-point-stencil relaxation solver over virtual ranks.

This is the paper's microbenchmark workload: every variable referenced in
the innermost computational loop — relaxation weight, reciprocal stencil
divisor, local block dimensions — is a *mutable global*, so under a
privatization method each access goes through that method's routing (the
Figure 7 per-access-overhead probe), and the ~3 MB code segment is what
PIEglobals copies per rank and migrates.

The solver is real: ranks own numpy blocks of a 3-D domain decomposed on
a process grid, exchange six halo faces per iteration, relax, and
periodically allreduce the residual, which converges monotonically (tests
check this).  Simulated compute time per iteration is
``cells * compute_ns_per_cell`` plus one modelled inner-loop access to
each privatized global per cell.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ampi.ops import MAX as MPI_MAX
from repro.ampi.runtime import JobResult
from repro.apps.jacobi_config import JacobiConfig, _block_bounds, dims_create
from repro.charm.node import JobLayout
from repro.machine import GENERIC_LINUX, MachineModel
from repro.program.source import Program, ProgramSource

#: the flat indices a sweep gathers, per block shape (:func:`_sweep_plan`);
#: one entry per distinct shape, shared by every job in the process
_PLANS: dict[tuple[int, ...], np.ndarray] = {}


def _sweep_plan(shape: tuple[int, ...]) -> np.ndarray:
    """Build and keep the gather of a sweep over blocks of ``shape``:
    row by row the flat indices of the interior's -x, +x, -y, +y, -z and
    +z neighbours, then of the interior itself (where the sweep also
    scatters its result).  Read-only: every rank of that shape shares it."""
    nx, ny, nz = shape
    interior = np.arange(nx * ny * nz).reshape(shape)[1:-1, 1:-1, 1:-1]
    gather = np.stack([interior.ravel() + offset for offset in
                       (-ny * nz, ny * nz, -nz, nz, -1, 1, 0)])
    gather.flags.writeable = False
    _PLANS[shape] = gather
    return gather


def _plane(axis: int, at: int) -> tuple[Any, ...]:
    """The index of plane ``at`` along ``axis``, without the ghost rim."""
    return tuple(at if a == axis else slice(1, -1) for a in range(3))


#: the six halo faces in exchange order: (axis, step to the neighbour's
#: coordinate, send tag, receive tag, the interior plane sent, the ghost
#: plane received).  The message a rank receives travels opposite to the
#: one it sends.  Negative indices count from the far side, so one table
#: serves every block shape.
_FACES = tuple(
    (axis, step, 10 + axis * 2 + (step > 0), 10 + axis * 2 + (step < 0),
     _plane(axis, 1 if step < 0 else -2), _plane(axis, 0 if step < 0 else -1))
    for axis in (0, 1, 2) for step in (-1, +1))


def build_jacobi_program(cfg: JacobiConfig) -> ProgramSource:
    """Build the Jacobi-3D MPI program against the simulator's API."""
    p = Program("jacobi3d", code_bytes=cfg.code_bytes)
    # Inner-loop globals (all mutable => all privatization-sensitive):
    p.add_global("omega", cfg.omega, tls=cfg.tag_tls)
    p.add_global("inv6", 1.0 / 6.0, tls=cfg.tag_tls)
    p.add_global("nx", 0)
    p.add_global("ny", 0)
    p.add_global("nz", 0)
    # Static iteration counter (the Swapglobals hole, if anyone tries):
    p.add_static("cur_iter", 0)
    # Safe globals:
    p.add_global("n_global", cfg.n, write_once_same=True)
    p.add_global("residual", 0.0)
    if cfg.ckpt_period:
        # Restart state: which iteration to resume at, and the block
        # itself (checkpointed alongside the heap copy so the restored
        # solver picks up exactly where the snapshot was taken).  This
        # state is per-rank and read back after a restore, so a TLS
        # build must tag it ``__thread`` like the inner-loop globals:
        # untagged it would be process-shared under TLSglobals and a
        # restore would hand every rank its last process-mate's block.
        p.add_global("next_iter", 0, tls=cfg.tag_tls)
        p.add_global("ublock", None, tls=cfg.tag_tls)

    iters = cfg.iters
    reduce_every = cfg.reduce_every
    lb_period = cfg.lb_period
    ckpt_period = cfg.ckpt_period
    compute_ns = cfg.compute_ns_per_cell
    n = cfg.n

    @p.function(code_bytes=6144)
    def exchange_halos(ctx, u, coords, dims, comm):
        """Six-face halo exchange: all irecv/isend posted, then waited —
        deadlock-free and overlappable by the message-driven scheduler."""
        mpi = ctx.mpi
        cx, cy, cz = coords
        strides = (dims[1] * dims[2], dims[2], 1)
        me = cx * strides[0] + cy * strides[1] + cz
        recvs = []
        for axis, step, send_tag, recv_tag, send_at, ghost_at in _FACES:
            if not 0 <= coords[axis] + step < dims[axis]:
                continue
            nbr = me + step * strides[axis]
            recvs.append(
                (ghost_at, mpi.irecv(source=nbr, tag=recv_tag, comm=comm)))
            mpi.isend(u[send_at].copy(), dest=nbr, tag=send_tag, comm=comm)
        for ghost_at, req in recvs:
            u[ghost_at] = yield from mpi.wait(req)

    @p.function(code_bytes=24576)
    def relax(ctx, u):
        """One Jacobi sweep over the interior; returns (new u, residual)."""
        om = ctx.g.omega
        inv6 = ctx.g.inv6
        gather = _PLANS.get(u.shape)
        if gather is None:
            gather = _sweep_plan(u.shape)
        xm, xp, ym, yp, zm, zp, interior = u.take(gather)
        # Added left to right like the compiled loop: a reduction starts
        # from +0.0, so six -0.0 neighbours would come out +0.0.
        stencil = xm + xp
        stencil += ym
        stencil += yp
        stencil += zm
        stencil += zp
        updated = (1.0 - om) * interior + (om * inv6) * stencil
        resid = float(abs(updated - interior).max())
        cells = interior.size
        # Simulated cost of the compiled loop: arithmetic plus one access
        # to each privatized inner-loop global per cell.
        ctx.compute(cells * compute_ns)
        ctx.charge_accesses({"omega": cells, "inv6": cells})
        out = u.copy()
        out.reshape(-1)[gather[6]] = updated
        return out, resid

    @p.function(code_bytes=16384)
    def main(ctx):
        mpi = ctx.mpi
        mpi.init()
        me = mpi.rank()
        nranks = mpi.size()
        comm = None  # world

        dims = dims_create(nranks, 3)
        cz = me % dims[2]
        cy = (me // dims[2]) % dims[1]
        cx = me // (dims[2] * dims[1])
        coords = (cx, cy, cz)
        (x0, x1) = _block_bounds(n, dims[0], cx)
        (y0, y1) = _block_bounds(n, dims[1], cy)
        (z0, z1) = _block_bounds(n, dims[2], cz)
        ctx.g.nx, ctx.g.ny, ctx.g.nz = x1 - x0, y1 - y0, z1 - z0

        start_iter = ctx.g.next_iter if ckpt_period else 0
        if start_iter > 0:
            # Restarted from a checkpoint: the block comes back through
            # the restored globals, already holding iteration start_iter.
            u = ctx.g.ublock
        else:
            # Initial condition: hot plane at x == 0 globally, zero
            # elsewhere.
            u = np.zeros((x1 - x0 + 2, y1 - y0 + 2, z1 - z0 + 2))
            if x0 == 0:
                u[1, 1:-1, 1:-1] = 100.0
            ctx.malloc(u.nbytes, data=u, tag="jacobi:block")

        resid = float("inf")
        for it in range(start_iter, iters):
            ctx.g.cur_iter = it
            yield from ctx.call("exchange_halos", u, coords, dims, comm)
            u, local_resid = ctx.call("relax", u)
            if x0 == 0:
                u[1, 1:-1, 1:-1] = 100.0  # Dirichlet boundary reasserted
            if (it + 1) % reduce_every == 0 or it == iters - 1:
                resid = yield from mpi.allreduce(local_resid, op=MPI_MAX)
                ctx.g.residual = resid
            if lb_period and (it + 1) % lb_period == 0:
                yield from mpi.migrate()
            if ckpt_period and (it + 1) % ckpt_period == 0 \
                    and (it + 1) < iters:
                ctx.g.ublock = u
                ctx.g.next_iter = it + 1
                yield from mpi.checkpoint()
        yield from mpi.finalize()
        return resid

    return p.build()


def run_jacobi(
    cfg: JacobiConfig,
    nvp: int,
    *,
    method: str | Any = "pieglobals",
    machine: MachineModel = GENERIC_LINUX,
    layout: JobLayout | None = None,
    optimize: int = 2,
    lb_strategy: str | Any = "greedyrefine",
    trace_fetches: bool = False,
    trace: Any = None,
    fault_plan: Any = None,
    ft: Any = None,
    transport: str = "priced",
    recovery: str = "global",
    sanitize: Any = None,
    strict: bool = True,
) -> JobResult:
    """Build + run Jacobi-3D; returns the job result (exit value of each
    rank is the final global residual).  A thin caller of
    :func:`repro.harness.jobspec.run_app`."""
    # Lazy import: jobspec's app registry imports this module.
    from repro.harness.jobspec import run_app

    return run_app(
        "jacobi3d", dict(cfg.__dict__), nvp, method=method, machine=machine,
        layout=layout, optimize=optimize, lb_strategy=lb_strategy,
        trace_fetches=trace_fetches, trace=trace, fault_plan=fault_plan,
        ft=ft, transport=transport, recovery=recovery, sanitize=sanitize,
        strict=strict,
    )[1]
