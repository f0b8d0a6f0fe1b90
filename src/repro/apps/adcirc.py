"""ADCIRC-mini: a storm-surge mini-app with ADCIRC's load structure.

The real ADCIRC is ~50 k source lines of Fortran90 with hundreds of
mutable globals, simulating hurricane storm surge: the computationally
intensive parts of the domain follow the water as it floods low-lying
terrain, while dry areas cost almost nothing — which is exactly why
dynamic load balancing pays off (paper Section 4.6).

This mini-app reproduces that structure:

* a 2-D coastal domain (rows decomposed across virtual ranks) with
  sloping bathymetry;
* a storm (Gaussian forcing) tracking across the decomposed axis, so the
  wet front — and the work — sweeps through ranks over time;
* wetting/drying: per-step cost is proportional to *wet* cells only;
* an overdecomposition cache effect: a rank whose working set fits the
  per-core L2 computes faster per cell (the paper's 13 % single-core
  gain, where LB cannot be the explanation);
* hundreds of generated mutable globals and a ~14 MB code segment, so
  privatization coverage and PIE migration costs are ADCIRC-sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ampi.ops import SUM as MPI_SUM
from repro.ampi.runtime import JobResult
from repro.charm.node import JobLayout
from repro.errors import ReproError
from repro.machine import GENERIC_LINUX, MachineModel
from repro.program.source import Program, ProgramSource

#: "code size of approximately 14 MB that must be additionally migrated
#: under PIEglobals"
ADCIRC_CODE_BYTES = 14 * 1024 * 1024

#: the mini-app declares this many generated mutable coefficient globals
#: ("hundreds of mutable global variables across nearly 50,000 lines")
N_COEFFICIENT_GLOBALS = 240


@dataclass(frozen=True)
class AdcircConfig:
    width: int = 64                 #: cross-shore columns
    height: int = 384               #: along-shore rows (decomposed axis)
    steps: int = 150
    reduce_every: int = 5
    lb_period: int = 0              #: AMPI_Migrate every k steps (0 = off)
    ns_per_wet_cell: float = 600.0
    base_step_ns: float = 500.0     #: per-rank fixed cost per step
    diffusion: float = 0.18
    decay: float = 0.02
    storm_amplitude: float = 5.0
    storm_sigma: float = 10.0       #: storm radius in cells
    dry_threshold: float = 0.05
    bytes_per_cell: int = 2048      #: working-set model (dozens of arrays/matrices)
    l2_bytes: int = 512 * 1024      #: per-core L2 (cache-blocking model)
    l2_penalty: float = 0.6         #: max slowdown when the block misses L2
    code_bytes: int = ADCIRC_CODE_BYTES

    def __post_init__(self) -> None:
        if self.width < 4 or self.height < 4:
            raise ReproError("domain too small")
        if self.steps < 1:
            raise ReproError("need at least one step")


def _row_bounds(height: int, parts: int, idx: int) -> tuple[int, int]:
    base = height // parts
    extra = height % parts
    start = idx * base + min(idx, extra)
    return start, start + base + (1 if idx < extra else 0)


def _laplacian(eta: np.ndarray) -> np.ndarray:
    """5-point Laplacian of the interior rows (zero beyond the side
    columns), each cell summing up, down, left, right, centre in that
    order."""
    lap = eta[:-2] + eta[2:]
    lap[:, 1:] += eta[1:-1, :-1]
    lap[:, :-1] += eta[1:-1, 1:]
    lap -= 4.0 * eta[1:-1]
    return lap


def build_adcirc_program(cfg: AdcircConfig) -> ProgramSource:
    p = Program("adcirc_mini", language="fortran", code_bytes=cfg.code_bytes)

    # The handful of globals the kernel actually reads per cell:
    p.add_global("gravity", 9.81)
    p.add_global("dt", 1.0)
    p.add_global("diffusion", cfg.diffusion)
    p.add_global("decay", cfg.decay)
    p.add_global("cur_step", 0)
    p.add_static("wet_count", 0)
    p.add_global("n_steps", cfg.steps, write_once_same=True)
    # ...plus the legacy-code long tail: hundreds of mutable module
    # variables and common-block members (generated).
    for i in range(N_COEFFICIENT_GLOBALS):
        p.add_global(f"coef_{i:03d}", float(i) * 0.5)

    W, H = cfg.width, cfg.height
    steps = cfg.steps
    reduce_every = cfg.reduce_every
    lb_period = cfg.lb_period

    def storm_center(step: int) -> tuple[float, float]:
        """Track: enters at row 0, exits at the last row, mid-column.

        Along-track speed follows a smoothstep: fast approach, slow
        near landfall (mid-domain, where most of the run's steps are
        spent), fast departure — hurricanes decelerate at landfall.  The
        quasi-static middle phase is also what makes measured loads a
        good predictor for the load balancer.
        """
        t = step / max(1, steps - 1)
        eased = t * t * (3.0 - 2.0 * t)
        return (eased * (H - 1), W * 0.5)

    def bathymetry(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Ground elevation: rises linearly inland (with columns)."""
        return 0.01 * cols[None, :] + 0.0 * rows[:, None]

    @p.function(code_bytes=6144)
    def wet_work_factor(ctx, wet_cells):
        """Cache-blocking model: working sets beyond L2 cost extra."""
        ws = wet_cells * cfg.bytes_per_cell
        if ws <= cfg.l2_bytes:
            return 1.0
        overflow = 1.0 - cfg.l2_bytes / ws
        return 1.0 + cfg.l2_penalty * overflow

    @p.function(code_bytes=32768)
    def step_kernel(ctx, eta, ground, step):
        """One explicit step over this rank's rows (+2 halo rows)."""
        g = ctx.g
        D = g.diffusion
        dec = g.decay
        dt = g.dt

        wet = (eta > ground + cfg.dry_threshold)
        wet_cells = int(np.count_nonzero(wet[1:-1, :]))
        g.wet_count = wet_cells

        lap = _laplacian(eta)
        new_interior = eta[1:-1, :] + dt * (D * lap - dec * eta[1:-1, :])
        # Dry cells don't evolve (wetting happens via forcing/diffusion
        # raising neighbours above threshold).
        new_interior = np.where(wet[1:-1, :], new_interior, eta[1:-1, :])
        eta[1:-1, :] = np.maximum(new_interior, 0.0)

        factor = ctx.call("wet_work_factor", max(wet_cells, 1))
        ctx.compute(cfg.base_step_ns
                    + wet_cells * cfg.ns_per_wet_cell * factor)
        # Inner-loop privatized accesses: one read of each per wet cell.
        ctx.charge_accesses({
            "diffusion": wet_cells, "decay": wet_cells, "dt": wet_cells,
        })
        return wet_cells

    @p.function(code_bytes=24576)
    def main(ctx):
        mpi = ctx.mpi
        mpi.init()
        me = mpi.rank()
        nranks = mpi.size()
        r0, r1 = _row_bounds(H, nranks, me)
        my_rows = r1 - r0

        rows = np.arange(r0 - 1, r1 + 1, dtype=float)
        cols = np.arange(W, dtype=float)
        ground = bathymetry(rows, cols)
        eta = np.zeros((my_rows + 2, W))
        # Ocean boundary: leftmost columns start wet.
        eta[:, :2] = ground[:, :2] + 0.5
        ctx.malloc(eta.nbytes, data=eta, tag="adcirc:eta")
        ctx.malloc(ground.nbytes, data=ground, tag="adcirc:ground")

        total_wet_history = []
        for step in range(steps):
            ctx.g.cur_step = step
            # Storm forcing on my rows.
            crow, ccol = storm_center(step)
            rr = rows[:, None] - crow
            cc = cols[None, :] - ccol
            dist2 = rr * rr + cc * cc
            forcing = cfg.storm_amplitude * np.exp(
                -dist2 / (2.0 * cfg.storm_sigma ** 2)
            )
            eta += ctx.g.dt * 0.05 * forcing

            # Halo exchange: nonblocking both ways, then wait — the
            # standard deadlock-free pattern (and what lets the runtime
            # overlap neighbours' progress).  Tag 1 flows downward
            # (rank -> rank+1), tag 2 flows upward.
            rq_up = rq_dn = None
            if me > 0:
                rq_up = mpi.irecv(source=me - 1, tag=1)
                mpi.isend(eta[1, :].copy(), dest=me - 1, tag=2)
            if me < nranks - 1:
                rq_dn = mpi.irecv(source=me + 1, tag=2)
                mpi.isend(eta[-2, :].copy(), dest=me + 1, tag=1)
            if rq_up is not None:
                eta[0, :] = yield from mpi.wait(rq_up)
            if rq_dn is not None:
                eta[-1, :] = yield from mpi.wait(rq_dn)

            wet = ctx.call("step_kernel", eta, ground, step)

            if (step + 1) % reduce_every == 0 or step == steps - 1:
                total_wet = yield from mpi.allreduce(wet, op=MPI_SUM)
                total_wet_history.append(total_wet)
            if lb_period and (step + 1) % lb_period == 0:
                yield from mpi.migrate()
        yield from mpi.finalize()
        return total_wet_history[-1] if total_wet_history else 0

    return p.build()


def run_adcirc(
    cfg: AdcircConfig,
    nvp: int,
    *,
    method: str | Any = "pieglobals",
    machine: MachineModel = GENERIC_LINUX,
    layout: JobLayout | None = None,
    lb_strategy: str | Any = "greedyrefine",
    optimize: int = 2,
) -> JobResult:
    """Build + run the surge model; rank exit values are the final global
    wet-cell count (identical on every rank).  A thin caller of
    :func:`repro.harness.jobspec.run_app`."""
    # Lazy import: jobspec's app registry imports this module.
    from repro.harness.jobspec import run_app

    cfg_dict = {**cfg.__dict__, "l2_bytes": machine.l2_per_core_bytes}
    return run_app("adcirc", cfg_dict, nvp, method=method, machine=machine,
                   layout=layout, lb_strategy=lb_strategy,
                   optimize=optimize)[1]
