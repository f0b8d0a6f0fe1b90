"""Micro programs shared by the harness, the CLI, and the host benchmark.

These are the tiny single-purpose workloads the experiment drivers used
to build inline — the Figure 5 startup probe, the Figure 6 yield
ping-pong, and the Figure 2/3 hello world.  Hoisting them here gives
each a *name* in the :mod:`repro.harness.jobspec` app registry, which is
what makes runs of them serializable (and therefore recordable,
replayable, and pinnable by :mod:`repro.provenance`).

Every builder is a pure function of its keyword arguments, so a
``JobSpec`` that stores the app name plus those arguments rebuilds a
bit-identical program.  Like every in-tree app the bodies are written in
generator form (``yield from`` at each blocking call), so the scheduler
steps them on its own stack.
"""

from __future__ import annotations

from repro.program.source import Program, ProgramSource


def build_startup_program(code_bytes: int = 256 * 1024,
                          name: str = "startup_probe") -> ProgramSource:
    """Figure 5 probe: write one global, barrier, exit."""
    p = Program(name, code_bytes=code_bytes)
    p.add_global("x", 0)

    @p.function()
    def main(ctx):
        ctx.g.x = ctx.mpi.rank()
        yield from ctx.mpi.barrier()
        return ctx.g.x

    return p.build()


def build_pingpong_program(yields_per_rank: int = 1000,
                           name: str = "ctxswitch_probe") -> ProgramSource:
    """Figure 6 probe: ULTs on one PE yielding back and forth."""
    p = Program(name)
    p.add_global("dummy", 0)

    @p.function()
    def main(ctx):
        for _ in range(yields_per_rank):
            yield from ctx.mpi.yield_()
        return ctx.mpi.rank()

    return p.build()


def build_hello_program(name: str = "hello_world") -> ProgramSource:
    """The Figure 2/3 hello world: each rank reports its rank through a
    global — broken under no privatization, fixed under any method."""
    p = Program(name)
    p.add_global("my_rank", -1)

    @p.function()
    def main(ctx):
        ctx.g.my_rank = ctx.mpi.rank()
        yield from ctx.mpi.barrier()
        return f"rank: {ctx.g.my_rank}"

    return p.build()
