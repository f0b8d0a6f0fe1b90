"""Shared fixtures for the test suite.

Tests run on ``TEST_MACHINE`` (tiny, round-number cost model) unless the
behaviour under test is toolchain-specific, in which case the relevant
preset's toolchain is grafted onto the test machine.
"""

from __future__ import annotations

import dataclasses
from inspect import isgeneratorfunction

import pytest

from repro.ampi.runtime import AmpiJob
from repro.machine import (
    LEGACY_LINUX_OLD_LD,
    STAMPEDE2_ICX,
    TEST_MACHINE,
    MachineModel,
)
from repro.program.source import Program, ProgramSource


@pytest.fixture
def tm() -> MachineModel:
    return TEST_MACHINE


@pytest.fixture
def tm_old_ld() -> MachineModel:
    """Test machine with a Swapglobals-capable (old-ld) toolchain."""
    return TEST_MACHINE.copy_with(toolchain=LEGACY_LINUX_OLD_LD.toolchain)


@pytest.fixture
def tm_mpc() -> MachineModel:
    """Test machine with -fmpc-privatize compiler support."""
    return TEST_MACHINE.copy_with(toolchain=STAMPEDE2_ICX.toolchain)


def make_hello(language: str = "c") -> ProgramSource:
    """The paper's Figure 2 program: unsafe global rank, safe size."""
    p = Program("hello", language=language)
    p.add_global("my_rank", -1)
    p.add_global("num_ranks", 0, write_once_same=True)

    @p.function()
    def main(ctx):
        ctx.g.my_rank = ctx.mpi.rank()
        ctx.g.num_ranks = ctx.mpi.size()
        ctx.mpi.barrier()
        return ctx.g.my_rank

    return p.build()


def on_pool_threads(source: ProgramSource) -> ProgramSource:
    """The same program with its generator-form entry behind a plain
    function: the body's shape selects the stack, so this twin runs on
    pool threads and rides the baton ring, ``ctx.call`` driving the
    unchanged body to completion on each rank's own stack."""
    def plain(fn):
        return lambda ctx: fn(ctx)

    return dataclasses.replace(source, functions=tuple(
        dataclasses.replace(f, fn=plain(f.fn))
        if f.name == source.entry and isgeneratorfunction(f.fn) else f
        for f in source.functions))


@pytest.fixture
def plain_bodies(monkeypatch):
    """Every spec-built program in this test is its :func:`on_pool_threads`
    twin (the in-tree apps are written in generator form)."""
    from repro.harness.jobspec import JobSpec

    build_source = JobSpec.build_source
    monkeypatch.setattr(JobSpec, "build_source",
                        lambda spec: on_pool_threads(build_source(spec)))


@pytest.fixture
def hello_src() -> ProgramSource:
    return make_hello()


def run_job(source, nvp, *, method="pieglobals", machine=TEST_MACHINE,
            layout=None, **kw):
    """Build + run a small job with test defaults."""
    kw.setdefault("slot_size", 1 << 24)
    job = AmpiJob(source, nvp, method=method, machine=machine,
                  layout=layout, **kw)
    return job.run()


@pytest.fixture
def run():
    return run_job


class InlinePool:
    """A ``WorkerPool`` stand-in that hands each job to one shared
    background thread: jobs run one at a time (the simulator's state is
    process-wide), and the service's event loop stays free to read
    requests, coalesce submissions and wait on runs in flight."""

    dead = False

    def __init__(self, executor, workers: int = 1, **_: object):
        self._ex = executor
        self.workers = workers

    def submit(self, spec_dict, *, chaos=None):
        from repro.serve.pool import execute_spec

        return self._ex.submit(execute_spec, spec_dict)

    def alive_workers(self) -> int:
        return self.workers

    def worker_pids(self) -> list[int]:
        return []

    def pool_stats(self) -> dict:
        return {"workers": self.workers}

    def close(self) -> None:
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    """Services built in this test execute jobs with :class:`InlinePool`
    instead of worker processes: for tests of the service's request
    logic (admission, drain, stats, memo, batches, the janitor), which
    no worker's crash or concurrency changes.  All services in the test
    share one executor thread, so no two jobs ever interleave."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as executor:
        monkeypatch.setattr(
            "repro.serve.server.WorkerPool",
            lambda *args, **kw: InlinePool(executor, *args, **kw))
        yield
