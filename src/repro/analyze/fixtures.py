"""Seeded-violation fixtures for the static analyzer.

One tiny program per analyzer rule, each exhibiting exactly one defect.
They serve the same three masters as the sanitizer's fixtures and live
in the same registry (:data:`repro.sanitize.fixtures.FIXTURES`, phase
``"source"``): ``repro check fixture:<name>`` demos each diagnostic,
the test suite asserts exact finding codes, and CI's diagnostics-smoke
job keeps the catalog honest.

Each fixture also declares what *running* the same program does
(``runtime`` field), so the agreement tests can show where static
analysis beats the runtime detectors: ``ana-write-once-divergent`` and
the migration-safety family are runtime-silent defects only the
analyzer reports.

The determinism fixtures deliberately contain the host-nondeterminism
shapes the self-lint forbids, so their offending lines carry
``# repro: allow(...)`` pragmas.  Pragmas are honored only by the
*file* lint (``repro check self``); the program analyzer ignores
them, which is exactly what lets these bodies stay detectable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.program.source import Program, ProgramSource
from repro.sanitize.fixtures import FIXTURES, Fixture, get_fixture
from repro.sanitize.runtime import RaceDetector

#: host interpreter state for the module-global-write fixture
_MODULE_STATE = 0

#: how the same program behaves when actually executed
RUNTIME_SEGFAULT = "segfault"    #: raises SegFault
RUNTIME_DEADLOCK = "deadlock"    #: raises DeadlockError
RUNTIME_RACES = "races"          #: run completes, race detector fires
RUNTIME_SILENT = "silent"        #: run completes, no runtime finding


@dataclass(frozen=True)
class AnalyzeFixture(Fixture):
    """A source-phase fixture: the defect lives in the function bodies."""

    build: Callable[[], ProgramSource]
    runtime: str                   #: RUNTIME_* outcome when executed
    #: extra keyword arguments for :func:`repro.analyze.analyze_source`
    analyze_kwargs: dict = field(default_factory=dict)
    #: privatization method the runtime-agreement run uses
    run_method: str = "pieglobals"
    nvp: int = 4


def _fixture(name: str, expected: set[str], runtime: str, **kw):
    def deco(build: Callable[[], ProgramSource]):
        FIXTURES[name] = AnalyzeFixture(
            name, "source", frozenset(expected),
            lambda: analyze_fixture(name).findings, build, runtime, **kw)
        return build
    return deco


def analyze_fixture(name: str):
    """Run the analyzer over one fixture program."""
    from repro.analyze.driver import analyze_source

    fx = get_fixture(name)
    return analyze_source(fx.build(), target=f"fixture:{name}",
                          **fx.analyze_kwargs)


def run_fixture_job(name: str):
    """Execute one fixture's program under the runtime sanitizer.

    Returns ``(result, detector)``; raises whatever the run raises
    (SegFault, DeadlockError) — the agreement tests assert on exactly
    that contrast with the static expectation.
    """
    fx = get_fixture(name)
    det = RaceDetector()
    job = AmpiJob(fx.build(), fx.nvp, method=fx.run_method,
                  layout=JobLayout.single(2), sanitize=det)
    return job.run(), det


# ---------------------------------------------------------------------------
# Family 1: privatization surface
# ---------------------------------------------------------------------------

@_fixture("ana-undeclared-global", {"pv-undeclared-global"},
          RUNTIME_SEGFAULT)
def _undeclared() -> ProgramSource:
    p = Program("ana_undeclared")

    @p.function()
    def main(ctx):
        ctx.g.mystery = ctx.mpi.rank()
        return 0

    return p.build()


@_fixture("ana-const-write", {"pv-const-write"}, RUNTIME_SEGFAULT)
def _const_write() -> ProgramSource:
    p = Program("ana_const_write")
    p.add_global("cfg", 7, const=True)

    @p.function()
    def main(ctx):
        ctx.g.cfg = 8
        return ctx.g.cfg

    return p.build()


@_fixture("ana-write-once-divergent", {"pv-write-once-divergent"},
          RUNTIME_SILENT)
def _write_once_divergent() -> ProgramSource:
    # The defect the runtime CANNOT see: write_once_same tells every
    # detector and method the value is rank-uniform, so a rank-dependent
    # write is silently shared.  Only the analyzer reports it.
    p = Program("ana_once_divergent")
    p.add_global("nr", 0, write_once_same=True)

    @p.function()
    def main(ctx):
        ctx.g.nr = ctx.mpi.rank()
        return ctx.g.nr

    return p.build()


@_fixture("ana-unneeded-privatization", {"pv-unneeded-privatization"},
          RUNTIME_SILENT, analyze_kwargs={"suggest": True})
def _unneeded() -> ProgramSource:
    p = Program("ana_unneeded")
    p.add_global("coef", 314)   # mutable, but never written

    @p.function()
    def main(ctx):
        return ctx.g.coef * 2

    return p.build()


@_fixture("ana-method-insufficient", {"pv-method-insufficient"},
          RUNTIME_RACES, analyze_kwargs={"method": "tlsglobals"},
          run_method="tlsglobals")
def _method_insufficient() -> ProgramSource:
    # tlsglobals only privatizes TLS variables; a plain rank-varying
    # global stays shared under it.
    p = Program("ana_insufficient")
    p.add_global("acc", 0)

    @p.function()
    def main(ctx):
        ctx.g.acc = ctx.mpi.rank()
        ctx.mpi.barrier()
        return ctx.g.acc

    return p.build()


# ---------------------------------------------------------------------------
# Family 2: migration/checkpoint safety
# ---------------------------------------------------------------------------

@_fixture("ana-closure-mutable", {"mig-closure-mutable"}, RUNTIME_SILENT)
def _closure_mutable() -> ProgramSource:
    p = Program("ana_closure")
    cache: list[int] = []   # captured by main: invisible to migration

    @p.function()
    def main(ctx):
        cache.append(ctx.mpi.rank())
        return len(cache)

    return p.build()


@_fixture("ana-module-global-write", {"mig-module-global-write"},
          RUNTIME_SILENT)
def _module_global_write() -> ProgramSource:
    p = Program("ana_module_write")

    @p.function()
    def main(ctx):
        global _MODULE_STATE
        _MODULE_STATE = ctx.vp
        return 0

    return p.build()


@_fixture("ana-ctx-escape", {"mig-ctx-escape"}, RUNTIME_SILENT)
def _ctx_escape() -> ProgramSource:
    p = Program("ana_ctx_escape")

    @p.function()
    def main(ctx):
        return ctx

    return p.build()


# ---------------------------------------------------------------------------
# Family 3: communication shape
# ---------------------------------------------------------------------------

@_fixture("ana-collective-divergent", {"comm-collective-divergent"},
          RUNTIME_DEADLOCK)
def _collective_divergent() -> ProgramSource:
    p = Program("ana_divergent")

    @p.function()
    def main(ctx):
        if ctx.mpi.rank() == 0:
            ctx.mpi.barrier()
        return 0

    return p.build()


@_fixture("ana-recv-deadlock", {"comm-recv-before-send"},
          RUNTIME_DEADLOCK)
def _recv_deadlock() -> ProgramSource:
    p = Program("ana_recv_deadlock")

    @p.function()
    def main(ctx):
        me = ctx.mpi.rank()
        peer = (me + 1) % ctx.mpi.size()
        msg = ctx.mpi.recv(source=peer)
        ctx.mpi.send(me, peer)
        return msg

    return p.build()


@_fixture("ana-tag-mismatch", {"comm-tag-mismatch"}, RUNTIME_DEADLOCK,
          nvp=2)
def _tag_mismatch() -> ProgramSource:
    p = Program("ana_tag_mismatch")

    @p.function()
    def main(ctx):
        me = ctx.mpi.rank()
        if me == 0:
            ctx.mpi.send(42, 1, 3)
        elif me == 1:
            return ctx.mpi.recv(source=0, tag=4)
        return 0

    return p.build()


@_fixture("ana-unwaited-request", {"comm-unwaited-request"},
          RUNTIME_SILENT)
def _unwaited() -> ProgramSource:
    p = Program("ana_unwaited")

    @p.function()
    def main(ctx):
        me = ctx.mpi.rank()
        peer = (me + 1) % ctx.mpi.size()
        req = ctx.mpi.irecv(source=peer)  # noqa: F841 -- seeded: never waited
        ctx.mpi.send(me, peer)
        return 0

    return p.build()


# ---------------------------------------------------------------------------
# Family 4: determinism
# ---------------------------------------------------------------------------

@_fixture("ana-wallclock", {"det-wallclock"}, RUNTIME_SILENT)
def _wallclock() -> ProgramSource:
    p = Program("ana_wallclock")

    @p.function()
    def main(ctx):
        t = time.time()  # repro: allow(det-wallclock) seeded fixture body
        return int(t) * 0

    return p.build()


@_fixture("ana-unseeded-random", {"det-unseeded-random"}, RUNTIME_SILENT)
def _unseeded_random() -> ProgramSource:
    p = Program("ana_random")

    @p.function()
    def main(ctx):
        x = random.random()  # repro: allow(det-unseeded-random) seeded fixture body
        return int(x) * 0

    return p.build()


@_fixture("ana-set-iteration", {"det-set-iteration"}, RUNTIME_SILENT)
def _set_iteration() -> ProgramSource:
    p = Program("ana_set_iter")

    @p.function()
    def main(ctx):
        total = 0
        for x in {1, 2, 3}:  # repro: allow(det-set-iteration) seeded fixture body
            total += x
        return total

    return p.build()


@_fixture("ana-id-key", {"det-id-key"}, RUNTIME_SILENT)
def _id_key() -> ProgramSource:
    p = Program("ana_id_key")

    @p.function()
    def main(ctx):
        table = {}
        table[id(ctx)] = 1  # repro: allow(det-id-key) seeded fixture body
        return len(table)

    return p.build()


#: analyzer fixture name -> exactly the finding codes it must produce
EXPECTED: dict[str, frozenset[str]] = {
    n: fx.expected for n, fx in FIXTURES.items()
    if isinstance(fx, AnalyzeFixture)
}
