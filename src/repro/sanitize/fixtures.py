"""Seeded-violation fixtures: one per sanitizer detector class.

Each fixture builds the *smallest* program/loader/job state that
genuinely exhibits one defect, runs the relevant detector, and returns
its findings.  They serve three masters:

* ``repro check fixture:<name>`` — a demo of each diagnostic;
* the test suite — asserts each fixture yields exactly its
  :data:`EXPECTED` codes (and that the same program is *clean* under a
  real privatization method where that contrast is meaningful);
* CI's diagnostics-smoke job — the end-to-end "every detector still
  catches what it claims to catch" gate.

This module also holds the one fixture registry (:data:`FIXTURES`): the
analyzer's source-phase fixtures (:mod:`repro.analyze.fixtures`)
register into it, and :func:`get_fixture` and :func:`fixture_names`
look fixtures up here whichever set they belong to.

Violations are seeded the way real corruption arrives: images are
mutated post-link (relocation tables and segment layouts disagreeing is
exactly what a corrupt or hand-edited image looks like), loader/GOT
state is aged via genuine ``dlmopen``/``dlclose`` cycles, and runtime
findings come from actually running unprivatized jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ampi.runtime import AmpiJob, build_binary
from repro.charm.node import JobLayout
from repro.elf.got import GotTemplate
from repro.elf.image import ElfType
from repro.elf.loader import DynamicLoader
from repro.elf.relocation import Relocation, RelocKind
from repro.elf.symbols import Symbol, SymbolBinding, SymbolKind
from repro.harness.capabilities import migration_program
from repro.machine import GENERIC_LINUX
from repro.mem.address_space import VirtualMemory
from repro.program.binary import Binary
from repro.program.compiler import CompileOptions, Compiler
from repro.program.context import AccessRoute
from repro.program.source import Program, ProgramSource
from repro.sanitize.findings import Finding
from repro.sanitize.runtime import RaceDetector
from repro.sanitize.static import (
    StaticLinter,
    compat_findings,
    project_isomalloc,
)


@dataclass(frozen=True)
class Fixture:
    """One seeded violation, sanitizer's or analyzer's."""

    name: str
    phase: str                         #: "static" | "runtime" | "source"
    expected: frozenset[str]           #: exactly these finding codes
    run: Callable[[], list[Finding]]   #: seed the defect, run its detector


#: the one registry: this module's fixtures, and the analyzer's once
#: :mod:`repro.analyze.fixtures` is imported (the lookups below do)
FIXTURES: dict[str, Fixture] = {}


def _registry() -> dict[str, Fixture]:
    import repro.analyze.fixtures  # noqa: F401 -- registers its set

    return FIXTURES


def get_fixture(name: str) -> Fixture:
    try:
        return _registry()[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; have: {', '.join(fixture_names())}"
        ) from None


def fixture_names() -> list[str]:
    """Every fixture, the sanitizer's and the analyzer's."""
    return sorted(_registry())


def _fixture(name: str, phase: str, expected: set[str]):
    def deco(fn: Callable[[], list[Finding]]):
        FIXTURES[name] = Fixture(name, phase, frozenset(expected), fn)
        return fn
    return deco


# -- building blocks --------------------------------------------------------

def _compile(program: Program, method: str = "pieglobals") -> Binary:
    return build_binary(program.build(), method, GENERIC_LINUX, optimize=1)


def _app() -> Binary:
    p = Program("sanapp")
    p.add_global("app_state", 0)

    @p.function()
    def main(ctx):
        ctx.g.app_state = ctx.mpi.rank()
        return ctx.g.app_state

    return _compile(p)


def _shared_lib() -> Binary:
    p = Program("libshared")
    p.add_global("shared_counter", 0)
    p.set_entry("lib_touch")

    @p.function()
    def lib_touch(ctx):
        return ctx.g.shared_counter

    # A library is not an AMPI program: it is compiled outside the
    # recipe, without the function-pointer shim — given one, it and the
    # app would both define every __ampi_fp_* slot strongly.
    return Compiler(GENERIC_LINUX.toolchain).compile(
        p.build(), CompileOptions(optimize=1))


def _racy_program() -> Program:
    """Mutable global + static + TLS — the full unsafe feature set."""
    p = Program("racy")
    p.add_global("g_count", 0)
    p.add_static("s_count", 0)
    p.add_global("t_count", 0, tls=True)

    @p.function()
    def main(ctx):
        ctx.g.g_count = ctx.g.g_count + ctx.mpi.rank() + 1
        ctx.g.s_count = ctx.g.s_count + 1
        ctx.g.t_count = ctx.g.t_count + 1
        ctx.mpi.barrier()
        return (ctx.g.g_count, ctx.g.s_count, ctx.g.t_count)

    return p


# -- static linter fixtures -------------------------------------------------

@_fixture("reloc-unresolved", "static", {"reloc-unresolved"})
def _fx_reloc_unresolved() -> list[Finding]:
    b = _app()
    # A relocation against a symbol no image ever defined: the classic
    # under-linked build that only fails at first call.
    b.image.got.add("ghost_fn", is_func=True)
    b.image.relocations.append(
        Relocation(RelocKind.PLT_CALL, "ghost_fn")
    )
    return StaticLinter().lint_images([b.image])


@_fixture("reloc-dangling", "static", {"reloc-dangling"})
def _fx_reloc_dangling() -> list[Finding]:
    b = _app()
    # Symbol exists, but the GOT has no slot for the relocation to
    # land in — relocation table and GOT layout disagree.
    b.image.symbols.define(
        Symbol("orphan_obj", SymbolKind.OBJECT, SymbolBinding.GLOBAL, "data")
    )
    b.image.relocations.append(
        Relocation(RelocKind.GOT_ENTRY, "orphan_obj")
    )
    return StaticLinter().lint_images([b.image])


@_fixture("copy-reloc-writable", "static", {"copy-reloc-writable"})
def _fx_copy_reloc() -> list[Finding]:
    app, lib = _app(), _shared_lib()
    # Fixed-address executable taking a load-time copy of the library's
    # mutable counter; the library keeps updating its own copy.
    app.image.etype = ElfType.ET_EXEC
    app.image.symbols.define(
        Symbol("shared_counter", SymbolKind.OBJECT, SymbolBinding.GLOBAL,
               "data", defined=False)
    )
    app.image.relocations.append(
        Relocation(RelocKind.COPY, "shared_counter")
    )
    return StaticLinter().lint_images([app.image, lib.image])


@_fixture("dup-strong-def", "static", {"dup-strong-def"})
def _fx_dup_strong() -> list[Finding]:
    app, lib = _app(), _shared_lib()
    # Both images export a strong definition of the same object.
    lib.image.symbols.define(
        Symbol("app_state", SymbolKind.OBJECT, SymbolBinding.GLOBAL, "data")
    )
    return StaticLinter().lint_images([app.image, lib.image])


@_fixture("textrel-pie", "static", {"textrel-pie"})
def _fx_textrel() -> list[Finding]:
    b = _app()
    # An absolute patch inside .text of a PIE image — the relocation the
    # -fPIC build exists to avoid.
    b.image.relocations.append(
        Relocation(RelocKind.ABS64, "app_state", where="text:0x40")
    )
    return StaticLinter().lint_images([b.image])


@_fixture("got-dangling", "static", {"got-dangling"})
def _fx_got_dangling() -> list[Finding]:
    loader = DynamicLoader(VirtualMemory(), GENERIC_LINUX.toolchain,
                           GENERIC_LINUX.costs)
    app = loader.dlopen(_app().image)
    lib = loader.dlmopen(_shared_lib().image)
    # Cache a dlsym result in the app's GOT, then tear the library's
    # namespace down: the cached address now points at unmapped memory.
    stale = loader.dlsym(lib, "shared_counter")
    slot = next(iter(app.got.template))
    app.got.resolve(slot.symbol, stale)
    loader.dlclose(lib)
    return StaticLinter().lint_loader(loader)


@_fixture("iso-overlap", "static", {"iso-overlap"})
def _fx_iso_overlap() -> list[Finding]:
    # 2^20 ranks x 1 GiB slots: the arena runs past its reserved VA end.
    return project_isomalloc(_app(), "none", nvp=1 << 20, slot_size=1 << 30)


@_fixture("iso-exhaustion", "static", {"iso-exhaustion"})
def _fx_iso_exhaustion() -> list[Finding]:
    # PIEglobals copies the whole load segment per rank; a 64 KiB slot
    # cannot hold stack + segment copies.
    return project_isomalloc(_app(), "pieglobals", nvp=4, slot_size=1 << 16)


@_fixture("compat-none", "static",
          {"compat-shared-tls", "compat-unprivatized-static",
           "compat-unprivatized-global"})
def _fx_compat_none() -> list[Finding]:
    return compat_findings(_compile(_racy_program(), "none"), "none")


@_fixture("compat-binary", "static", {"compat-binary"})
def _fx_compat_binary() -> list[Finding]:
    # Photran rewrites Fortran COMMON blocks; a C binary is structurally
    # incompatible no matter what it contains.
    return compat_findings(_compile(_racy_program(), "none"), "photran")


# -- runtime detector fixtures ----------------------------------------------

def _job(source: ProgramSource | None = None, nvp: int = 2,
         layout: JobLayout = JobLayout(1, 2, 1), sanitize=True,
         **options) -> AmpiJob:
    """An unprivatized job under the detector — by default the migration
    probe (write a global, move vp 0 cross-process, read it back) on two
    OS processes, so the move crosses address spaces."""
    return AmpiJob(source or migration_program(name="migfix"), nvp,
                   method="none", layout=layout, slot_size=1 << 26,
                   sanitize=sanitize, **options)


@_fixture("race-shared-globals", "runtime",
          {"race-write-read", "race-write-write"})
def _fx_races() -> list[Finding]:
    return _job(_racy_program().build(), 4,
                JobLayout.single(2)).run().sanitize_findings


@_fixture("use-after-migrate", "runtime", {"use-after-migrate"})
def _fx_use_after_migrate() -> list[Finding]:
    return _job().run().sanitize_findings


def _migrating_job(detector: RaceDetector) -> AmpiJob:
    """A started 2-process job about to migrate vp 0 cross-process."""
    job = _job(sanitize=detector)
    job.start()
    return job


@_fixture("stale-got", "runtime", {"stale-got"})
def _fx_stale_got() -> list[Finding]:
    det = RaceDetector()
    job = _migrating_job(det)
    rank = job.rank_of(0)
    # Seed what a buggy GOT-swapping method would leave behind: a
    # per-rank GOT whose entry still holds a source-process address
    # that exists in no destination mapping.
    tmpl = GotTemplate()
    tmpl.add("lost_obj")
    got = tmpl.instantiate()
    got.resolve("lost_obj", 0xDEAD_0000)
    rank.method_data["got"] = got
    job.migration_engine.migrate(rank, job.pes[1])
    return det.sorted_findings()


@_fixture("stale-tls", "runtime", {"stale-tls"})
def _fx_stale_tls() -> list[Finding]:
    det = RaceDetector()
    job = _migrating_job(det)
    rank = job.rank_of(0)
    src_proc = rank.pe.process
    # Seed a TLS block living in a source-process-private mapping (the
    # loader's segment area) instead of the rank's Isomalloc slot.
    lm = next(iter(src_proc.loader.link_maps()))
    rank.tls_instance = job.binary.image.tls.instantiate(lm.data.base)
    job.migration_engine.migrate(rank, job.pes[1])
    findings = det.sorted_findings()
    # The seeded TLS block also makes the data segment route "stale";
    # only the TLS diagnosis is this fixture's subject.
    return [f for f in findings if f.code == "stale-tls"]


@_fixture("stale-endpoint-delivery", "runtime", {"stale-endpoint-delivery"})
def _fx_stale_endpoint() -> list[Finding]:
    from repro.ft.plan import FaultPlan, MessageFaults
    from repro.ft.prng import CounterRng

    p = Program("staleend")
    p.add_global("pad", 0)

    @p.function()
    def main(ctx):
        mpi = ctx.mpi
        mpi.init()
        if mpi.rank() == 0:
            mpi.send(1.25, dest=1, tag=7)
        else:
            # Move cross-process while the dropped frame sits in its
            # retransmission backoff (10 us << the 50 us base RTO), so
            # the retry lands on the PE this rank just left.
            ctx.compute(10_000)
            mpi.migrate_to(0)
            mpi.recv(source=0, tag=7)
        mpi.finalize()
        return mpi.rank()

    # Pick a plan seed whose first fault draw drops the job's first (and
    # only) point-to-point frame and whose second lets the retry through.
    drop = 0.5
    seed = next(s for s in range(1 << 16)
                if CounterRng(s, "msg").uniform(0) < drop
                and CounterRng(s, "msg").uniform(1) >= drop)
    plan = FaultPlan(seed=seed, message_faults=MessageFaults(drop=drop))
    findings = _job(p.build(), fault_plan=plan,
                    transport="reliable").run().sanitize_findings
    # Running unprivatized also surfaces shared-global noise on some
    # platforms; only the transport diagnosis is this fixture's subject.
    return [f for f in findings if f.code == "stale-endpoint-delivery"]


@_fixture("foreign-write", "runtime", {"foreign-write"})
def _fx_foreign_write() -> list[Finding]:
    det = RaceDetector()
    job = _migrating_job(det)
    rank = job.rank_of(0)
    view = rank.ctx.view
    # Reroute vp 0's global into vp 1's Isomalloc slot — the aliasing
    # bug a wild pointer (or an off-by-one slot computation) produces.
    other_slot = job.rank_of(1).stack_mapping.start
    old = view.routes["x"]
    view.routes["x"] = AccessRoute(
        old.instance.image.instantiate(other_slot), old.kind
    )
    job.run()
    return [f for f in det.sorted_findings() if f.code == "foreign-write"]


#: sanitizer fixture name -> exactly the finding codes it must produce
EXPECTED: dict[str, set[str]] = {
    n: set(fx.expected) for n, fx in FIXTURES.items() if fx.phase != "source"
}
