"""Start-up plans against the per-slot loops they replaced.

Start-up computes what is a property of the *image* once — the
loader's relocation plan (``image.plans``), the function-pointer shim's
slot plan (``SetupEnv.shim_plan``), PIEglobals' pointer-scan plan (one
per ``setup_process``) — and applies it to each instance as
``base + offset``.  The loops that did the same work slot by slot, per
load and per rank, live on here, verbatim, as the reference: every test
below runs the same input through both and demands the same simulated
state — addresses, values, reports, calltables, clocks, trace spans —
and the same fault on a malformed image.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import inspect
import weakref
from contextlib import contextmanager
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.ampi.funcptr import AMPI_API_NAMES, shim_compile_unit
from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.elf.loader import _CTOR_HEAP_BASE, DynamicLoader, RelocPlan
from repro.elf.relocation import RelocKind, Relocation
from repro.errors import LinkError, SegFault, SymbolNotFound
from repro.machine import LEGACY_LINUX_OLD_LD, TEST_MACHINE
from repro.mem.address_space import VirtualMemory
from repro.mem.layout import LOADER_AREA_BASE, page_align_up
from repro.mem.segments import SegmentImage, SegmentKind, VarDef
from repro.perf.clock import SimClock
from repro.perf.costs import TEST_COSTS
from repro.privatization import fsglobals, pieglobals, pipglobals
from repro.privatization._util import SHIM_PREFIX, unpack_funcptr_shim
from repro.privatization.base import SetupEnv
from repro.privatization.pieglobals import PieGlobals, ScanReport
from repro.program.compiler import CompileOptions, Compiler
from repro.program.source import Program
from repro.threads import PooledBackend
from repro.trace.recorder import TraceRecorder
from repro.trace.stream import timeline_sha

OLD_LD = TEST_MACHINE.copy_with(toolchain=LEGACY_LINUX_OLD_LD.toolchain)


# ---------------------------------------------------------------------------
# The reference: the per-slot bodies as they stood before the plans
# ---------------------------------------------------------------------------

def ref_process_relocations(self, lm) -> None:
    image = lm.image
    for reloc in image.relocations:
        if reloc.kind is RelocKind.GOT_ENTRY:
            lm.got.resolve(reloc.symbol, lm.data.addr_of(reloc.symbol))
        elif reloc.kind is RelocKind.PLT_CALL:
            lm.got.resolve(reloc.symbol, lm.code.addr_of(reloc.symbol))
        elif reloc.kind is RelocKind.ABS64:
            # Patch the address of `symbol` into the data slot named in
            # `where` ("data:<var>").
            _, _, var = reloc.where.partition(":")
            lm.data.write(var, self._symbol_address(lm, reloc.symbol))
        # PC_REL and TPOFF need no load-time patching here.


def ref_unpack_funcptr_shim(data_instance, env):
    transport = env.funcptr_transport
    if transport is None:
        return None
    calltable: dict[str, object] = {}
    found = False
    for api_name, fn in transport.items():
        slot = SHIM_PREFIX + api_name
        if slot in data_instance.image:
            data_instance.write(slot, fn)
            calltable[api_name] = fn
            found = True
    if not found:
        return None
    clk = env.process.startup_clock
    t0 = clk.now
    clk.advance(env.costs.dlsym_ns * 2)
    if env.trace is not None:
        env.trace.span(
            "shim:AMPI_FuncPtr_Unpack", "priv", t0, clk.now - t0,
            pid=env.trace_pid, args={"entries": len(calltable)},
        )
    return calltable


def ref_scan_and_fixup(self, env, binary, rank, data_priv, got_priv,
                       orig_start, orig_end, delta, heap_map) -> ScanReport:
    report = ScanReport()
    clk = env.process.startup_clock
    costs = env.costs

    known_slots = None
    if self.robust_scan:
        known_slots = set(binary.image.addr_inits)

    scan_ns = costs.pointer_scan_ns_per_slot
    for addr, name, value in data_priv.slots():
        report.slots_scanned += 1
        if not isinstance(value, int) or isinstance(value, bool):
            continue
        if known_slots is not None and name not in known_slots:
            continue
        if orig_start <= value < orig_end:
            data_priv.values[name] = value + delta
            report.segment_pointers_fixed += 1
        elif value in heap_map:
            data_priv.values[name] = heap_map[value]
            report.heap_pointers_fixed += 1

    clk.advance(scan_ns * report.slots_scanned)
    report.got_entries_fixed = got_priv.rebase(orig_start, orig_end, delta)
    clk.advance(scan_ns * len(got_priv.template))

    if heap_map and rank.heap is not None:
        for new_addr in heap_map.values():
            alloc = rank.heap.allocations[new_addr]
            for slot, value in list(alloc.ptr_slots.items()):
                clk.advance(costs.pointer_scan_ns_per_slot)
                if orig_start <= value < orig_end:
                    alloc.ptr_slots[slot] = value + delta
                    report.heap_pointers_fixed += 1
                elif value in heap_map:
                    alloc.ptr_slots[slot] = heap_map[value]
                    report.heap_pointers_fixed += 1
            for slot, value in list(alloc.fn_ptr_slots.items()):
                clk.advance(costs.pointer_scan_ns_per_slot)
                if orig_start <= value < orig_end:
                    alloc.fn_ptr_slots[slot] = value + delta
                    report.heap_pointers_fixed += 1
    return report


def _ref_plan_scan(self, binary, lm, orig_start, orig_end):
    """Nothing is planned: hand the per-rank loop its old arguments."""
    return binary, orig_start, orig_end


def _ref_scan_per_rank(self, env, rank, scan, data_priv, got_priv, delta,
                       heap_map):
    binary, orig_start, orig_end = scan
    return ref_scan_and_fixup(self, env, binary, rank, data_priv, got_priv,
                              orig_start, orig_end, delta, heap_map)


@contextmanager
def per_slot_reference():
    """Run start-up the old way: every plan swapped for its loop."""
    with patch.object(DynamicLoader, "_process_relocations",
                      ref_process_relocations), \
            patch.object(pipglobals, "unpack_funcptr_shim",
                         ref_unpack_funcptr_shim), \
            patch.object(fsglobals, "unpack_funcptr_shim",
                         ref_unpack_funcptr_shim), \
            patch.object(pieglobals, "unpack_funcptr_shim",
                         ref_unpack_funcptr_shim), \
            patch.object(PieGlobals, "_plan_scan", _ref_plan_scan), \
            patch.object(PieGlobals, "_scan_and_fixup", _ref_scan_per_rank):
        yield


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------

#: ints the heuristic scan mistakes for pointers: into the first image
#: the loader maps, and at the constructor heap's first allocations
_pointer_like = st.one_of(
    st.integers(0, 0x3000).map(lambda off: LOADER_AREA_BASE + off),
    st.integers(0, 8).map(lambda k: _CTOR_HEAP_BASE + 16 * k),
)
_inits = st.one_of(
    st.integers(-4, 4), _pointer_like, st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text("ab", max_size=2),
)


@st.composite
def program_specs(draw):
    def named(prefix, lo, hi):
        return [(f"{prefix}{i}", draw(_inits))
                for i in range(draw(st.integers(lo, hi)))]

    spec = SimpleNamespace(
        globals=named("g", 1, 5), statics=named("s", 0, 3),
        tls=named("t", 0, 2), consts=named("c", 0, 3),
        funcs=[f"f{i}" for i in range(draw(st.integers(0, 2)))],
    )
    # `type *p = &target;` into data, rodata and code
    targets = ([n for n, _ in spec.globals + spec.consts]
               + spec.funcs + ["main"])
    spec.pointers = [(f"p{i}", draw(st.sampled_from(targets)))
                     for i in range(draw(st.integers(0, 4)))]
    writable = [n for n, _ in spec.globals] + [n for n, _ in spec.pointers]

    def pointer_values(symbols):
        return draw(st.lists(st.one_of(
            st.tuples(st.just("sym"), st.sampled_from(symbols)),
            st.tuples(st.just("alloc"), st.integers(0, 3)),
            st.tuples(st.just("int"), st.one_of(st.integers(0, 9),
                                                _pointer_like)),
        ), max_size=3))

    # static constructors: allocations holding data and function
    # pointers, some of them stored into a global
    spec.ctors = [
        [SimpleNamespace(
            nbytes=draw(st.integers(1, 300)),
            ptrs=pointer_values(targets),
            fns=pointer_values(spec.funcs + ["main"]),
            store=draw(st.one_of(st.none(), st.sampled_from(writable))))
         for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(0, 2)))]
    return spec


def build_program(spec):
    p = Program("gen", language="cxx")
    for name, init in spec.globals:
        p.add_global(name, init)
    for name, init in spec.statics:
        p.add_static(name, init)
    for name, init in spec.tls:
        p.add_global(name, init, tls=True)
    for name, init in spec.consts:
        p.add_global(name, init, const=True)
    for name, target in spec.pointers:
        p.add_pointer_global(name, target)
    for fname in spec.funcs:
        p.add_function(lambda ctx: None, name=fname)

    def make_ctor(allocs):
        def ctor(lctx):
            def value(kind, arg):
                if kind == "sym":
                    return lctx.addr_of(arg)
                if kind == "alloc":     # an earlier allocation, if any
                    made = lctx._lm.ctor_allocations
                    return made[arg % len(made)].addr if made else 0
                return arg

            for a in allocs:
                alloc = lctx.malloc(
                    a.nbytes, data={"w": [1.0, 2.0]}, tag="gen",
                    ptr_slots={f"p{i}": value(*v)
                               for i, v in enumerate(a.ptrs)},
                    fn_ptr_slots={f"f{i}": value(*v)
                                  for i, v in enumerate(a.fns)})
                if a.store is not None:
                    lctx.data.write(a.store, alloc.addr)
        return ctor

    for i, allocs in enumerate(spec.ctors):
        p.static_ctor(name=f"ctor{i}")(make_ctor(allocs))

    names = [n for n, _ in (spec.globals + spec.statics + spec.tls
                            + spec.consts + spec.pointers)]

    @p.function()
    def main(ctx):
        ctx.g[spec.globals[0][0]] = ctx.mpi.rank()
        ctx.mpi.barrier()
        return tuple(ctx.g[n] for n in names)

    return p.build()


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def norm(value):
    """A bound method of a job is that job's; compare which method
    (and, for a collective's entry, which kind is bound to it)."""
    if inspect.ismethod(value):
        return ("method", value.__func__.__qualname__)
    if isinstance(value, functools.partial):
        return ("partial", norm(value.func), value.args)
    if isinstance(value, dict):
        return {k: norm(v) for k, v in value.items()}
    return value


def segment(inst):
    return None if inst is None else (inst.base, norm(inst.values))


def allocation(a):
    return (a.addr, a.nbytes, a.tag, a.data, dict(a.ptr_slots),
            dict(a.fn_ptr_slots))


def linkmap(lm):
    return (lm.image.name, lm.lmid, lm.handle, lm.refcount, lm.code.base,
            list(lm.got.addresses), segment(lm.data), segment(lm.rodata),
            [allocation(a) for a in lm.ctor_allocations],
            [(m.start, m.size, m.owner_rank, m.tag) for m in lm.mappings])


def started_state(job) -> dict:
    """Everything start-up decided, in comparable form."""
    state: dict = {"fs": (job.sharedfs.used_bytes(),
                          job.sharedfs.file_count())}
    for proc in job.processes:
        state["proc", proc.index] = (
            proc.startup_clock.now, proc.loader.clock.now,
            proc.counters.snapshot(), proc.vm.maps_report(),
            [linkmap(lm) for lm in proc.loader.link_maps()])
    for vp, rank in job._ranks.items():
        md = dict(rank.method_data)
        if "got" in md:
            md["got"] = list(md["got"].addresses)
        if "linkmap" in md:
            md["linkmap"] = linkmap(md["linkmap"])
        if "fs_copy" in md:     # "job<id>/<binary>.vp<n>": ids are per job
            md["fs_copy"] = md["fs_copy"].partition("/")[2]
        state["rank", vp] = (
            {name: (route.kind, segment(route.instance))
             for name, route in rank.ctx.view.routes.items()},
            rank.code.base, segment(rank.tls_instance), md,
            [allocation(a) for a in rank.heap],
            norm(rank.ctx.mpi._calltable), rank.ctx.mpi.via_shim,
            rank.memory_footprint())
    reports = getattr(job.method, "scan_reports", {})
    state["scan"] = {vp: dataclasses.asdict(r) for vp, r in reports.items()}
    return state


def events(recorder):
    return [(e.name, e.cat, e.ph, e.ts, e.dur, e.pid, e.tid, e.args)
            for e in recorder.events()]


def outcome(job) -> dict:
    """Start a job, record what start-up decided, run it to the end."""
    job.start()
    state = started_state(job)
    result = job.run()
    state["result"] = (result.makespan_ns, result.exit_values,
                       timeline_sha(job.scheduler.timeline),
                       result.counters.snapshot())
    state["trace"] = events(job.trace)
    return state


def make_job(source, method, *, nvp=3, machine=TEST_MACHINE,
             layout=JobLayout(1, 1, 1)):
    return AmpiJob(source, nvp, method=method, machine=machine,
                   layout=layout, slot_size=1 << 24, trace=True)


#: every path through start-up: the three loader paths, the shim
#: unpack, and each PIEglobals option that branches inside the rank
#: set-up and the scan
METHODS = {
    "none": dict(method="none"),
    "tlsglobals": dict(method="tlsglobals"),
    "swapglobals": dict(method="swapglobals", machine=OLD_LD),
    "pipglobals": dict(method="pipglobals"),
    "fsglobals": dict(method="fsglobals",
                      layout=JobLayout(2, 1, 1)),
    "pieglobals": dict(method="pieglobals", layout=JobLayout(1, 2, 1)),
    "pieglobals-smp": dict(method="pieglobals", layout=JobLayout(1, 1, 2)),
    "pieglobals-robust-scan": dict(method="pieglobals-robust-scan"),
    "pieglobals-shared-rodata": dict(method="pieglobals-shared-rodata"),
    "pieglobals-mmap-code": dict(method="pieglobals-mmap-code"),
}


class TestWholeStartup:
    """The same program through ``AmpiJob.start`` both ways."""

    @settings(max_examples=25, deadline=None)
    @given(program_specs())
    def test_random_programs_start_identically(self, spec):
        source = build_program(spec)
        for name, kw in METHODS.items():
            planned = outcome(make_job(source, **kw))
            with per_slot_reference():
                per_slot = outcome(make_job(source, **kw))
            assert planned.keys() == per_slot.keys()
            for key in planned:
                assert planned[key] == per_slot[key], (name, key)

    def test_scan_reports_are_not_vacuous(self):
        """A program the scan has real work on, both modes: segment
        pointers, a heap pointer in a global, interior pointers, and an
        int that only looks like a pointer."""
        p = Program("scanme", language="cxx")
        p.add_global("x", 5)
        p.add_pointer_global("px", "x")
        p.add_pointer_global("pf", "main")
        p.add_global("table", 0)
        p.add_global("decoy", LOADER_AREA_BASE + 0x10)

        @p.static_ctor()
        def init(lctx):
            first = lctx.malloc(64, tag="a",
                                ptr_slots={"x": lctx.addr_of("x")})
            second = lctx.malloc(
                64, tag="b", ptr_slots={"prev": first.addr, "n": 7},
                fn_ptr_slots={"vfn": lctx.addr_of("main")})
            lctx.data.write("table", second.addr)

        @p.function()
        def main(ctx):
            return ctx.g.decoy

        source = p.build()
        for robust, decoy_kept in ((False, False), (True, True)):
            method = PieGlobals(robust_scan=robust)
            job = make_job(source, method, nvp=2)
            planned = outcome(job)
            with per_slot_reference():
                per_slot = outcome(
                    make_job(source, PieGlobals(robust_scan=robust), nvp=2))
            assert planned == per_slot
            report = method.scan_reports[0]
            assert report == method.scan_reports[1]
            assert report.slots_scanned == len(job.binary.image.data.vars)
            assert report.segment_pointers_fixed == (2 if robust else 3)
            # robust: `table` is no relocation-known slot, left alone
            assert report.heap_pointers_fixed == (3 if robust else 4)
            assert report.got_entries_fixed > 0
            kept = planned["result"][1][0] == LOADER_AREA_BASE + 0x10
            assert kept is decoy_kept


# ---------------------------------------------------------------------------
# The loader's relocation plan
# ---------------------------------------------------------------------------

def compile_pie(source, shim=True):
    units = [shim_compile_unit()] if shim else []
    return Compiler(TEST_MACHINE.toolchain).compile(
        source, CompileOptions(pie=True), extra_units=units)


def fresh_loader(trace=None):
    return DynamicLoader(VirtualMemory(), TEST_MACHINE.toolchain, TEST_COSTS,
                         trace=trace)


def load_three_ways(image):
    """dlopen, a renamed copy's dlopen (FSglobals), two dlmopens (PIP)."""
    recorder = TraceRecorder()
    loader = fresh_loader(recorder)
    maps = [loader.dlopen(image),
            loader.dlopen(dataclasses.replace(image, name="renamed")),
            loader.dlmopen(image), loader.dlmopen(image)]
    return ([linkmap(lm) for lm in maps], loader.clock.now,
            loader.counters.snapshot(), events(recorder))


class TestRelocationPlan:
    @settings(max_examples=40, deadline=None)
    @given(program_specs())
    def test_every_load_matches_the_per_slot_loop(self, spec):
        source = build_program(spec)
        planned = load_three_ways(compile_pie(source).image)
        with per_slot_reference():
            per_slot = load_three_ways(compile_pie(source).image)
        assert planned == per_slot

    def test_plan_is_built_once_and_shared_by_renamed_copies(self):
        image = compile_pie(build_program(SimpleNamespace(
            globals=[("g0", 1)], statics=[], tls=[], consts=[("c0", 2)],
            funcs=[], pointers=[("p0", "c0"), ("p1", "main")],
            ctors=[]))).image
        assert image.plans.reloc is None
        loader = fresh_loader()
        loader.dlopen(image)
        plan = image.plans.reloc
        assert isinstance(plan, RelocPlan) and len(plan.abs64) == 2
        copy = dataclasses.replace(image, name="app.vp7")
        assert copy.plans is image.plans
        with patch.object(DynamicLoader, "_plan_relocations",
                          side_effect=AssertionError("planned twice")):
            loader.dlopen(copy)
            loader.dlmopen(image)
        assert copy.plans.reloc is plan is image.plans.reloc

    def test_runtime_reloc_count_is_the_sum_it_replaced(self):
        image = compile_pie(build_program(SimpleNamespace(
            globals=[("g0", 1), ("g1", 2)], statics=[("s0", 0)],
            tls=[("t0", 0)], consts=[], funcs=[],
            pointers=[("p0", "g1")], ctors=[]))).image
        image.relocations.append(Relocation(RelocKind.PC_REL, "s0"))
        summed = sum(1 for r in image.relocations if r.needs_runtime_work)
        assert image.runtime_reloc_count == summed < len(image.relocations)
        assert dataclasses.replace(image, name="copy") \
            .runtime_reloc_count == summed

    def test_every_job_copy_shares_one_plan(self):
        source = build_program(SimpleNamespace(
            globals=[("g0", 1)], statics=[], tls=[], consts=[], funcs=[],
            pointers=[("p0", "g0")], ctors=[]))
        for method in ("fsglobals", "pipglobals"):
            job = make_job(source, method, nvp=4)
            job.start()
            try:
                plan = job.binary.image.plans.reloc
                assert plan is not None
                for vp in range(4):
                    lm = job.rank_of(vp).method_data["linkmap"]
                    assert lm.image.plans.reloc is plan
            finally:
                job.scheduler.shutdown()

    # -- malformed images: the same fault, at every load --------------------

    @staticmethod
    def _malformed(case):
        p = Program("bad")
        p.add_global("x", 1)
        p.add_static("s", 2)
        p.add_global("t", 3, tls=True)
        p.add_function(lambda ctx: None, name="main")
        image = compile_pie(p.build(), shim=False).image
        if case == "const-slot":
            image.data = SegmentImage(SegmentKind.DATA, [
                *image.data.vars.values(), VarDef("ro", const=True)])
            bad = Relocation(RelocKind.ABS64, "x", where="data:ro")
        elif case == "missing-slot":
            bad = Relocation(RelocKind.ABS64, "x", where="data:nope")
        elif case == "no-got-slot":
            bad = Relocation(RelocKind.GOT_ENTRY, "s")
        elif case == "got-symbol-not-in-data":
            bad = Relocation(RelocKind.GOT_ENTRY, "ghost")
        elif case == "plt-missing-function":
            image.got.add("ghost_fn", is_func=True)
            bad = Relocation(RelocKind.PLT_CALL, "ghost_fn")
        elif case == "abs64-unknown-symbol":
            bad = Relocation(RelocKind.ABS64, "ghost", where="data:x")
        else:
            assert case == "abs64-tls-symbol"
            bad = Relocation(RelocKind.ABS64, "t", where="data:x")
        image.relocations.append(bad)
        return image

    @staticmethod
    def _failed_loads(image):
        loader = fresh_loader()
        seen = []
        for load in (loader.dlopen, loader.dlmopen, loader.dlmopen):
            with pytest.raises(Exception) as failure:
                load(image)
            e = failure.value
            seen.append((type(e), str(e), getattr(e, "address", None),
                         loader.clock.now, len(loader.vm)))
        return seen

    @pytest.mark.parametrize("case, error", [
        ("const-slot", SegFault), ("missing-slot", SegFault),
        ("no-got-slot", LinkError), ("got-symbol-not-in-data", KeyError),
        ("plt-missing-function", SegFault),
        ("abs64-unknown-symbol", SymbolNotFound),
        ("abs64-tls-symbol", KeyError),
    ])
    def test_malformed_image_faults_like_the_loop(self, case, error):
        image = self._malformed(case)
        planned = self._failed_loads(image)
        assert image.plans.reloc is None     # no plan for what never loads
        with per_slot_reference():
            per_slot = self._failed_loads(self._malformed(case))
        assert planned == per_slot
        assert {kind for kind, *_ in planned} == {error}
        if error is SegFault:               # addresses follow the instance
            assert len({address for _, _, address, *_ in planned}) == 3


# ---------------------------------------------------------------------------
# The shim plan
# ---------------------------------------------------------------------------

def shim_env(transport, trace=None):
    return SetupEnv(
        process=SimpleNamespace(startup_clock=SimClock()), loader=None,
        machine=TEST_MACHINE, layout=JobLayout.single(1), costs=TEST_COSTS,
        funcptr_transport=transport, trace=trace, trace_pid=3)


def shim_image(names, *, const=()):
    return SegmentImage(SegmentKind.DATA, [
        VarDef("before", init=1),
        *(VarDef(SHIM_PREFIX + n, const=n in const) for n in names),
        VarDef("after", init=2)])


TRANSPORT = {name: (lambda rank, _n=name: _n) for name in AMPI_API_NAMES}


def unpack_all(unpack, images, transport):
    """Unpack into two instances of each image through one env."""
    recorder = TraceRecorder()
    env = shim_env(transport, recorder)
    out = []
    for image in images:
        for base in (0x1000, 0x9000):
            inst = image.instantiate(base)
            table = unpack(inst, env)
            out.append((table, dict(inst.values),
                        env.process.startup_clock.now))
    return out, events(recorder)


class TestShimPlan:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(AMPI_API_NAMES), unique=True,
                             max_size=8), min_size=1, max_size=3),
           st.lists(st.sampled_from(AMPI_API_NAMES), unique=True))
    def test_matches_the_per_slot_loop(self, slot_sets, carried):
        """Images with any subset of the shim's slots, a transport
        carrying any subset of the API — including none in common."""
        images = [shim_image(names) for names in slot_sets]
        transport = {n: TRANSPORT[n] for n in carried}
        assert unpack_all(unpack_funcptr_shim, images, transport) == \
            unpack_all(ref_unpack_funcptr_shim, images, transport)

    def test_no_transport_no_calltable(self):
        inst = shim_image(["send"]).instantiate(0)
        assert unpack_funcptr_shim(inst, shim_env(None)) is None
        assert inst.values[SHIM_PREFIX + "send"] == 0

    def test_instances_of_an_image_share_the_calltable(self):
        env = shim_env(TRANSPORT)
        image = shim_image(["send", "recv"])
        first = unpack_funcptr_shim(image.instantiate(0), env)
        again = unpack_funcptr_shim(image.instantiate(0x4000), env)
        assert first is again and set(first) == {"send", "recv"}
        other = unpack_funcptr_shim(shim_image(["wait"]).instantiate(0), env)
        assert set(other) == {"wait"}

    def test_const_slot_faults_for_every_instance(self):
        image = shim_image(["send", "recv", "wait"], const={"recv"})
        env = shim_env(TRANSPORT)
        for base in (0x1000, 0x9000):
            faults = []
            for unpack in (unpack_funcptr_shim, ref_unpack_funcptr_shim):
                inst = image.instantiate(base)
                with pytest.raises(SegFault) as fault:
                    unpack(inst, env)
                faults.append((str(fault.value), fault.value.address))
            assert faults[0] == faults[1]
            assert faults[0][1] == inst.addr_of(SHIM_PREFIX + "recv")
        assert env.shim_plan is None and env.process.startup_clock.now == 0


# ---------------------------------------------------------------------------
# Lifetime and what must not move
# ---------------------------------------------------------------------------

class TestPlansDieWithTheirJob:
    def test_nothing_outlives_the_job(self):
        """No module-level memo: once the job is dropped, its image (the
        relocation plan's only owner) and its set-up envs (the shim
        plans' only owners) are unreachable."""
        envs = []
        setup = PieGlobals.setup_process

        def recording(self, env, binary, ranks):
            envs.append(weakref.ref(env))
            return setup(self, env, binary, ranks)

        source = build_program(SimpleNamespace(
            globals=[("g0", 1)], statics=[], tls=[], consts=[], funcs=[],
            pointers=[("p0", "g0")], ctors=[]))
        # a private pool, closed below: a parked worker of the shared
        # one holds the last ULT it ran until its next job
        pool = PooledBackend()
        with patch.object(PieGlobals, "setup_process", recording):
            job = AmpiJob(source, 4, method="pieglobals",
                          machine=TEST_MACHINE, layout=JobLayout(1, 2, 1),
                          slot_size=1 << 24, ult_backend=pool)
            job.run()
        pool.close()
        assert len(envs) == 2
        assert job.binary.image.plans.reloc is not None
        refs = envs + [weakref.ref(job.binary.image)]
        del job
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)


class TestSimulatedSizesAreUntouched:
    """Migration bytes and footprints come from simulated segment sizes,
    never from the host objects start-up now builds fewer of."""

    def test_footprint_and_migration_bytes(self):
        p = Program("sized", code_bytes=40_000)
        p.add_global("x", 0)
        p.add_global("t", 0, tls=True)

        @p.function()
        def main(ctx):
            ctx.malloc(10_000, tag="work")
            ctx.mpi.barrier()
            return ctx.mpi.rank()

        def migrate_all(job):
            job.run()
            image = job.binary.image
            span = sum(map(page_align_up, (image.code.size, image.data.size,
                                           image.rodata.size)))
            expected = sum(map(page_align_up, (
                job.stack_bytes, span, image.tls.size, 10_000)))
            seen = []
            for vp in range(4):
                rank = job.rank_of(vp)
                footprint = rank.memory_footprint()
                assert footprint == expected
                dest = job.pes[(rank.pe.index + 1) % len(job.pes)]
                record = job.migration_engine.migrate(rank, dest)
                assert record.cross_process and record.nbytes == footprint
                assert rank.memory_footprint() == footprint
                seen.append((footprint, record.nbytes, record.ns))
            return seen

        def job():
            return make_job(p.build(), "pieglobals", nvp=4,
                            layout=JobLayout(1, 2, 1))

        planned = migrate_all(job())
        with per_slot_reference():
            assert migrate_all(job()) == planned
