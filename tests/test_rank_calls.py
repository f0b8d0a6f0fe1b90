"""A rank's calls into the runtime, one direct call each.

``MpiHandle`` hands each method's own arguments to its calltable entry,
``ctx.call`` looks its function up once and a global access is one
``GlobalsView`` call.  The previous facade — ``MpiHandle._call`` with
its ``*args``/``**kw`` repacking and run-time result-type test,
``GlobalsView`` with ``_route``/``_charge`` per access, and
``ExecutionContext.call`` with its second lookup — is kept here verbatim
and swapped in where ``AmpiJob.start`` builds them.  The six in-tree
apps and the generated point-to-point programs of
``test_ampi_send_path`` must give the same history under both, across
the routes a global can take (direct, GOT, TLS at ``-O0`` and ``-O2``)
and with and without shim dispatch; five misuses must fail the same
way; and two known-bad mutants must be caught.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from inspect import GEN_CREATED, getgeneratorstate
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Sequence
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.ampi.api import MpiHandle
from repro.ampi.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.ampi.ops import Op, SUM
from repro.ampi.requests import Request, Status
from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.errors import MpiError, ReproError, SegFault
from repro.harness.jobspec import JobSpec, build_job
from repro.machine import TEST_MACHINE, get_machine
from repro.perf.counters import EV_GLOBAL_READ, EV_GLOBAL_WRITE, EV_SHIM_DISPATCH
from repro.program.context import AccessKind, AccessRoute, ExecutionContext, GlobalsView
from repro.program.source import Program
from repro.threads.ult import drive
from repro.trace.stream import timeline_sha

from test_ampi_send_path import build as build_rounds, programs

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.vrank import VirtualRank


# -- the previous facade, verbatim ----------------------------------------------------


class ReferenceMpiHandle:
    """Per-rank MPI entry object."""

    __slots__ = ("_rank", "_calltable", "via_shim", "_handed", "_handed_op")

    def __init__(self, rank: "VirtualRank",
                 calltable: dict[str, Callable],
                 via_shim: bool = False):
        self._rank = rank
        self._calltable = calltable
        #: True when the calltable was unpacked from the rank's privatized
        #: function-pointer shim slots (PIP/FS/PIEglobals builds)
        self.via_shim = via_shim
        #: the last generator handed out, until seen started, and its op
        self._handed: GeneratorType | None = None
        self._handed_op = ""

    def _check_delegated(self) -> None:
        """Raise if the last generator handed out was never started."""
        gen, self._handed = self._handed, None
        # finished, or running (we are inside it): the two usual answers
        if (gen is not None and gen.gi_frame is not None
                and not gen.gi_running
                and getgeneratorstate(gen) == GEN_CREATED):
            raise MpiError(
                f"vp {self._rank.vp}: {self._handed_op} was called but not "
                "delegated to (missing 'yield from')"
            )

    def _blocking(self, op: str, gen: GeneratorType) -> Any:
        """A blocking operation, as its caller takes it: the generator
        to delegate to when the caller is generator-form (somebody steps
        or drives the ULT's ``gen``), its result otherwise."""
        ult = self._rank.ult
        if ult.gen is None:
            return drive(ult, gen)
        if self._handed is not None:
            self._check_delegated()
        self._handed = gen
        self._handed_op = op
        return gen

    def _call(self, name: str, *args: Any, **kw: Any) -> Any:
        if self._handed is not None:
            self._check_delegated()
        try:
            fn = self._calltable[name]
        except KeyError:
            raise MpiError(
                f"MPI entry point {name!r} missing from the calltable "
                "(shim not unpacked?)"
            ) from None
        rank = self._rank
        if self.via_shim:
            # CounterSet.incr without the call (a count of one is never
            # negative): every MPI call of a shim build passes here
            counts = rank.ctx.counters._counts
            counts[EV_SHIM_DISPATCH] = counts.get(EV_SHIM_DISPATCH, 0) + 1
        result = fn(rank, *args, **kw)
        if type(result) is GeneratorType:
            return self._blocking("MPI_" + name, result)
        return result

    # -- setup / teardown ------------------------------------------------------

    def init(self) -> None:
        """MPI_Init."""
        self._call("init")

    def initialized(self) -> bool:
        return self._call("initialized")

    def finalize(self) -> None:
        """MPI_Finalize (synchronizing, like a final barrier)."""
        return self._call("finalize")

    # -- identity -----------------------------------------------------------------

    def rank(self, comm: Communicator | None = None) -> int:
        """MPI_Comm_rank."""
        return self._call("rank", comm)

    def size(self, comm: Communicator | None = None) -> int:
        """MPI_Comm_size."""
        return self._call("size", comm)

    @property
    def world(self) -> Communicator:
        return self._call("comm_world")

    # -- point-to-point ---------------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0,
             comm: Communicator | None = None) -> None:
        """Blocking (eager) send."""
        self._call("send", payload, dest, tag, comm)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: Communicator | None = None,
             status: Status | None = None) -> Any:
        """Blocking receive; returns the payload."""
        return self._call("recv", source, tag, comm, status)

    def sendrecv(self, payload: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 comm: Communicator | None = None) -> Any:
        return self._call("sendrecv", payload, dest, source, sendtag,
                          recvtag, comm)

    def isend(self, payload: Any, dest: int, tag: int = 0,
              comm: Communicator | None = None) -> Request:
        return self._call("isend", payload, dest, tag, comm)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Communicator | None = None) -> Request:
        return self._call("irecv", source, tag, comm)

    def wait(self, request: Request) -> Any:
        """Block until the request completes; returns recv payload."""
        return self._call("wait", request)

    def test(self, request: Request) -> tuple[bool, Any]:
        return self._call("test", request)

    def waitall(self, requests: Sequence[Request]) -> list[Any]:
        return self._call("waitall", requests)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Communicator | None = None) -> Status:
        """Blocking probe."""
        return self._call("probe", source, tag, comm)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               comm: Communicator | None = None) -> Status | None:
        """Nonblocking probe; None when no matching message is queued."""
        return self._call("iprobe", source, tag, comm)

    # -- collectives -----------------------------------------------------------------------
    # A collective's transport entry is ``CollectiveEngine.enter`` with
    # its kind bound: ``(rank, comm, contribution, **params)``.

    def barrier(self, comm: Communicator | None = None) -> None:
        return self._call("barrier", comm)

    def bcast(self, value: Any = None, root: int = 0,
              comm: Communicator | None = None) -> Any:
        return self._call("bcast", comm, value, root=root)

    def reduce(self, value: Any, op: Op = SUM, root: int = 0,
               comm: Communicator | None = None) -> Any:
        return self._call("reduce", comm, value, root=root, op=op)

    def allreduce(self, value: Any, op: Op = SUM,
                  comm: Communicator | None = None) -> Any:
        return self._call("allreduce", comm, value, op=op)

    def gather(self, value: Any, root: int = 0,
               comm: Communicator | None = None) -> list[Any] | None:
        return self._call("gather", comm, value, root=root)

    def allgather(self, value: Any,
                  comm: Communicator | None = None) -> list[Any]:
        return self._call("allgather", comm, value)

    def scatter(self, values: Sequence[Any] | None, root: int = 0,
                comm: Communicator | None = None) -> Any:
        return self._call("scatter", comm, values, root=root)

    def alltoall(self, values: Sequence[Any],
                 comm: Communicator | None = None) -> list[Any]:
        return self._call("alltoall", comm, values)

    def scan(self, value: Any, op: Op = SUM,
             comm: Communicator | None = None) -> Any:
        return self._call("scan", comm, value, op=op)

    def exscan(self, value: Any, op: Op = SUM,
               comm: Communicator | None = None) -> Any:
        """MPI_Exscan: exclusive prefix reduction (rank 0 gets None)."""
        return self._call("exscan", comm, value, op=op)

    def reduce_scatter(self, values: Sequence[Any], op: Op = SUM,
                       comm: Communicator | None = None) -> Any:
        """MPI_Reduce_scatter_block: reduce vectors elementwise, rank i
        keeps element i."""
        return self._call("reduce_scatter", comm, values, op=op)

    def waitany(self, requests: Sequence[Request]) -> tuple[int, Any]:
        """MPI_Waitany: (index of the first completion, its payload)."""
        return self._call("waitany", requests)

    def testall(self, requests: Sequence[Request]) -> tuple[bool, list[Any]]:
        return self._call("testall", requests)

    # -- operators / communicators -------------------------------------------------------------

    def op_create(self, fn_name: str, commute: bool = True) -> Op:
        """MPI_Op_create over a *program function* (by name).

        Under PIEglobals the function's address differs per rank, so the
        op records an offset from this rank's code base (Section 3.3).
        """
        return self._call("op_create", fn_name, commute)

    def comm_dup(self, comm: Communicator | None = None) -> Communicator:
        return self._call("comm_dup", comm)

    def comm_split(self, color: int, key: int = 0,
                   comm: Communicator | None = None) -> Communicator:
        return self._call("comm_split", comm, (color, key))

    # -- AMPI extensions ------------------------------------------------------------------------

    def migrate(self) -> None:
        """AMPI_Migrate: collective load-balancing sync point."""
        return self._call("migrate")

    def migrate_to(self, pe_index: int) -> None:
        """AMPI_Migrate_to: move this rank to a specific PE."""
        return self._call("migrate_to", pe_index)

    def yield_(self) -> None:
        """AMPI_Yield: give up the PE to the next ready rank (the
        Figure 6 context-switch microbenchmark primitive)."""
        return self._call("yield")

    def resize(self, n_active_pes: int) -> None:
        """AMPI shrink/expand: collectively repack ranks onto the first
        ``n_active_pes`` PEs (or spread back out when growing)."""
        return self._call("resize", n_active_pes)

    def my_pe(self) -> int:
        """CkMyPe analogue: the PE this rank currently runs on."""
        return self._rank.pe.index

    def num_pes(self) -> int:
        return self._call("num_pes")

    def checkpoint(self) -> None:
        """Collective in-memory checkpoint of all rank state."""
        return self._call("checkpoint")

    # -- misc ---------------------------------------------------------------------------------------

    def wtime(self) -> float:
        """MPI_Wtime in simulated seconds."""
        return self._call("wtime")

    def abort(self, errorcode: int = 1) -> None:
        self._call("abort", errorcode)


class ReferenceGlobalsView(GlobalsView):
    """The previous per-access path: ``_route``, then ``_charge``."""

    __slots__ = ()

    def _route(self, name: str) -> AccessRoute:
        try:
            return self.routes[name]
        except KeyError:
            raise SegFault(0, f"undeclared global {name!r}") from None

    def _charge(self, route: AccessRoute) -> None:
        ns = self.costs.direct_access_ns
        if route.kind is AccessKind.GOT:
            ns += self.costs.got_indirect_extra_ns
        elif route.kind is AccessKind.TLS and not self.optimized:
            ns += self.costs.tls_indirect_extra_ns
        self.clock.advance(ns)

    def read(self, name: str) -> Any:
        route = self._route(name)
        self._charge(route)
        if self.counters is not None:
            self.counters.incr(EV_GLOBAL_READ)
        return route.instance.read(name)

    def write(self, name: str, value: Any) -> None:
        route = self._route(name)
        self._charge(route)
        if self.counters is not None:
            self.counters.incr(EV_GLOBAL_WRITE)
        route.instance.write(name, value)

    def access_ns(self, name: str) -> int:
        """Cost of one access to ``name`` under the current routing."""
        route = self._route(name)
        ns = self.costs.direct_access_ns
        if route.kind is AccessKind.GOT:
            ns += self.costs.got_indirect_extra_ns
        elif route.kind is AccessKind.TLS and not self.optimized:
            ns += self.costs.tls_indirect_extra_ns
        return ns

    def charge_bulk(self, name: str, count: int) -> int:
        if count < 0:
            raise ValueError("negative access count")
        ns = self.access_ns(name) * count
        self.clock.advance(ns)
        if self.counters is not None:
            self.counters.incr(EV_GLOBAL_READ, count)
        return ns


class ReferenceExecutionContext(ExecutionContext):
    """The previous ``call``: a second lookup through ``CodeInstance.fn``."""

    __slots__ = ()

    def call(self, func_name: str, *args: Any) -> Any:
        """Call another program function by name (through this rank's code
        segment — under PIE methods, its private copy).  A generator
        function is a blocking operation like an MPI one: a generator-form
        caller delegates to it (``yield from ctx.call(...)``), a plain
        caller gets its result."""
        fdef = self.code.image.funcs.get(func_name)
        if fdef is None:
            raise SegFault(0, f"call to unknown function {func_name!r}")
        if self.tracer is not None:
            self.tracer.record(self.code.addr_of(func_name), fdef.code_bytes)
        result = self.code.fn(func_name)(self, *args)
        if type(result) is GeneratorType and self.mpi is not None:
            return self.mpi._blocking(func_name + "()", result)
        return result


REFERENCE = {"MpiHandle": ReferenceMpiHandle,
             "GlobalsView": ReferenceGlobalsView,
             "ExecutionContext": ReferenceExecutionContext}


# -- the two mutants the oracle must catch -------------------------------------------


class UncheckedEntry(MpiHandle):
    """Mutant: a non-blocking entry skips the forgotten-``yield from``
    check (a blocking one still makes it, in ``_blocking``)."""

    __slots__ = ()

    def _entry(self, slot: str) -> Callable:
        handed, self._handed = self._handed, None
        try:
            return MpiHandle._entry(self, slot)
        finally:
            self._handed = handed


class TlsExtraAtO2(GlobalsView):
    """Mutant: a TLS access pays the ``-O0`` extra at every level."""

    __slots__ = ()

    def __init__(self, *args: Any, **kw: Any):
        super().__init__(*args, **kw)
        if self.optimized:
            self._price[AccessKind.TLS] += self.costs.tls_indirect_extra_ns


@contextmanager
def facade(classes: dict[str, type]):
    """``AmpiJob.start`` builds ``classes`` (by the name it imported)."""
    with mock.patch.multiple("repro.ampi.runtime", **classes):
        yield


# -- what runs, and what is compared ---------------------------------------------------

#: the routes a global can take, shim dispatch or not: direct (none),
#: shim + per-rank copies (pieglobals), TLS at -O0 and -O2, GOT (swapglobals:
#: one PE per process, on a toolchain it supports)
CONFIGS = {
    "none": dict(method="none"),
    "pieglobals": dict(method="pieglobals"),
    "tlsglobals-O0": dict(method="tlsglobals", optimize=0),
    "tlsglobals-O2": dict(method="tlsglobals", optimize=2),
    "swapglobals": dict(method="swapglobals", machine="legacy-linux-old-ld",
                        layout=(1, 4, 1)),
}

#: the six in-tree apps, small (jacobi3d with its inner-loop globals
#: tagged thread_local, so every config has TLS routes)
APPS = {
    "jacobi3d": ({"n": 12, "iters": 4, "reduce_every": 2, "tag_tls": True},
                 8, (1, 2, 2)),
    "adcirc": ({"height": 32, "width": 16, "steps": 6, "lb_period": 3},
               8, (1, 1, 4)),
    "memhog": ({"heap_mb": 2, "chunk_mb": 1, "code_bytes": 64 * 1024},
               4, (1, 2, 1)),
    "startup": ({"code_bytes": 64 * 1024}, 8, (1, 2, 2)),
    "pingpong": ({"yields_per_rank": 20}, 8, (1, 1, 2)),
    "hello": ({}, 4, (1, 1, 2)),
}


def outcome(classes: dict[str, type] | None, make_job: Callable[[], Any]) -> tuple:
    """Timeline digest, counters, makespan and exit values of the job
    ``make_job`` builds, run with ``classes`` swapped in (None: the
    tree's own); a failed run is its exception's type and text, with
    the counters it had reached."""
    job = make_job()
    with facade(classes) if classes else nullcontext():
        try:
            result = job.run()
        except ReproError as e:
            return type(e), str(e), job.counters.snapshot()
    return (timeline_sha(job.scheduler.timeline), result.counters.snapshot(),
            result.makespan_ns, result.exit_values)


def app_job(app: str, config: str) -> Callable[[], Any]:
    cfg, nvp, layout = APPS[app]
    kw = dict(CONFIGS[config])
    kw.setdefault("layout", layout)
    return lambda: build_job(JobSpec(app=app, nvp=nvp, app_config=cfg,
                                     slot_size=1 << 26, **kw))


def rounds_source(program) -> Any:
    """A generated point-to-point program, called through ``ctx.call``
    from a ``main`` that keeps a TLS-tagged counter of what it got."""
    body = next(f.fn for f in build_rounds(program).functions
                if f.name == "main")
    p = Program("p2p_rounds_called")
    p.add_global("pad", 0)
    p.add_global("seen", 0, tls=True)
    p.add_function(body, name="rounds")

    @p.function()
    def main(ctx):
        ctx.g.seen = ctx.vp
        got = yield from ctx.call("rounds")
        ctx.g.seen = ctx.g.seen + len(got)
        return got, ctx.g.seen

    return p.build()


def rounds_job(program, config: str) -> Callable[[], Any]:
    kw = dict(CONFIGS[config])
    layout = JobLayout(*kw.pop("layout", (1, 2, 2)))
    machine = get_machine(kw.pop("machine", "generic-linux"))
    source = rounds_source(program)
    return lambda: AmpiJob(source, program[0], machine=machine, layout=layout,
                           slot_size=1 << 26, **kw)


class TestAgainstReference:
    """The direct calls and the verbatim previous facade: one history."""

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("app", APPS)
    def test_in_tree_apps(self, app, config):
        make = app_job(app, config)
        mine = outcome(None, make)
        assert len(mine) == 4, mine      # every app runs under every config
        assert mine == outcome(REFERENCE, make)

    @settings(max_examples=40, deadline=None)
    @given(programs(), st.sampled_from(sorted(CONFIGS)))
    def test_generated_p2p_programs(self, program, config):
        make = rounds_job(program, config)
        mine = outcome(None, make)
        assert len(mine) == 4, mine
        assert mine == outcome(REFERENCE, make)

    def test_the_reference_is_what_start_builds(self):
        make = app_job("hello", "pieglobals")
        job = make()
        with facade(REFERENCE):
            job.start()
        try:
            ctx = job.rank_of(0).ctx
            assert type(ctx) is ReferenceExecutionContext
            assert type(ctx.view) is ReferenceGlobalsView
            assert type(ctx.mpi) is ReferenceMpiHandle and ctx.mpi.via_shim
        finally:
            job.scheduler.shutdown()


# -- misuse: the same exception, with the same text, on both sides ------------------------


def misuse(body: Callable, *, drop_entry: str = "") -> Callable[[], Any]:
    """A two-rank job whose ``main`` is ``body``; ``drop_entry`` is taken
    out of the calltable after start-up."""
    p = Program("misuse")
    p.add_global("x", 0)
    p.add_global("limit", 4, const=True)
    p.add_function(body, name="main")

    @p.function()
    def helper(ctx):
        return ctx.vp

    source = p.build()

    def make():
        job = AmpiJob(source, 2, method="pieglobals", machine=TEST_MACHINE,
                      slot_size=1 << 24)
        if drop_entry:
            start = job.start

            def start_then_drop():
                start()
                job.rank_of(0).ctx.mpi._calltable.pop(drop_entry)
            job.start = start_then_drop
        return job

    return make


def forgot_yield_from(ctx):
    mpi = ctx.mpi
    mpi.barrier()                   # missing 'yield from'
    ctx.g.x = mpi.rank()            # a non-blocking call catches it
    yield from mpi.barrier()


def sends_without_isend(ctx):
    ctx.mpi.isend(1, dest=1 - ctx.mpi.rank())
    yield from ctx.mpi.barrier()


def reads_a_ghost(ctx):
    yield from ctx.mpi.barrier()
    return ctx.g.ghost


def writes_a_const(ctx):
    ctx.g.limit = ctx.call("helper")
    yield from ctx.mpi.barrier()


def calls_nothing(ctx):
    yield from ctx.mpi.barrier()
    return ctx.call("nope")


MISUSES = {
    "forgotten-yield-from": (misuse(forgot_yield_from), MpiError,
                             "MPI_barrier was called but not delegated to"),
    "missing-entry": (misuse(sends_without_isend, drop_entry="isend"),
                      MpiError, "'isend' missing from the calltable"),
    "undeclared-global": (misuse(reads_a_ghost), SegFault,
                          "undeclared global 'ghost'"),
    "const-write": (misuse(writes_a_const), SegFault, "limit"),
    "unknown-function": (misuse(calls_nothing), SegFault,
                         "unknown function 'nope'"),
}


@pytest.mark.parametrize("case", MISUSES)
def test_misuse_fails_the_same_way(case):
    make, exc_type, text = MISUSES[case]
    mine = outcome(None, make)
    assert issubclass(mine[0], exc_type) and text in mine[1], mine
    assert mine == outcome(REFERENCE, make)


# -- teeth -------------------------------------------------------------------------------------


def caught(mutant: dict[str, type]) -> Any:
    """The first case — misuse, app config or generated program — on
    which ``mutant`` and the reference disagree."""
    for make, _, _ in MISUSES.values():
        if outcome(mutant, make) != outcome(REFERENCE, make):
            return make
    for app in APPS:
        for config in CONFIGS:
            make = app_job(app, config)
            if outcome(mutant, make) != outcome(REFERENCE, make):
                return app, config
    return find(st.tuples(programs(), st.sampled_from(sorted(CONFIGS))),
                lambda c: outcome(mutant, rounds_job(*c))
                != outcome(REFERENCE, rounds_job(*c)),
                settings=settings(max_examples=100, derandomize=True,
                                  database=None, phases=[Phase.generate]))


class TestTheOracleHasTeeth:
    def test_an_unchecked_non_blocking_entry_is_caught(self):
        assert caught({"MpiHandle": UncheckedEntry})

    def test_the_tls_extra_at_o2_is_caught(self):
        # jacobi3d's tagged globals route through TLS under every method
        assert caught({"GlobalsView": TlsExtraAtO2}) == ("jacobi3d", "none")
