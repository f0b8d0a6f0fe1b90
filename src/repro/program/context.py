"""Execution contexts and globals routing.

Every virtual rank executes program functions with an
:class:`ExecutionContext` as the first argument.  Its ``g`` attribute is
the program's view of its own global variables; which *storage* each name
resolves to — one shared copy, a per-rank data-segment copy, a TLS copy —
is decided by the active privatization method, which builds the rank's
:class:`GlobalsView`.  This is the single place where the Figure 2/3
correctness story plays out and where per-access overheads are charged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import GeneratorType
from typing import Any

from repro.errors import ReproError, SegFault
from repro.mem.heap import RankHeap
from repro.mem.segments import CodeInstance, SegmentInstance
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.perf.counters import CounterSet, EV_GLOBAL_READ, EV_GLOBAL_WRITE


class AccessKind(enum.Enum):
    DIRECT = "direct"   #: PC-relative or absolute; no extra indirection
    GOT = "got"         #: one extra hop through the active GOT
    TLS = "tls"         #: through the TLS segment pointer

    # members are singletons: hashing by identity keeps a lookup keyed by
    # kind in C (Enum.__hash__ is a Python call)
    __hash__ = object.__hash__


@dataclass(frozen=True)
class AccessRoute:
    """Where one variable name resolves for one rank."""

    instance: SegmentInstance
    kind: AccessKind = AccessKind.DIRECT


class GlobalsView:
    """Per-rank routing table: variable name -> (segment instance, kind).

    Reads/writes are delegated to the routed segment instance and charged
    to the rank's clock according to the access kind.  At ``-O2`` the TLS
    indirection cost vanishes (the compiler hoists the TLS base), which is
    the paper's Figure 7 observation.
    """

    __slots__ = ("routes", "costs", "clock", "counters", "optimized",
                 "_price")

    def __init__(
        self,
        routes: dict[str, AccessRoute],
        costs: CostModel,
        clock: SimClock,
        counters: CounterSet | None = None,
        optimized: bool = True,
    ):
        self.routes = routes
        self.costs = costs
        self.clock = clock
        self.counters = counters
        self.optimized = optimized
        #: ns of one access by kind (``costs``/``optimized`` never change)
        d = costs.direct_access_ns
        self._price = {AccessKind.DIRECT: d,
                       AccessKind.GOT: d + costs.got_indirect_extra_ns,
                       AccessKind.TLS: d if optimized
                       else d + costs.tls_indirect_extra_ns}
        if min(self._price.values()) < 0:
            raise ValueError("negative global access cost")

    def _route(self, name: str) -> AccessRoute:
        try:
            return self.routes[name]
        except KeyError:
            raise SegFault(0, f"undeclared global {name!r}") from None

    def read(self, name: str) -> Any:
        route = self.routes.get(name) or self._route(name)
        self.clock.now += self._price[route.kind]
        if self.counters is not None:
            counts = self.counters._counts
            counts[EV_GLOBAL_READ] = counts.get(EV_GLOBAL_READ, 0) + 1
        return route.instance.read(name)

    def write(self, name: str, value: Any) -> None:
        route = self.routes.get(name) or self._route(name)
        self.clock.now += self._price[route.kind]
        if self.counters is not None:
            counts = self.counters._counts
            counts[EV_GLOBAL_WRITE] = counts.get(EV_GLOBAL_WRITE, 0) + 1
        route.instance.write(name, value)

    def address_of(self, name: str) -> int:
        return self._route(name).instance.addr_of(name)

    def access_ns(self, name: str) -> int:
        """Cost of one access to ``name`` under the current routing."""
        return self._price[self._route(name).kind]

    def charge_bulk(self, name: str, count: int) -> int:
        """Charge ``count`` accesses to ``name`` in one step.

        This is how kernels model a compiled inner loop touching a
        privatized variable once per element without a Python-level loop;
        the per-access cost (and hence Figure 7's -O0 TLS overhead) is
        identical to ``count`` individual accesses.
        """
        if count < 0:
            raise ValueError("negative access count")
        ns = self._price[self._route(name).kind] * count
        self.clock.advance(ns)
        if self.counters is not None:
            self.counters.incr(EV_GLOBAL_READ, count)
        return ns

    def names(self) -> list[str]:
        return list(self.routes)


class GlobalsProxy:
    """Attribute-style sugar over a :class:`GlobalsView`: ``ctx.g.my_rank``."""

    __slots__ = ("_view",)

    def __init__(self, view: GlobalsView):
        object.__setattr__(self, "_view", view)

    def __getattr__(self, name: str) -> Any:
        return self._view.read(name)    # the _view slot never gets here

    def __setattr__(self, name: str, value: Any) -> None:
        self._view.write(name, value)

    __getitem__ = __getattr__
    __setitem__ = __setattr__


class FetchTracer:
    """Records instruction-fetch spans (address, nbytes) for the icache study."""

    __slots__ = ("spans", "enabled")

    def __init__(self, enabled: bool = True):
        self.spans: list[tuple[int, int]] = []
        self.enabled = enabled

    def record(self, addr: int, nbytes: int) -> None:
        if self.enabled:
            self.spans.append((addr, nbytes))

    def clear(self) -> None:
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)


class ExecutionContext:
    """Everything a program function can touch while running on a rank."""

    __slots__ = ("vp", "view", "code", "clock", "costs", "heap", "counters",
                 "mpi", "tracer", "argv", "g")

    def __init__(
        self,
        *,
        vp: int,
        view: GlobalsView,
        code: CodeInstance,
        clock: SimClock,
        costs: CostModel,
        heap: RankHeap | None = None,
        counters: CounterSet | None = None,
        mpi: Any = None,
        tracer: FetchTracer | None = None,
        argv: tuple[str, ...] = (),
    ):
        self.vp = vp                #: global virtual-rank number
        self.view = view
        self.code = code
        self.clock = clock
        self.costs = costs
        self.heap = heap
        self.counters = counters if counters is not None else CounterSet()
        self.mpi = mpi              #: MPI facade, set by the AMPI runtime
        self.tracer = tracer
        self.argv = argv
        self.g = GlobalsProxy(view)

    # -- code execution ---------------------------------------------------------

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
        result = (fdef.fn or self.code.fn(func_name))(self, *args)  # no body: fault
        if type(result) is GeneratorType and self.mpi is not None:
            return self.mpi._blocking(func_name + "()", result)
        return result

    def call_addr(self, addr: int, *args: Any) -> Any:
        """Indirect call through a function pointer (simulated address)."""
        name, off = self.code.symbol_at(addr)
        if off != 0:
            raise SegFault(addr, "indirect call into the middle of a function")
        return self.call(name, *args)

    def addr_of(self, func_name: str) -> int:
        """&func — in this rank's code segment instance."""
        return self.code.addr_of(func_name)

    # -- compute modelling --------------------------------------------------------

    def compute(self, ns: int | float, *, fetch_span: tuple[int, int] | None = None) -> None:
        """Spend ``ns`` nanoseconds of simulated CPU work."""
        self.clock.advance(ns)
        if self.tracer is not None and fetch_span is not None:
            self.tracer.record(*fetch_span)

    def charge_accesses(self, counts: dict[str, int]) -> int:
        """Charge bulk accesses to several globals (inner-loop modelling)."""
        return sum(self.view.charge_bulk(n, c) for n, c in counts.items())

    # -- heap ------------------------------------------------------------------------

    def malloc(self, nbytes: int, data: Any = None, tag: str = ""):
        if self.heap is None:
            raise ReproError(f"rank {self.vp} has no heap attached")
        self.clock.advance(self.costs.malloc_ns)
        return self.heap.malloc(nbytes, data=data, tag=tag)

    def free(self, addr: int) -> None:
        if self.heap is None:
            raise ReproError(f"rank {self.vp} has no heap attached")
        self.clock.advance(self.costs.malloc_ns)
        self.heap.free(addr)


def make_standalone_context(
    binary: "Binary",  # noqa: F821
    costs: CostModel,
    *,
    vp: int = 0,
    optimized: bool | None = None,
) -> ExecutionContext:
    """A minimal single-rank context with one shared instance of every
    segment — what running the binary as a plain OS process looks like.
    Used by unit tests and by the no-runtime quickstart path.
    """
    from repro.program.context import AccessKind, AccessRoute  # self, for clarity

    image = binary.image
    code = image.code.instantiate(0x40_0000)
    data = image.data.instantiate(0x80_0000)
    rodata = image.rodata.instantiate(0x90_0000)
    tls = image.tls.instantiate(0xA0_0000)
    routes: dict[str, AccessRoute] = {}
    for name in image.data.var_names():
        routes[name] = AccessRoute(data, AccessKind.DIRECT)
    for name in image.rodata.var_names():
        routes[name] = AccessRoute(rodata, AccessKind.DIRECT)
    for name in image.tls.var_names():
        routes[name] = AccessRoute(tls, AccessKind.TLS)
    clock = SimClock()
    opt = optimized if optimized is not None else binary.options.optimize >= 1
    view = GlobalsView(routes, costs, clock, optimized=opt)
    return ExecutionContext(
        vp=vp, view=view, code=code, clock=clock, costs=costs,
        heap=RankHeap(vp),
    )
