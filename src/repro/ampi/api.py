"""The MPI facade handed to program functions as ``ctx.mpi``.

Method names follow mpi4py's lowercase object-communication convention
(``send``/``recv``/``bcast``/``reduce``/...).  Every call dispatches
through the rank's *calltable*: for methods built with the function-
pointer shim (PIP/FS/PIEglobals) the table was populated by
``AMPI_FuncPtr_Unpack`` from the rank's privatized shim slots, and points
at the single per-job runtime — calling through it exercises the Figure 4
machinery for real.

An entry point that can block (``blocking`` in
:data:`repro.ampi.funcptr.ENTRY_POINTS`) is a generator function in the
runtime.  A generator-form caller gets that generator to delegate to —
``yield from mpi.wait(req)``; for a plain caller the handle runs it to
completion (:func:`repro.threads.ult.drive`).  One handed out and never
started is a forgotten ``yield from``: the rank's next MPI call, or its
exit, raises instead of silently skipping the operation.
"""

from __future__ import annotations

from inspect import GEN_CREATED, getgeneratorstate
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.ampi.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.ampi.ops import Op, SUM
from repro.ampi.requests import Request, Status
from repro.errors import MpiError
from repro.perf.counters import EV_SHIM_DISPATCH
from repro.threads.ult import drive

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.vrank import VirtualRank


class MpiHandle:
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

    def _entry(self, slot: str) -> Callable:
        """The calltable entry for ``slot``, after what every MPI call
        pays (a ``blocking`` one's result then goes to ``_blocking``)."""
        gen = self._handed
        if gen is not None and gen.gi_frame is not None and not gen.gi_running:
            self._check_delegated()     # neither finished nor running
        self._handed = None
        try:
            fn = self._calltable[slot]
        except KeyError:
            raise MpiError(
                f"MPI entry point {slot!r} missing from the calltable "
                "(shim not unpacked?)"
            ) from None
        if self.via_shim:
            # CounterSet.incr without the call (a count of one is never
            # negative): every MPI call of a shim build passes here
            counts = self._rank.ctx.counters._counts
            counts[EV_SHIM_DISPATCH] = counts.get(EV_SHIM_DISPATCH, 0) + 1
        return fn

    # -- setup / teardown ------------------------------------------------------

    def init(self) -> None:
        """MPI_Init."""
        self._entry("init")(self._rank)

    def initialized(self) -> bool:
        return self._entry("initialized")(self._rank)

    def finalize(self) -> None:
        """MPI_Finalize (synchronizing, like a final barrier)."""
        return self._blocking("MPI_finalize", self._entry("finalize")(self._rank))

    # -- identity -----------------------------------------------------------------

    def rank(self, comm: Communicator | None = None) -> int:
        """MPI_Comm_rank."""
        return self._entry("rank")(self._rank, comm)

    def size(self, comm: Communicator | None = None) -> int:
        """MPI_Comm_size."""
        return self._entry("size")(self._rank, comm)

    @property
    def world(self) -> Communicator:
        return self._entry("comm_world")(self._rank)

    # -- point-to-point ---------------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0,
             comm: Communicator | None = None) -> None:
        """Blocking (eager) send."""
        self._entry("send")(self._rank, payload, dest, tag, comm)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: Communicator | None = None,
             status: Status | None = None) -> Any:
        """Blocking receive; returns the payload."""
        return self._blocking("MPI_recv", self._entry("recv")(
            self._rank, source, tag, comm, status))

    def sendrecv(self, payload: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 comm: Communicator | None = None) -> Any:
        return self._blocking("MPI_sendrecv", self._entry("sendrecv")(
            self._rank, payload, dest, source, sendtag, recvtag, comm))

    def isend(self, payload: Any, dest: int, tag: int = 0,
              comm: Communicator | None = None) -> Request:
        return self._entry("isend")(self._rank, payload, dest, tag, comm)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Communicator | None = None) -> Request:
        return self._entry("irecv")(self._rank, source, tag, comm)

    def wait(self, request: Request) -> Any:
        """Block until the request completes; returns recv payload."""
        return self._blocking("MPI_wait", self._entry("wait")(self._rank, request))

    def test(self, request: Request) -> tuple[bool, Any]:
        return self._entry("test")(self._rank, request)

    def waitall(self, requests: Sequence[Request]) -> list[Any]:
        return self._blocking("MPI_waitall",
                              self._entry("waitall")(self._rank, requests))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Communicator | None = None) -> Status:
        """Blocking probe."""
        return self._blocking("MPI_probe", self._entry("probe")(
            self._rank, source, tag, comm))

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               comm: Communicator | None = None) -> Status | None:
        """Nonblocking probe; None when no matching message is queued."""
        return self._entry("iprobe")(self._rank, source, tag, comm)

    # -- collectives -----------------------------------------------------------------------
    # A collective's transport entry is ``CollectiveEngine.enter`` with
    # its kind bound: ``(rank, comm, contribution, **params)``.

    def barrier(self, comm: Communicator | None = None) -> None:
        return self._blocking("MPI_barrier", self._entry("barrier")(self._rank, comm))

    def bcast(self, value: Any = None, root: int = 0,
              comm: Communicator | None = None) -> Any:
        return self._blocking("MPI_bcast", self._entry("bcast")(
            self._rank, comm, value, root=root))

    def reduce(self, value: Any, op: Op = SUM, root: int = 0,
               comm: Communicator | None = None) -> Any:
        return self._blocking("MPI_reduce", self._entry("reduce")(
            self._rank, comm, value, root=root, op=op))

    def allreduce(self, value: Any, op: Op = SUM,
                  comm: Communicator | None = None) -> Any:
        return self._blocking("MPI_allreduce", self._entry("allreduce")(
            self._rank, comm, value, op=op))

    def gather(self, value: Any, root: int = 0,
               comm: Communicator | None = None) -> list[Any] | None:
        return self._blocking("MPI_gather", self._entry("gather")(
            self._rank, comm, value, root=root))

    def allgather(self, value: Any,
                  comm: Communicator | None = None) -> list[Any]:
        return self._blocking("MPI_allgather", self._entry("allgather")(
            self._rank, comm, value))

    def scatter(self, values: Sequence[Any] | None, root: int = 0,
                comm: Communicator | None = None) -> Any:
        return self._blocking("MPI_scatter", self._entry("scatter")(
            self._rank, comm, values, root=root))

    def alltoall(self, values: Sequence[Any],
                 comm: Communicator | None = None) -> list[Any]:
        return self._blocking("MPI_alltoall", self._entry("alltoall")(
            self._rank, comm, values))

    def scan(self, value: Any, op: Op = SUM,
             comm: Communicator | None = None) -> Any:
        return self._blocking("MPI_scan", self._entry("scan")(
            self._rank, comm, value, op=op))

    def exscan(self, value: Any, op: Op = SUM,
               comm: Communicator | None = None) -> Any:
        """MPI_Exscan: exclusive prefix reduction (rank 0 gets None)."""
        return self._blocking("MPI_exscan", self._entry("exscan")(
            self._rank, comm, value, op=op))

    def reduce_scatter(self, values: Sequence[Any], op: Op = SUM,
                       comm: Communicator | None = None) -> Any:
        """MPI_Reduce_scatter_block: reduce vectors elementwise, rank i
        keeps element i."""
        return self._blocking("MPI_reduce_scatter", self._entry("reduce_scatter")(
            self._rank, comm, values, op=op))

    def waitany(self, requests: Sequence[Request]) -> tuple[int, Any]:
        """MPI_Waitany: (index of the first completion, its payload)."""
        return self._blocking("MPI_waitany",
                              self._entry("waitany")(self._rank, requests))

    def testall(self, requests: Sequence[Request]) -> tuple[bool, list[Any]]:
        return self._entry("testall")(self._rank, requests)

    # -- operators / communicators -------------------------------------------------------------

    def op_create(self, fn_name: str, commute: bool = True) -> Op:
        """MPI_Op_create over a *program function* (by name).

        Under PIEglobals the function's address differs per rank, so the
        op records an offset from this rank's code base (Section 3.3).
        """
        return self._entry("op_create")(self._rank, fn_name, commute)

    def comm_dup(self, comm: Communicator | None = None) -> Communicator:
        return self._blocking("MPI_comm_dup", self._entry("comm_dup")(self._rank, comm))

    def comm_split(self, color: int, key: int = 0,
                   comm: Communicator | None = None) -> Communicator:
        return self._blocking("MPI_comm_split", self._entry("comm_split")(
            self._rank, comm, (color, key)))

    # -- AMPI extensions ------------------------------------------------------------------------

    def migrate(self) -> None:
        """AMPI_Migrate: collective load-balancing sync point."""
        return self._blocking("MPI_migrate", self._entry("migrate")(self._rank))

    def migrate_to(self, pe_index: int) -> None:
        """AMPI_Migrate_to: move this rank to a specific PE."""
        return self._blocking("MPI_migrate_to", self._entry("migrate_to")(
            self._rank, pe_index))

    def yield_(self) -> None:
        """AMPI_Yield: give up the PE to the next ready rank (the
        Figure 6 context-switch microbenchmark primitive)."""
        return self._blocking("MPI_yield", self._entry("yield")(self._rank))

    def resize(self, n_active_pes: int) -> None:
        """AMPI shrink/expand: collectively repack ranks onto the first
        ``n_active_pes`` PEs (or spread back out when growing)."""
        return self._blocking("MPI_resize", self._entry("resize")(
            self._rank, n_active_pes))

    def my_pe(self) -> int:
        """CkMyPe analogue: the PE this rank currently runs on."""
        return self._rank.pe.index

    def num_pes(self) -> int:
        return self._entry("num_pes")(self._rank)

    def checkpoint(self) -> None:
        """Collective in-memory checkpoint of all rank state."""
        return self._blocking("MPI_checkpoint", self._entry("checkpoint")(self._rank))

    # -- misc ---------------------------------------------------------------------------------------

    def wtime(self) -> float:
        """MPI_Wtime in simulated seconds."""
        return self._entry("wtime")(self._rank)

    def abort(self, errorcode: int = 1) -> None:
        self._entry("abort")(self._rank, errorcode)
