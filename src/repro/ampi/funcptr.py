"""The AMPI function-pointer shim (paper Figure 4).

PIP/FS/PIEglobals duplicate the *application's* code per rank — but the
AMPI runtime itself must stay a single instance per OS process.  The
trick: the app is linked not against MPI functions but against a shim of
**function pointers** (one data-segment slot per MPI entry point).  At
startup, the loader utility ``dlsym``s ``AMPI_FuncPtr_Unpack`` inside each
privatized copy and hands it a transport struct of pointers into the one
runtime; the shim stores them in its (per-copy) globals.

This module builds the shim compile unit that gets linked into the user
binary, and the transport from a runtime instance.  Tests assert the
defining property: every rank's shim slots hold pointers to the *same*
runtime object even though the slots themselves are privatized.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.elf.linker import CompileUnit
from repro.mem.segments import FuncDef, VarDef
from repro.privatization._util import SHIM_PREFIX


class EntryPoint:
    """One MPI entry point: the single statement of the API surface.

    The shim's slots, the transport, :class:`~repro.ampi.api.MpiHandle`
    (held equal by test) and the analyzer's operation classes
    (:mod:`repro.analyze.model`) are all read off :data:`ENTRY_POINTS`.
    """

    __slots__ = ("name", "slot", "collective", "sync", "blocking", "role",
                 "result")

    def __init__(self, name: str, slot: str | None = "", *,
                 collective: str | None = None, sync: bool = False,
                 blocking: bool = False, role: str = "", result: str = ""):
        #: the :class:`~repro.ampi.api.MpiHandle` method (or property)
        self.name = name
        #: its shim slot — the handle's name unless given; None for an
        #: entry point the handle answers itself, without the runtime
        self.slot = name if slot == "" else slot
        #: the :meth:`CollectiveEngine.enter` kind, when entering the
        #: rendezvous is its whole implementation
        self.collective = collective
        #: must every rank of the communicator enter it?
        self.sync = sync or collective is not None
        #: can it suspend the caller?  Then its transport entry is a
        #: generator function, to be delegated to with ``yield from``
        self.blocking = blocking or self.sync
        #: "send", "recv", "wait" or "" — its point-to-point role
        self.role = role
        #: "rank" (the caller's identity), "uniform" (the same on every
        #: rank whatever the arguments) or "" (neither)
        self.result = result


_E = EntryPoint
#: The AMPI API surface, in shim-slot order.
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    _E("init"),
    _E("initialized"),
    _E("finalize", sync=True),
    _E("rank", result="rank"),
    _E("size", result="uniform"),
    _E("send", role="send"),
    _E("recv", blocking=True, role="recv"),
    _E("sendrecv", blocking=True),
    _E("isend", role="send"),
    _E("irecv", role="recv"),
    _E("wait", blocking=True, role="wait"),
    _E("test", role="wait"),
    _E("waitall", blocking=True, role="wait"),
    _E("waitany", blocking=True, role="wait"),
    _E("testall", role="wait"),
    _E("probe", blocking=True),
    _E("iprobe"),
    _E("barrier", collective="barrier"),
    _E("bcast", collective="bcast", result="uniform"),
    _E("reduce", collective="reduce"),
    _E("allreduce", collective="allreduce", result="uniform"),
    _E("gather", collective="gather"),
    _E("allgather", collective="allgather", result="uniform"),
    _E("scatter", collective="scatter"),
    _E("alltoall", collective="alltoall"),
    _E("scan", collective="scan"),
    _E("exscan", collective="exscan"),
    _E("reduce_scatter", collective="reduce_scatter"),
    _E("op_create"),
    _E("comm_dup", collective="comm_dup"),
    _E("comm_split", collective="comm_split"),
    _E("world", "comm_world"),
    _E("migrate", collective="lb_sync"),
    _E("migrate_to", blocking=True),
    _E("resize", sync=True),
    _E("num_pes", result="uniform"),
    _E("checkpoint", collective="checkpoint"),
    _E("yield_", "yield", blocking=True),
    _E("wtime", result="uniform"),
    _E("abort"),
    _E("my_pe", None, result="rank"),
)
del _E

#: The shim's slot names (what the calltable is keyed by).
AMPI_API_NAMES: tuple[str, ...] = tuple(
    e.slot for e in ENTRY_POINTS if e.slot is not None)


def _unpack_body(loader_ctx: Any) -> None:
    """Placeholder body for ``AMPI_FuncPtr_Unpack``.

    The simulated loader utility performs the unpacking directly (see
    :func:`repro.privatization._util.unpack_funcptr_shim`); the symbol
    exists so dlsym can find it, exactly as Figure 4's refactored headers
    arrange.
    """


def shim_compile_unit() -> CompileUnit:
    """The translation unit ``ampi_funcptr_shim.C`` contributes."""
    variables = [
        VarDef(SHIM_PREFIX + name, init=0, write_once_same=True)
        for name in AMPI_API_NAMES
    ]
    return CompileUnit(
        name="ampi_funcptr_shim",
        functions=[FuncDef("AMPI_FuncPtr_Unpack", 192, _unpack_body)],
        variables=variables,
    )


def pack_transport(runtime: Any) -> dict[str, Callable]:
    """``AMPI_FuncPtr_Pack``: gather the runtime's API entry points.

    Returns slot name -> callable on the *single* runtime instance, each
    taking the acting rank first: the one collective entry with its kind
    bound where the table names one, a bound ``_api_<name>`` otherwise.
    """
    enter = runtime.collectives.enter
    return {
        e.slot: (partial(enter, e.collective) if e.collective is not None
                 else getattr(runtime, "_api_" + e.name))
        for e in ENTRY_POINTS if e.slot is not None
    }
