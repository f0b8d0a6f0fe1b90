"""Shared helpers for privatization method implementations."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mem.address_space import MapKind, Mapping
from repro.mem.segments import SegmentInstance
from repro.privatization.base import SetupEnv
from repro.program.context import AccessKind, AccessRoute

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.vrank import VirtualRank

#: data-segment variables the AMPI function-pointer shim injects
SHIM_PREFIX = "__ampi_fp_"


def clone_instance_private(
    env: SetupEnv,
    rank: "VirtualRank",
    src: SegmentInstance,
    kind: MapKind,
    tag: str,
) -> tuple[SegmentInstance, Mapping]:
    """Give ``rank`` a private, Isomalloc-backed copy of a segment.

    The copy inherits the *current* values of ``src`` (i.e. after static
    constructors ran), is placed inside the rank's Isomalloc slot (hence
    migratable), and its creation cost (allocation + memcpy) is charged to
    the process startup clock.
    """
    mapping = env.process.isomalloc.alloc(
        rank.vp, max(src.image.size, 8), kind, tag=tag
    )
    inst = src.clone_at(mapping.start)
    mapping.payload = inst
    clk = env.process.startup_clock
    t0 = clk.now
    clk.advance(env.costs.isomalloc_alloc_ns)
    clk.advance(env.costs.memcpy_ns(src.image.size))
    if env.trace is not None:
        env.trace.span(
            f"clone:{kind.value}", "priv", t0, clk.now - t0,
            pid=env.trace_pid, tid=rank.vp,
            args={"nbytes": src.image.size, "tag": tag},
        )
    return inst, mapping


def routes_for(
    data: SegmentInstance,
    rodata: SegmentInstance,
    tls: SegmentInstance | None = None,
    *,
    tls_kind: AccessKind = AccessKind.TLS,
) -> dict[str, AccessRoute]:
    """A rank's routing table: every name of each instance's image
    resolves to that instance (data and rodata directly, TLS by
    ``tls_kind``).

    A rank has at most three distinct routes however many names it has
    (the function-pointer shim alone adds ~40 data slots), so one
    immutable :class:`AccessRoute` is built per instance and shared by
    its names.
    """
    routes: dict[str, AccessRoute] = {}
    for inst, kind in ((data, AccessKind.DIRECT), (rodata, AccessKind.DIRECT),
                       (tls, tls_kind)):
        if inst is not None:
            routes.update(dict.fromkeys(inst.image.vars,
                                        AccessRoute(inst, kind)))
    return routes


def unpack_funcptr_shim(
    data_instance: SegmentInstance, env: SetupEnv
) -> dict[str, object] | None:
    """Populate the shim's function-pointer slots in one data instance.

    Models ``AMPI_FuncPtr_Unpack`` (Figure 4): the loader utility passes a
    transport struct of pointers into the single runtime; the shim stores
    them in its per-instance globals.  Returns the resulting calltable, or
    None when the binary was not built with the shim.

    Which slots exist, that each may be written and what goes in it are
    the same for every instance of an image under one transport: worked
    out at the process's first unpack (``env.shim_plan``), stored into
    each instance in one ``update``, one calltable for all its ranks.
    """
    transport = env.funcptr_transport
    if transport is None:
        return None
    plan = env.shim_plan
    if (plan is None or plan[0] is not data_instance.image
            or plan[1] is not transport):
        stores: dict[str, object] = {}
        calltable: dict[str, object] = {}
        for api_name, fn in transport.items():
            slot = SHIM_PREFIX + api_name
            if slot in data_instance.image:
                data_instance.check_writable(slot)
                stores[slot] = calltable[api_name] = fn
        plan = env.shim_plan = (
            data_instance.image, transport, stores, calltable)
    _, _, stores, calltable = plan
    if not stores:
        return None
    data_instance.values.update(stores)
    clk = env.process.startup_clock
    t0 = clk.now
    clk.advance(env.costs.dlsym_ns * 2)
    if env.trace is not None:
        env.trace.span(
            "shim:AMPI_FuncPtr_Unpack", "priv", t0, clk.now - t0,
            pid=env.trace_pid, args={"entries": len(calltable)},
        )
    return calltable
