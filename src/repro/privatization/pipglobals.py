"""PIPglobals: dlmopen link-map namespaces, one per virtual rank.

The program is built as a PIE and linked against the AMPI function-
pointer shim.  At startup a loader utility calls glibc's ``dlmopen`` with
a fresh namespace per rank, duplicating the PIE's code and data segments;
``dlsym`` finds ``AMPI_FuncPtr_Unpack`` in each namespace and hands it the
runtime's API pointers, then the entry point is called.  Globals *and*
statics appear privatized with zero context-switch or per-access cost.

Reproduced limitations:

* ~12 namespaces per process on stock glibc
  (:class:`~repro.errors.NamespaceLimitError`), which particularly hurts
  SMP mode; PIP's patched glibc lifts it (``BRIDGES2_PATCHED_GLIBC``);
* GNU/Linux only (``dlmopen`` is not POSIX);
* **no migration**: the segments were mapped by ``ld-linux.so``'s internal
  mmap, which Isomalloc cannot intercept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import UnsupportedToolchain
from repro.machine import MachineModel, Os
from repro.privatization.base import (
    Capabilities,
    PrivatizationMethod,
    RankWiring,
    SetupEnv,
)
from repro.privatization._util import routes_for, unpack_funcptr_shim
from repro.program.binary import Binary

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import JobLayout
    from repro.charm.vrank import VirtualRank


class PipGlobals(PrivatizationMethod):
    name = "pipglobals"
    cost_rank = 4
    capabilities = Capabilities(
        method="PIPglobals",
        automation="Good",
        portability="Requires GNU libc extension",
    )
    supports_migration = False
    migration_blocker = (
        "cannot intercept the mmap calls made inside ld-linux.so during "
        "dlmopen, so the per-rank code/data segments are not in Isomalloc"
    )
    uses_funcptr_shim = True

    def check_supported(self, machine: MachineModel,
                        layout: "JobLayout") -> None:
        if machine.os is not Os.LINUX or not machine.toolchain.has_dlmopen:
            raise UnsupportedToolchain(
                "PIPglobals requires glibc's dlmopen (GNU/Linux only)"
            )

    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        wirings: dict[int, RankWiring] = {}
        for rank in ranks:
            # One dlmopen per rank; raises NamespaceLimitError past the
            # glibc cap.  The loader charges the start-up clock.
            lm = env.loader.dlmopen(binary.image)
            rank.method_data["linkmap"] = lm
            # Mark the loader-mapped segments as logically belonging to
            # this rank: exactly the mappings migration will choke on.
            for m in lm.mappings:
                m.owner_rank = rank.vp

            calltable = unpack_funcptr_shim(lm.data, env)

            tls_priv = binary.image.tls.instantiate(lm.rodata.end)
            wirings[rank.vp] = RankWiring(
                routes=routes_for(lm.data, lm.rodata, tls_priv),
                code=lm.code, tls_instance=tls_priv,
                shim_calltable=calltable,
            )
        return wirings
