"""FSglobals: per-rank binary copies on a shared filesystem + dlopen.

Same idea as PIPglobals, but instead of relocating code in memory with
``dlmopen`` namespaces, the PIE binary is *copied on the shared
filesystem* once per virtual rank and each copy is opened with plain
POSIX ``dlopen`` (distinct paths -> distinct link maps -> distinct
segments).

Trade-offs reproduced:

* portable beyond glibc, and no namespace limit — full SMP support;
* startup does per-rank filesystem I/O contended across the whole job,
  so it *grows with node count* (the one method in Figure 5 that does);
* shared objects are unsupported (each dependency would need per-rank
  copies and per-rank search paths);
* **no migration**, for the same loader-mmap reason as PIPglobals.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

from repro.errors import PrivatizationError, UnsupportedToolchain
from repro.privatization.base import (
    Capabilities,
    PrivatizationMethod,
    RankWiring,
    SetupEnv,
)
from repro.privatization._util import routes_for, unpack_funcptr_shim
from repro.machine import MachineModel
from repro.program.binary import Binary

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import JobLayout
    from repro.charm.vrank import VirtualRank


class FsGlobals(PrivatizationMethod):
    name = "fsglobals"
    cost_rank = 5
    capabilities = Capabilities(
        method="FSglobals",
        automation="Good",
        portability="Shared file system needed",
    )
    supports_migration = False
    migration_blocker = (
        "cannot intercept the mmap calls made by the system dlopen, so "
        "per-rank code/data segments are not in Isomalloc"
    )
    uses_funcptr_shim = True

    def check_supported(self, machine: MachineModel,
                        layout: "JobLayout") -> None:
        if not machine.has_shared_fs:
            raise UnsupportedToolchain(
                "FSglobals needs a shared filesystem visible to all nodes"
            )

    def validate_binary(self, binary: Binary) -> None:
        super().validate_binary(binary)
        if binary.image.needed:
            raise PrivatizationError(
                "FSglobals does not support shared-object dependencies "
                f"(binary needs: {', '.join(binary.image.needed)}); each "
                "dependency would require per-rank copies and per-rank "
                "search paths"
            )

    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        if env.sharedfs is None:
            raise PrivatizationError("FSglobals requires a SharedFileSystem")
        fs = env.sharedfs
        clk = env.process.startup_clock
        original = f"{env.job_tag}/{binary.name}"
        if not fs.exists(original):
            fs.write_file(original, binary.image.file_size, clk,
                          env.concurrent_procs)

        wirings: dict[int, RankWiring] = {}
        for rank in ranks:
            copy_name = f"{original}.vp{rank.vp}"
            fs.copy_file(original, copy_name, clk, env.concurrent_procs)
            # dlopen of a distinct path -> a distinct link map.  Model the
            # path distinction with a renamed (otherwise identical) image.
            per_rank_image = copy.copy(binary.image)
            per_rank_image.name = f"{binary.name}.vp{rank.vp}"
            lm = env.loader.dlopen(per_rank_image)
            rank.method_data["linkmap"] = lm
            rank.method_data["fs_copy"] = copy_name
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
