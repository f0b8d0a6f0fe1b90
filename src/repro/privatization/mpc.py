"""-fmpc-privatize: compiler-automated TLS variable tagging (MPC).

The compiler treats *every* unsafe global/static as if it were declared
``thread_local`` — full automation, same runtime behaviour as TLSglobals.
Costs: requires the Intel compiler or a patched GCC, requires recompiling
every dependent library from source, and rank migration was never
implemented for MPC (the paper's Table rates it "Not implemented, but
possible").

MPC additionally supports **hierarchical local storage** (HLS,
Section 2.3.5): variables annotated with a coarser level share one copy
per node, or per process/core group, instead of one per ULT — trading
privacy granularity for memory footprint.  Honoured here via
``VarDef.hls_level``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import UnsupportedToolchain
from repro.machine import MachineModel
from repro.mem.address_space import MapKind
from repro.mem.segments import SegmentImage, SegmentKind
from repro.privatization.base import Capabilities, RankWiring, SetupEnv
from repro.privatization.tlsglobals import TlsGlobals
from repro.privatization._util import (
    clone_instance_private,
    routes_for,
)
from repro.program.binary import Binary
from repro.program.compiler import CompileOptions
from repro.program.context import AccessKind, AccessRoute

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import JobLayout
    from repro.charm.vrank import VirtualRank


class MpcPrivatize(TlsGlobals):
    name = "mpc"
    cost_rank = 3
    capabilities = Capabilities(
        method="-fmpc-privatize",
        automation="Good",
        portability="Compiler-specific",
        smp_support="Yes",
        migration="Not implemented, but possible",
    )
    supports_migration = False
    migration_blocker = (
        "MPC's -fmpc-privatize has no rank-migration implementation "
        "(possible in principle, never built)"
    )
    migration_possible = True
    toolchain_preset = "stampede2-icx"   # -fmpc-privatize support

    def privatizes_var(self, var) -> bool:
        # The compiler pass tags everything unsafe, statics included.
        return var.unsafe

    def compile_options(self, base: CompileOptions,
                        machine: MachineModel) -> CompileOptions:
        return base.with_(fmpc_privatize=True)

    def check_supported(self, machine: MachineModel,
                        layout: "JobLayout") -> None:
        if not machine.toolchain.mpc_privatize_support:
            raise UnsupportedToolchain(
                "-fmpc-privatize needs the Intel compiler or a patched GCC"
            )
        # Note: deliberately NOT calling the TLSglobals check — MPC's
        # codegen does not rely on -mno-tls-direct-seg-refs.

    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        tls_vars = list(binary.image.tls.vars.values())
        if all(v.hls_level == "rank" for v in tls_vars):
            return super().setup_process(env, binary, ranks)
        return self._setup_with_hls(env, binary, ranks, tls_vars)

    def _setup_with_hls(self, env: SetupEnv, binary: Binary,
                        ranks: list["VirtualRank"], tls_vars
                        ) -> dict[int, RankWiring]:
        """Wire each HLS level to its own storage granularity."""
        lm = env.loader.dlopen(binary.image)
        by_level = {
            level: SegmentImage(
                SegmentKind.TLS,
                [v for v in tls_vars if v.hls_level == level],
            )
            for level in ("rank", "process", "node")
        }
        # One copy per process / per node, created lazily per process.
        proc_inst = by_level["process"].instantiate(0x7E00_0000)
        node_key = f"hls_node_{env.process.node.index}"
        node_inst = self._node_instances.setdefault(
            node_key, by_level["node"].instantiate(0x7E10_0000)
        )
        env.process.startup_clock.advance(
            env.costs.memcpy_ns(by_level["process"].size
                                + by_level["node"].size)
        )

        wirings: dict[int, RankWiring] = {}
        for rank in ranks:
            rank_inst, _ = clone_instance_private(
                env, rank, by_level["rank"].instantiate(0),
                MapKind.TLS, f"mpc-hls:rank[{rank.vp}]",
            )
            routes = routes_for(lm.data, lm.rodata)
            by_hls = {
                level: AccessRoute(inst, AccessKind.TLS)
                for level, inst in (("rank", rank_inst),
                                    ("process", proc_inst),
                                    ("node", node_inst))
            }
            for v in tls_vars:
                routes[v.name] = by_hls[v.hls_level]
            wirings[rank.vp] = RankWiring(routes=routes, code=lm.code,
                                          tls_instance=rank_inst)
        return wirings

    def __init__(self):
        self._node_instances: dict[str, object] = {}

    def hls_footprint_bytes(self, binary: Binary, ranks_per_process: int,
                            processes_per_node: int = 1) -> int:
        """Predicted per-node TLS storage under the HLS levels."""
        per_rank = sum(v.size for v in binary.image.tls.vars.values()
                       if v.hls_level == "rank")
        per_proc = sum(v.size for v in binary.image.tls.vars.values()
                       if v.hls_level == "process")
        per_node = sum(v.size for v in binary.image.tls.vars.values()
                       if v.hls_level == "node")
        return (per_rank * ranks_per_process * processes_per_node
                + per_proc * processes_per_node + per_node)
