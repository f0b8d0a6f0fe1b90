"""TLSglobals: thread-local-storage segment switching.

The user tags mutable globals/statics ``thread_local`` (``__thread`` in
C, OpenMP ``threadprivate`` in Fortran); each rank gets its own TLS
segment copy and the runtime swaps the TLS segment pointer at every ULT
context switch.

Reproduced properties:

* automation is *Mediocre* — any unsafe variable the user forgot to tag
  stays shared and silently produces wrong results (the wiring routes it
  to the shared instance, and the capability probes catch it);
* requires GCC or Clang >= 10 for ``-mno-tls-direct-seg-refs``;
* adds ~10 ns of TLS-pointer work per context switch (Figure 6);
* per-access indirection exists at ``-O0`` but is optimized away at
  ``-O2`` (Figure 7);
* migration works: TLS copies live in the rank's Isomalloc slot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import UnsupportedToolchain
from repro.machine import MachineModel, Os
from repro.mem.address_space import MapKind
from repro.privatization.base import (
    Capabilities,
    PrivatizationMethod,
    RankWiring,
    SetupEnv,
)
from repro.privatization._util import (
    clone_instance_private,
    routes_for,
)
from repro.program.binary import Binary
from repro.program.compiler import CompileOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import JobLayout
    from repro.charm.vrank import VirtualRank


class TlsGlobals(PrivatizationMethod):
    name = "tlsglobals"
    cost_rank = 2
    capabilities = Capabilities(
        method="TLSglobals",
        automation="Mediocre",
        portability="Compiler-specific",
        smp_support="Yes",
        migration="Yes",
    )

    def privatizes_var(self, var) -> bool:
        return var.tls

    def compile_options(self, base: CompileOptions,
                        machine: MachineModel) -> CompileOptions:
        return base.with_(tls_seg_refs=True)

    def check_supported(self, machine: MachineModel,
                        layout: "JobLayout") -> None:
        if not machine.toolchain.supports_tls_seg_refs_flag:
            raise UnsupportedToolchain(
                "TLSglobals needs GCC or Clang >= 10 "
                "(-mno-tls-direct-seg-refs); this toolchain is "
                f"{machine.toolchain.compiler}"
            )
        if machine.os not in (Os.LINUX, Os.MACOS):
            raise UnsupportedToolchain(
                f"TLSglobals is implemented on Linux and macOS, not "
                f"{machine.os.value}"
            )

    def context_switch_extra_ns(self, costs) -> int:
        return costs.tls_segment_switch_ns

    def untagged_unsafe_vars(self, binary: Binary) -> list[str]:
        """Mutable globals/statics the user failed to tag (still shared)."""
        return [v.name for v in binary.image.data.vars.values() if v.unsafe]

    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        lm = env.loader.dlopen(binary.image)
        tls_initial = binary.image.tls.instantiate(lm.rodata.end)

        wirings: dict[int, RankWiring] = {}
        for rank in ranks:
            tls_priv, _ = clone_instance_private(
                env, rank, tls_initial, MapKind.TLS, f"tls:seg[{rank.vp}]"
            )
            # Untagged variables still resolve to the shared data copy —
            # the tagging gap.
            wirings[rank.vp] = RankWiring(
                routes=routes_for(lm.data, lm.rodata, tls_priv),
                code=lm.code, tls_instance=tls_priv)
        return wirings
