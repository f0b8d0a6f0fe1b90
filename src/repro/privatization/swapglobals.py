"""Swapglobals: runtime ELF Global Offset Table switching.

Each rank gets a private copy of every GOT-addressed global variable and
a private GOT whose entries point at those copies; the scheduler swaps
the process's *active GOT* at each context switch.  Documented holes,
all reproduced here:

* **static variables** are local symbols with no GOT entries — they stay
  shared (wrong results if mutable);
* needs **ld <= 2.23 or a patched linker**, otherwise the GOT reference
  at each access is optimized away (enforced at link time);
* **no SMP mode**: only one GOT can be active per OS process, so multiple
  concurrent scheduler threads are impossible;
* x86 + ELF only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SmpUnsupportedError, UnsupportedToolchain
from repro.machine import Arch, MachineModel, Os
from repro.mem.address_space import MapKind
from repro.mem.segments import SegmentImage, SegmentKind
from repro.privatization.base import (
    Capabilities,
    PrivatizationMethod,
    RankWiring,
    SetupEnv,
)
from repro.privatization._util import routes_for
from repro.program.binary import Binary
from repro.program.compiler import CompileOptions
from repro.program.context import AccessKind, AccessRoute

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import JobLayout
    from repro.charm.vrank import VirtualRank


class Swapglobals(PrivatizationMethod):
    name = "swapglobals"
    cost_rank = 1
    capabilities = Capabilities(
        method="Swapglobals",
        automation="No static vars",
        portability="Linker-specific",
        smp_support="No",
        migration="Yes",
    )
    toolchain_preset = "legacy-linux-old-ld"   # ld <= 2.23 keeps GOT refs
    smp_capable = False

    def privatizes_var(self, var) -> bool:
        # Only GOT-addressed symbols: global, non-TLS, mutable data.
        return var.unsafe and not var.static and not var.tls

    def compile_options(self, base: CompileOptions,
                        machine: MachineModel) -> CompileOptions:
        return base.with_(swapglobals=True)

    def check_supported(self, machine: MachineModel,
                        layout: "JobLayout") -> None:
        if machine.arch is not Arch.X86_64:
            raise UnsupportedToolchain(
                f"swapglobals only works on x86 ELF systems, not "
                f"{machine.arch.value}"
            )
        if machine.os is not Os.LINUX:
            raise UnsupportedToolchain("swapglobals requires an ELF OS")
        if not machine.toolchain.linker_keeps_got_refs:
            raise UnsupportedToolchain(
                "swapglobals needs ld <= 2.23 or a patched newer ld"
            )
        if layout.smp_mode:
            raise SmpUnsupportedError(
                "swapglobals cannot run in SMP mode: only one GOT can be "
                "active per OS process, but SMP mode runs multiple "
                "user-level schedulers per process"
            )

    def context_switch_extra_ns(self, costs) -> int:
        return costs.got_swap_ns

    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        lm = env.loader.dlopen(binary.image)
        tls_shared = binary.image.tls.instantiate(lm.rodata.end)

        # Layout of the per-rank privatized storage: only GOT-covered vars.
        got_var_names = [s.symbol for s in binary.image.got if not s.is_func]
        got_vars = [binary.image.data.vars[n] for n in got_var_names]
        priv_image = SegmentImage(SegmentKind.DATA, got_vars)

        wirings: dict[int, RankWiring] = {}
        clk = env.process.startup_clock
        for rank in ranks:
            mapping = env.process.isomalloc.alloc(
                rank.vp, max(priv_image.size, 8), MapKind.DATA,
                tag=f"swap:data[{rank.vp}]",
            )
            priv = priv_image.instantiate(mapping.start)
            for name in got_var_names:
                priv.values[name] = lm.data.read(name)
            mapping.payload = priv
            clk.advance(env.costs.isomalloc_alloc_ns)
            clk.advance(env.costs.memcpy_ns(priv_image.size))

            # Clone + repoint the rank's GOT.
            got = lm.got.clone()
            for name in got_var_names:
                got.resolve(name, priv.addr_of(name))
            clk.advance(env.costs.reloc_ns_per_entry * len(got.template))
            rank.method_data["got"] = got

            # statics are NOT in the GOT -> still the shared copy (bug!);
            # globals take one GOT hop to the rank-private copy
            routes = routes_for(lm.data, lm.rodata, tls_shared)
            routes.update(dict.fromkeys(
                got_var_names, AccessRoute(priv, AccessKind.GOT)))

            wirings[rank.vp] = RankWiring(routes=routes, code=lm.code)
        return wirings
