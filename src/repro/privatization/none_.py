"""Baseline: no privatization.

Every rank in a process shares one copy of all globals/statics/TLS.
This is the configuration that produces the Figure 2/3 bug ("rank: 1"
printed twice), and the performance baseline every method is compared
against in Figures 5-7.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.privatization.base import (
    Capabilities,
    PrivatizationMethod,
    RankWiring,
    SetupEnv,
)
from repro.privatization._util import routes_for
from repro.program.binary import Binary

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.vrank import VirtualRank


class NoPrivatization(PrivatizationMethod):
    name = "none"
    cost_rank = 0
    capabilities = Capabilities(
        method="none (baseline)",
        automation="n/a",
        portability="Good",
    )

    def privatizes_var(self, var) -> bool:
        return False

    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        lm = env.loader.dlopen(binary.image)
        tls_shared = binary.image.tls.instantiate(lm.rodata.end)
        wirings: dict[int, RankWiring] = {}
        for rank in ranks:
            routes = routes_for(lm.data, lm.rodata, tls_shared)
            wirings[rank.vp] = RankWiring(
                routes=routes, code=lm.code, tls_instance=None
            )
        return wirings
