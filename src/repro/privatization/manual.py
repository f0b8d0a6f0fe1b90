"""Manual code refactoring and Photran-style source-to-source refactoring.

Both encapsulate all mutable global/static state into a per-rank
structure (allocated on the rank's heap) and route every former-global
access to it.  The semantic result is full privatization with direct
access cost; the difference is *who does the work*:

* **manual** — a human rewrites the code; automation is Poor, and
  :meth:`ManualRefactoring.refactoring_effort` quantifies the burden the
  paper describes (hundreds of variables in legacy codes).
* **photran** — an automated AST refactoring, but only for Fortran.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import PrivatizationError
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
from repro.program.context import AccessKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.vrank import VirtualRank


class ManualRefactoring(PrivatizationMethod):
    name = "manual"
    capabilities = Capabilities(
        method="Manual refactoring",
        automation="Poor",
        portability="Good",
        smp_support="Yes",
        migration="Yes",
        requires_source_changes=True,
    )

    @staticmethod
    def refactoring_effort(binary: Binary) -> int:
        """Number of declarations a human must move into the state struct."""
        return len(binary.source.unsafe_vars())

    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        lm = env.loader.dlopen(binary.image)
        tls_shared = binary.image.tls.instantiate(lm.rodata.end)
        wirings: dict[int, RankWiring] = {}
        for rank in ranks:
            # The refactored program allocates its state struct on the
            # heap at startup; we model it as a private copy of the data
            # and TLS layouts living in the rank's Isomalloc slot.
            data_priv, _ = clone_instance_private(
                env, rank, lm.data, MapKind.DATA, f"manual:struct[{rank.vp}]"
            )
            tls_priv = None
            if len(binary.image.tls.vars):
                tls_priv, _ = clone_instance_private(
                    env, rank, tls_shared, MapKind.DATA,
                    f"manual:tls[{rank.vp}]",
                )
            wirings[rank.vp] = RankWiring(
                routes=routes_for(data_priv, lm.rodata,
                                  tls_priv or tls_shared,
                                  tls_kind=AccessKind.DIRECT),
                code=lm.code, tls_instance=tls_priv)
        return wirings


class Photran(ManualRefactoring):
    """Photran's automated refactoring — Fortran codes only."""

    name = "photran"
    capabilities = Capabilities(
        method="Photran",
        automation="Fortran-specific",
        portability="Good",
        smp_support="Yes",
        migration="Yes",
        requires_source_changes=True,
    )
    source_language = "fortran"

    def validate_binary(self, binary: Binary) -> None:
        if binary.source.language != self.source_language:
            raise PrivatizationError(
                f"photran only refactors Fortran sources; "
                f"{binary.source.name!r} is {binary.source.language}"
            )
