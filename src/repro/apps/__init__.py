"""Workload applications used by the paper's evaluation.

* :mod:`repro.apps.jacobi3d` — the ~100-line Jacobi-3D stencil benchmark
  (Figures 6, 7, and the Section 4.5 icache study; ~3 MB code segment).
* :mod:`repro.apps.adcirc` — a storm-surge mini-app with ADCIRC's load
  structure: a moving wet front over a mostly dry floodplain (Table 2 and
  Figure 9; ~14 MB code segment, hundreds of mutable globals).
* :mod:`repro.apps.memhog` — a parameterized heap-filling rank used by
  the migration-cost experiment (Figure 8).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.jacobi3d import JacobiConfig, build_jacobi_program, run_jacobi
    from repro.apps.adcirc import AdcircConfig, build_adcirc_program, run_adcirc
    from repro.apps.memhog import MemhogConfig, build_memhog_program

# Each of these apps imports numpy; :mod:`repro.apps.micro` (hello,
# pingpong, startup) does not, and importing it must not load them.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.apps.jacobi3d": ("JacobiConfig", "build_jacobi_program",
                            "run_jacobi"),
    "repro.apps.adcirc": ("AdcircConfig", "build_adcirc_program",
                          "run_adcirc"),
    "repro.apps.memhog": ("MemhogConfig", "build_memhog_program"),
})
