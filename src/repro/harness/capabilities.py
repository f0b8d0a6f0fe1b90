"""Capability probes: Tables 1 and 3, *executed* rather than transcribed.

For every privatization method the probes actually run the simulator:

* **correctness probe** — a program with a mutable global, a mutable
  static, and a TLS-tagged global; each rank writes its number into all
  three and checks what it reads back after a barrier.  What survives
  determines the automation rating (statics are Swapglobals' hole; the
  untagged global is TLSglobals' hole).
* **portability probe** — try building + starting on each machine preset.
* **SMP probe** — try an SMP-mode layout (and, for PIPglobals, more ranks
  per process than stock glibc has namespaces).
* **migration probe** — actually migrate a rank across processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.errors import (
    MigrationUnsupportedError,
    NamespaceLimitError,
    PrivatizationError,
    ReproError,
    UnsupportedToolchain,
)
from repro.machine import TEST_MACHINE, MachineModel, get_machine
from repro.privatization import PrivatizationMethod, get_method
from repro.program.source import Program, ProgramSource

#: presets the portability probe tries, in order
PORTABILITY_MACHINES = ("bridges2", "legacy-linux-old-ld", "stampede2-icx",
                        "macos-arm", "bridges2-patched-glibc")


def correctness_program(language: str = "c") -> ProgramSource:
    """Mutable global + mutable static + TLS-tagged global probe."""
    p = Program("privprobe", language=language)
    p.add_global("g_var", -1)
    p.add_static("s_var", -1)
    p.add_global("t_var", -1, tls=True)
    p.add_global("ro_var", 7, const=True)

    @p.function()
    def main(ctx):
        me = ctx.mpi.rank()
        ctx.g.g_var = me
        ctx.g.s_var = me
        ctx.g.t_var = me
        ctx.mpi.barrier()
        return {
            "global": ctx.g.g_var == me,
            "static": ctx.g.s_var == me,
            "tls": ctx.g.t_var == me,
            "const": ctx.g.ro_var == 7,
        }

    return p.build()


@dataclass(frozen=True)
class CapabilityRow:
    method: str
    display_name: str
    automation: str
    portability: str
    smp_support: str
    migration: str
    #: raw probe evidence
    privatizes: dict
    works_on: tuple[str, ...]


def migration_program(language: str = "c",
                      name: str = "migprobe") -> ProgramSource:
    """Write a global, move rank 0 to the other process, read it back."""
    p = Program(name, language=language)
    p.add_global("x", 0)

    @p.function()
    def main(ctx):
        ctx.g.x = ctx.mpi.rank() * 10
        ctx.mpi.barrier()
        if ctx.mpi.rank() == 0:
            ctx.mpi.migrate_to(1)
        ctx.mpi.barrier()
        return ctx.g.x == ctx.mpi.rank() * 10

    return p.build()


def _probe_machine(method: PrivatizationMethod) -> MachineModel:
    """The test machine, with the toolchain the method needs (if any)."""
    if method.toolchain_preset is None:
        return TEST_MACHINE
    return TEST_MACHINE.copy_with(
        toolchain=get_machine(method.toolchain_preset).toolchain)


def _probe_job(method_name: str, nvp: int, *, program=correctness_program,
               machine: MachineModel | None = None,
               layout: JobLayout | None = None, **options) -> AmpiJob:
    """Every probe's job: the program in the method's source language,
    on a machine it can build on, two PEs in the shape it can run."""
    method = get_method(method_name)
    if layout is None:
        layout = (JobLayout.single(2) if method.smp_capable
                  else JobLayout(1, 2, 1))
    return AmpiJob(program(method.source_language), nvp, method=method,
                   machine=machine or _probe_machine(method), layout=layout,
                   **options)


def _starts(job: AmpiJob) -> None:
    job.start()
    job.scheduler.shutdown()


def probe_correctness(method_name: str) -> dict:
    """Which variable classes does the method actually privatize?"""
    result = _probe_job(method_name, 4).run()
    verdict = {"global": True, "static": True, "tls": True, "const": True}
    for flags in result.exit_values.values():
        for k, ok in flags.items():
            verdict[k] = verdict[k] and ok
    return verdict


def probe_portability(method_name: str) -> tuple[str, ...]:
    """Machine presets on which the method builds and starts."""
    works = []
    for machine in PORTABILITY_MACHINES:
        try:
            _starts(_probe_job(method_name, 2, machine=get_machine(machine)))
        except ReproError:
            continue
        works.append(machine)
    return tuple(works)


def probe_smp(method_name: str) -> str:
    """Can the method run many scheduler threads per process?"""
    try:
        # SMP mode with enough virtualization to exceed stock glibc's
        # dlmopen namespace budget in one process (the PIP pain point).
        _starts(_probe_job(method_name, 16, layout=JobLayout.single(4)))
        return "Yes"
    except NamespaceLimitError:
        return "Limited w/o patched glibc"
    except (UnsupportedToolchain, PrivatizationError):
        return "No"


def probe_migration(method_name: str) -> str:
    """Actually migrate a rank between OS processes."""
    try:
        result = _probe_job(method_name, 2, program=migration_program,
                            layout=JobLayout(1, 2, 1),
                            slot_size=1 << 26).run()
    except MigrationUnsupportedError as e:
        return "Not implemented, but possible" if e.possible else "No"
    ok = all(result.exit_values.values())
    moved = any(m.cross_process for m in result.migrations)
    return "Yes" if (ok and moved) else "No"


def _automation_rating(method_name: str, verdict: dict) -> str:
    method = get_method(method_name)
    caps = method.capabilities
    if method_name == "none":
        return "n/a"
    if caps.requires_source_changes:
        return caps.automation  # Poor / Fortran-specific: human-in-the-loop
    if verdict["global"] and verdict["static"]:
        return "Good"
    if verdict["global"] and not verdict["static"]:
        return "No static vars"
    if verdict["tls"] and not verdict["global"]:
        return "Mediocre"
    return "Poor"


def probe_method(method_name: str) -> CapabilityRow:
    """Run all four probes and assemble one feature-matrix row."""
    method = get_method(method_name)
    verdict = probe_correctness(method_name)
    works_on = probe_portability(method_name)
    return CapabilityRow(
        method=method_name,
        display_name=method.capabilities.method,
        automation=_automation_rating(method_name, verdict),
        portability=method.capabilities.portability,
        smp_support=probe_smp(method_name),
        migration=probe_migration(method_name),
        privatizes=verdict,
        works_on=works_on,
    )


#: Table 1's rows (existing methods) and Table 3's additions, in paper order
TABLE1_METHODS = ("manual", "photran", "swapglobals", "tlsglobals", "mpc",
                  "pipglobals")
TABLE3_METHODS = TABLE1_METHODS + ("fsglobals", "pieglobals")

