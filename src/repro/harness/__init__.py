"""Experiment harness shared by the benchmarks, examples, and docs:
capability probes (Tables 1/3), table formatting, the per-figure
experiment drivers, and :mod:`repro.harness.claims`, the catalogue of
the paper's evaluation (imported by ``repro run``/``trace``/``claims``
only)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.tables import format_table, format_markdown_table
    from repro.harness.capabilities import CapabilityRow, probe_method
    from repro.harness.jobspec import (
        JobSpec,
        add_result_hook,
        app_names,
        build_app_source,
        build_job,
        code_version,
        register_app,
        remove_result_hook,
        run_app,
        run_spec,
        run_spec_job,
    )
    from repro.harness.experiments import (
        FaultRow,
        adcirc_scaling_experiment,
        context_switch_experiment,
        fault_overhead_experiment,
        icache_experiment,
        jacobi_access_experiment,
        migration_experiment,
        startup_experiment,
    )

# The experiment drivers and capability probes import every app (and so
# numpy); a caller that wants ``format_table`` or ``JobSpec`` pays for
# neither.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.harness.tables": ("format_table", "format_markdown_table"),
    "repro.harness.capabilities": ("CapabilityRow", "probe_method"),
    "repro.harness.jobspec": (
        "JobSpec", "add_result_hook", "app_names", "build_app_source",
        "build_job", "code_version", "register_app", "remove_result_hook",
        "run_app", "run_spec", "run_spec_job"),
    "repro.harness.experiments": (
        "FaultRow", "adcirc_scaling_experiment", "context_switch_experiment",
        "fault_overhead_experiment", "icache_experiment",
        "jacobi_access_experiment", "migration_experiment",
        "startup_experiment"),
})
