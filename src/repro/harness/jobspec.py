"""The canonical job specification shared by the CLI, the experiment
drivers, the host benchmark, and the provenance store.

Every run in this repo is deterministic by contract: the simulated
timeline is a pure function of *what ran* — program, machine preset,
virtualization, placement, fault plan, transport, recovery scheme.
:class:`JobSpec` is the one value object that captures exactly that set
of inputs, with a stable JSON encoding (:meth:`JobSpec.to_dict` /
:meth:`JobSpec.from_dict`) and a content digest (:meth:`JobSpec.digest`)
over the canonical encoding.  It is deliberately *speed-agnostic*: the
ULT worker pool, tracing, and fetch tracing are runtime options of
:func:`build_job`, because none of them may change simulated timelines
(the repo-wide zero-overhead-when-off contract).

This module is the one road from a program to a running job: a caller
holding a spec runs it with :func:`run_spec_job`; a caller holding an app
name and the objects :class:`AmpiJob` takes (experiment drivers,
``run_jacobi``/``run_adcirc``) calls :func:`run_app`, the only place
that decides whether those can be written down as a spec.
:meth:`JobSpec.validate` refuses a spec that names something unknown;
:func:`build_job` turns a valid one into an :class:`AmpiJob`, whose
binary comes from :func:`repro.ampi.runtime.build_binary`.

The provenance store (:mod:`repro.provenance`) and the ``repro serve``
result cache key run records by ``spec.digest()``.  :func:`run_spec_job`
is the chokepoint every spec-built job runs through — result hooks
registered with :func:`add_result_hook` see ``(spec, job, result)`` for
every run, which is how ``--provenance`` records runs without the
harness importing the store.  ``repro serve``'s workers do not come
through it: they :func:`build_job` and run the job themselves, so a
recorder in their process never sees a tenant's job.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.ampi.runtime import AmpiJob, JobResult, check_job_options
from repro.apps.micro import (
    build_hello_program,
    build_pingpong_program,
    build_startup_program,
)
from repro.charm.lb import strategy_names
from repro.charm.node import JobLayout
from repro.errors import ReproError
from repro.machine import GENERIC_LINUX, PRESETS, MachineModel, get_machine
from repro.mem.layout import DEFAULT_SLOT_SIZE
from repro.privatization import method_names
from repro.program.source import ProgramSource

# ---------------------------------------------------------------------------
# App registry: name + config dict -> ProgramSource
# ---------------------------------------------------------------------------

AppBuilder = Callable[[dict], ProgramSource]

_APPS: dict[str, AppBuilder] = {}


def register_app(name: str, builder: AppBuilder) -> None:
    """Register (or replace) a named program builder.

    The builder must be a pure function of its config dict so that equal
    specs build bit-identical programs.
    """
    _APPS[name] = builder


def app_names() -> list[str]:
    return sorted(_APPS)


def build_app_source(app: str, config: dict) -> ProgramSource:
    """Build a registered app's program from its config dict."""
    try:
        builder = _APPS[app]
    except KeyError:
        raise ReproError(
            f"unknown app {app!r}; registered: {app_names()}"
        ) from None
    return builder(dict(config))


# The numeric apps import numpy, so each module loads when its app is
# first built; the micro programs above need nothing beyond the core.

def _build_jacobi3d(cfg: dict) -> ProgramSource:
    from repro.apps.jacobi3d import JacobiConfig, build_jacobi_program

    return build_jacobi_program(JacobiConfig(**cfg))


def _build_adcirc(cfg: dict) -> ProgramSource:
    from repro.apps.adcirc import AdcircConfig, build_adcirc_program

    return build_adcirc_program(AdcircConfig(**cfg))


def _build_memhog(cfg: dict) -> ProgramSource:
    from repro.apps.memhog import MemhogConfig, build_memhog_program

    return build_memhog_program(MemhogConfig(**cfg))


register_app("jacobi3d", _build_jacobi3d)
register_app("adcirc", _build_adcirc)
register_app("memhog", _build_memhog)
register_app("startup", lambda cfg: build_startup_program(**cfg))
register_app("pingpong", lambda cfg: build_pingpong_program(**cfg))
register_app("hello", lambda cfg: build_hello_program(**cfg))


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobSpec:
    """Everything that determines a job's simulated timeline.

    ``app`` names a registered program builder and ``app_config`` holds
    its keyword arguments (JSON-able scalars only).  ``machine`` is a
    preset name (:data:`repro.machine.PRESETS`); a custom machine model
    cannot be written down as a spec (see :func:`run_app`).
    A spec owns its ``app_config`` and ``fault_plan`` (deep copies in,
    out through :meth:`to_dict` and into a ``copy.copy``: no caller's
    dict can move its digest) and keeps :meth:`canonical` outside its
    fields, unseen by ``==`` and ``repr``.
    """

    app: str
    nvp: int
    app_config: dict = field(default_factory=dict)
    method: str = "pieglobals"
    machine: str = "generic-linux"
    layout: tuple[int, int, int] = (1, 1, 1)
    lb_strategy: str = "greedyrefine"
    optimize: int = 2
    stack_bytes: int = 64 * 1024
    slot_size: int = DEFAULT_SLOT_SIZE
    placement: str = "block"
    argv: tuple[str, ...] = ()
    #: :meth:`FaultPlan.to_dict` encoding, or None for a fault-free run
    fault_plan: dict | None = None
    #: ``FtConfig.ckpt_interval_ns`` or None for no explicit FT config
    ft_interval_ns: int | None = None
    transport: str = "priced"
    recovery: str = "global"
    #: run under the shared-state race detector (timeline-neutral)
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.nvp < 1:
            raise ReproError("spec needs at least one virtual rank")
        object.__setattr__(self, "layout", tuple(int(x) for x in self.layout))
        if len(self.layout) != 3:
            raise ReproError(f"layout must be (nodes, procs/node, pes/proc), "
                             f"got {self.layout!r}")
        object.__setattr__(self, "argv", tuple(str(a) for a in self.argv))
        object.__setattr__(self, "app_config",
                           copy.deepcopy(dict(self.app_config)))
        object.__setattr__(self, "fault_plan", copy.deepcopy(self.fault_plan))

    def __copy__(self) -> "JobSpec":
        return dataclasses.replace(self)

    # -- encoding -----------------------------------------------------------

    def _field_dict(self) -> dict[str, Any]:
        """Every field, by name: a field added to the dataclass is in the
        canonical encoding, hence the digest, without being listed here."""
        d = {name: getattr(self, name) for name in _FIELDS}
        d.update(layout=list(self.layout), argv=list(self.argv))
        return d

    def to_dict(self) -> dict[str, Any]:
        """:meth:`_field_dict`, holding copies of the spec's two dicts."""
        d = self._field_dict()
        d.update(app_config=copy.deepcopy(self.app_config),
                 fault_plan=copy.deepcopy(self.fault_plan))
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "JobSpec":
        """Decode without :meth:`validate`: a stored record or an old
        manifest loads whatever it names."""
        unknown = set(d).difference(_FIELDS)
        if unknown:
            raise ReproError(f"unknown JobSpec fields: {sorted(unknown)}")
        return cls(**d)     # __post_init__ re-tuples layout and argv

    def canonical(self) -> str:
        """The canonical encoding the digest is computed over: JSON with
        sorted keys and no whitespace.  Stable across processes and
        Python versions (no hash randomization, no float formatting
        ambiguity for the repr-round-trippable values specs hold).
        Kept until the ``repr`` of ``app_config`` or ``fault_plan``
        moves (``==`` would miss 1 -> True, 1 -> 1.0, 0.0 -> -0.0)."""
        seen = (repr(self.app_config), repr(self.fault_plan))
        cached = self.__dict__.get("_canonical")
        if cached is not None and cached[0] == seen:
            return cached[1]
        text = json.dumps(self._field_dict(), sort_keys=True,
                          separators=(",", ":"))
        self.__dict__["_canonical"] = (seen, text)
        return text

    def digest(self) -> str:
        """SHA-256 of the canonical encoding — the content address."""
        import hashlib

        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def validate(self) -> None:
        """Refuse a spec that holds a mistyped scalar or names something
        unknown — field types, registry and enum membership only, cheap
        enough for :func:`build_job` and ``repro serve``'s submit path to
        call first, before the spec is keyed."""
        for name, kind in _SCALAR_TYPES.items():
            value = getattr(self, name)
            # exact types: a bool is an int, and nvp=True would run as 1
            if type(value) is not kind and not (
                    name == "ft_interval_ns" and value is None):
                raise ReproError(f"{name} must be {kind.__name__}, got "
                                 f"{type(value).__name__} {value!r}")
        for what, value, known in (
            ("app", self.app, _APPS),
            ("privatization method", self.method, method_names()),
            ("machine preset", self.machine, PRESETS),
            ("LB strategy", self.lb_strategy.lower(), strategy_names()),
        ):
            if value not in known:
                raise ReproError(f"unknown {what} {value!r}; known: "
                                 f"{', '.join(sorted(known))}")
        check_job_options(self.placement, self.transport, self.recovery)

    # -- materialization ----------------------------------------------------

    def build_source(self) -> ProgramSource:
        return build_app_source(self.app, self.app_config)


#: every spec field, read off the dataclass: encoder, decoder and
#: :func:`build_job` walk this list, none carries its own
_FIELDS = tuple(f.name for f in dataclasses.fields(JobSpec))

#: the scalar fields :meth:`JobSpec.validate` holds to one type
#: (``ft_interval_ns`` may also be None)
_SCALAR_TYPES = {
    **dict.fromkeys(("app", "method", "machine", "lb_strategy", "placement",
                     "transport", "recovery"), str),
    **dict.fromkeys(("nvp", "optimize", "stack_bytes", "slot_size",
                     "ft_interval_ns"), int),
    "sanitize": bool,
}


def machine_preset_name(machine: MachineModel) -> str | None:
    """The preset name of ``machine`` if it *is* a preset, else None
    (a copy_with-customized model is not serializable by name)."""
    preset = PRESETS.get(machine.name)
    return machine.name if preset == machine else None


def default_layout(nvp: int, machine: MachineModel) -> tuple[int, int, int]:
    """The layout :class:`AmpiJob` would pick when given none."""
    return (1, 1, min(nvp, machine.cores_per_node))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

#: the spec fields :class:`AmpiJob` takes in another form; every other
#: field is handed over under its own name
_CONVERTED_FIELDS = frozenset({"app", "app_config", "machine", "layout",
                               "fault_plan", "ft_interval_ns", "sanitize"})


def build_job(
    spec: JobSpec,
    *,
    trace: Any = None,
    sanitize: Any = None,
    ult_backend: Any = None,
    trace_fetches: bool = False,
) -> AmpiJob:
    """Materialize a spec into a runnable :class:`AmpiJob`.

    The keyword arguments are the runtime (non-spec) options: none of
    them may change the simulated timeline.  ``sanitize`` overrides the
    spec's flag when given (e.g. to share one detector across a sweep).
    """
    spec.validate()
    if sanitize is None and spec.sanitize:
        sanitize = True
    plan = ft = None
    if spec.fault_plan is not None:
        from repro.ft.plan import FaultPlan

        plan = FaultPlan.from_dict(spec.fault_plan)
    if spec.ft_interval_ns is not None:
        from repro.ft.buddy import FtConfig

        ft = FtConfig(ckpt_interval_ns=spec.ft_interval_ns)
    return AmpiJob(
        spec.build_source(),
        machine=get_machine(spec.machine),
        layout=JobLayout(*spec.layout),
        fault_plan=plan,
        ft=ft,
        trace=trace,
        sanitize=sanitize,
        ult_backend=ult_backend,
        trace_fetches=trace_fetches,
        **{name: getattr(spec, name) for name in _FIELDS
           if name not in _CONVERTED_FIELDS},
    )


#: the hook signature: fn(spec, job, result)
ResultHook = Callable[[JobSpec, AmpiJob, JobResult], None]

#: process-global hooks fired after every spec-built run
_result_hooks: list[ResultHook] = []


def add_result_hook(fn: ResultHook) -> None:
    _result_hooks.append(fn)


def remove_result_hook(fn: ResultHook) -> None:
    try:
        _result_hooks.remove(fn)
    except ValueError:
        pass


def run_spec_job(spec: JobSpec, **runtime: Any) -> tuple[AmpiJob, JobResult]:
    """Build and run a spec; returns (job, result) and fires the result
    hooks (the provenance auto-recorder attaches here).

    ``strict=False`` returns a structured result (with
    ``unrecoverable_reason`` set) instead of raising
    :class:`~repro.errors.FaultUnrecoverableError`; the result hooks
    fire for such runs too, so unrecoverable scenarios are recordable
    and replayable provenance like any other run.

    Hooks are observers, never participants: a raising hook is logged
    and skipped, so a *completed* job can never be made to look failed
    by its recorder — and every remaining hook still fires.
    """
    strict = runtime.pop("strict", True)
    job = build_job(spec, **runtime)
    result = job.run(strict=strict)
    for fn in tuple(_result_hooks):
        try:
            fn(spec, job, result)
        except Exception:
            import logging

            logging.getLogger(__name__).exception(
                "result hook %r failed; run result is unaffected", fn)
    return job, result


def run_spec(spec: JobSpec, **runtime: Any) -> JobResult:
    """Build and run a spec; returns the result."""
    return run_spec_job(spec, **runtime)[1]


def run_app(
    app: str,
    config: dict,
    nvp: int,
    *,
    machine: MachineModel = GENERIC_LINUX,
    layout: JobLayout | None = None,
    method: "str | Any" = "pieglobals",
    lb_strategy: "str | Any" = "greedyrefine",
    optimize: int = 2,
    slot_size: int = DEFAULT_SLOT_SIZE,
    fault_plan: Any = None,
    ft: Any = None,
    transport: str = "priced",
    recovery: str = "global",
    **runtime: Any,
) -> tuple[AmpiJob, JobResult]:
    """Run a registered app from the objects :class:`AmpiJob` takes —
    the one spec-or-direct decision.

    A preset machine with a named method and LB strategy is written down
    as a :class:`JobSpec` and run through :func:`run_spec_job`, so the
    result hooks (``--provenance``) see it.  A ``copy_with`` machine or a
    method / strategy *instance* has no name to record: the same job is
    built directly — same timeline, no record.  ``runtime`` is
    :func:`run_spec_job`'s non-spec options.
    """
    same = dict(method=method, lb_strategy=lb_strategy, optimize=optimize,
                slot_size=slot_size, transport=transport, recovery=recovery)
    preset = machine_preset_name(machine)
    if (preset is not None and isinstance(method, str)
            and isinstance(lb_strategy, str)):
        spec = JobSpec(
            app=app, nvp=nvp, app_config=config, machine=preset,
            layout=(default_layout(nvp, machine) if layout is None
                    else dataclasses.astuple(layout)),
            fault_plan=None if fault_plan is None else fault_plan.to_dict(),
            ft_interval_ns=None if ft is None else ft.ckpt_interval_ns,
            **same)
        return run_spec_job(spec, **runtime)
    strict = runtime.pop("strict", True)
    job = AmpiJob(build_app_source(app, config), nvp, machine=machine,
                  layout=layout, fault_plan=fault_plan, ft=ft, **same,
                  **runtime)
    return job, job.run(strict=strict)


# ---------------------------------------------------------------------------
# Code version
# ---------------------------------------------------------------------------

#: The tool tiers: code no job execution can load, so an edit there
#: cannot change what a spec computes and must not move a cache key
#: (package-relative paths; a directory covers everything under it).
#: An exclude-list, so a new simulator module is keyed by default;
#: ``tests/test_jobspec.py`` holds it to what a job actually imports.
UNKEYED_SOURCES = (
    "__main__.py", "cli/", "analyze/", "chaos/", "serve/",
    "harness/capabilities.py", "harness/experiments.py", "harness/tables.py",
    "sanitize/check.py", "sanitize/fixtures.py",
    "trace/export.py", "trace/timeline.py",
)


def keyed_sources(root: Path) -> list[str]:
    """The ``.py`` files under package root ``root`` that
    :func:`code_version` covers: sorted ``/``-separated relative paths."""
    names = (p.relative_to(root).as_posix() for p in sorted(root.rglob("*.py")))
    return [name for name in names if not name.startswith(UNKEYED_SOURCES)]


def source_digest(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every keyed source."""
    import hashlib

    h = hashlib.sha256()
    for name in keyed_sources(root):
        h.update(name.encode())
        h.update(b"\0")
        h.update((root / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


_code_version_cache: str | None = None


def code_version() -> str:
    """:func:`source_digest` of the installed ``repro``: the simulator's
    sources, without the tool tiers.

    Stored in every provenance record, fault-sweep row, and host
    benchmark result so results are attributable to the code that
    produced them, and part of every cache key.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        _code_version_cache = source_digest(
            Path(repro.__file__).resolve().parent)
    return _code_version_cache
