"""Target resolution for ``repro analyze``.

Accepted target forms:

``<app>``            a registered app (``repro.harness.jobspec``), built
                     with a small analysis-sized config
``apps``             every registered app
``example:<name>``   one bundled ``examples/*.py`` script's program
``examples``         every bundled example
``fixture:<name>``   one seeded-violation fixture
``fixtures``         every fixture
``self``             determinism self-lint over ``src/repro`` itself
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Callable

from repro.program.source import ProgramSource

#: analysis-sized app configs: the lint is shape-driven, not scale-driven
APP_CONFIGS: dict[str, dict] = {
    "jacobi3d": {"n": 12, "iters": 4},
    "adcirc": {"steps": 20, "lb_period": 5},
    "memhog": {},
    "startup": {},
    "pingpong": {},
    "hello": {},
}


def examples_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parents[2] / "examples"


def _load_example(stem: str):
    path = examples_dir() / f"{stem}.py"
    if not path.is_file():
        raise ValueError(f"no example {stem!r} at {path}")
    spec = importlib.util.spec_from_file_location(f"_repro_example_{stem}",
                                                  path)
    assert spec is not None and spec.loader is not None
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


#: example name -> builder for the program that example drives
EXAMPLE_BUILDERS: dict[str, Callable[[], ProgramSource]] = {
    "quickstart": lambda: _load_example("quickstart").build_hello(),
    "checkpoint_restart":
        lambda: _load_example("checkpoint_restart").build(
            crash_after_checkpoint=False),
    "cloud_elasticity": lambda: _load_example("cloud_elasticity").build(),
    "method_tour": lambda: _load_example("method_tour").build_probe(),
    "jacobi3d_overdecomposition": lambda: _registered(
        "jacobi3d", n=24, iters=12, reduce_every=3),
    "storm_surge_load_balancing": lambda: _registered(
        "adcirc", steps=100, lb_period=5),
}


def example_names() -> list[str]:
    return sorted(EXAMPLE_BUILDERS)


def build_example(name: str) -> ProgramSource:
    try:
        builder = EXAMPLE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; have: {', '.join(example_names())}"
        ) from None
    return builder()


def _registered(app: str, **config) -> ProgramSource:
    from repro.harness.jobspec import build_app_source

    return build_app_source(app, config)


def app_source(app: str) -> ProgramSource:
    return _registered(app, **APP_CONFIGS.get(app, {}))


def resolve_targets(target: str) -> list[tuple[str, ProgramSource, dict]]:
    """Expand one CLI target word into (label, source, kwargs) triples.

    ``kwargs`` are per-target analyzer overrides (fixtures may require
    ``method=`` or ``suggest=`` to exhibit their defect).  ``self`` is
    handled by the CLI directly (it lints files, not a program) and is
    rejected here.
    """
    from repro.harness.jobspec import app_names

    if target == "self":
        raise ValueError("'self' target lints files, not programs")
    if target == "apps":
        return [(a, app_source(a), {}) for a in app_names()]
    if target == "examples":
        return [(f"example:{n}", build_example(n), {})
                for n in example_names()]
    if target == "fixtures" or target.startswith("fixture:"):
        from repro.analyze.fixtures import fixture_names, get_fixture

        names = (fixture_names() if target == "fixtures"
                 else [target.partition(":")[2]])
        return [(f"fixture:{fx.name}", fx.build(), dict(fx.analyze_kwargs))
                for fx in map(get_fixture, names)]
    if target.startswith("example:"):
        name = target.partition(":")[2]
        return [(target, build_example(name), {})]
    if target in app_names():
        return [(target, app_source(target), {})]
    raise ValueError(
        f"unknown analyze target {target!r}; have app names "
        f"({', '.join(app_names())}), apps, example:<name>, examples, "
        f"fixture:<name>, fixtures, or self"
    )
