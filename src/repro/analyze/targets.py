"""The target words of ``repro check``.

``<app>``            a registered app (``repro.harness.jobspec``), built
                     with a small analysis-sized config
``apps``             every registered app
``probe``            the capability probes' correctness program
``example:<name>``   one bundled ``examples/*.py`` script's program
``examples``         every bundled example
``fixture:<name>``   one seeded-violation fixture
``fixtures``         every fixture
``self``             determinism self-lint over ``src/repro`` itself

A program runs in check's shape (``--nvp`` virtual ranks on two PEs of
one process); an example runs in its script's shape.
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


#: example name -> (builder of the program that example drives, the
#: virtual ranks and the PEs of the one-process layout its script runs)
EXAMPLES: dict[str, tuple[Callable[[], ProgramSource], int, int]] = {
    "quickstart": (lambda: _load_example("quickstart").build_hello(), 2, 1),
    "checkpoint_restart": (
        lambda: _load_example("checkpoint_restart").build(
            crash_after_checkpoint=False), 4, 2),
    "cloud_elasticity": (lambda: _load_example("cloud_elasticity").build(),
                         16, 8),
    "method_tour": (lambda: _load_example("method_tour").build_probe(), 4, 2),
    "jacobi3d_overdecomposition": (lambda: _registered(
        "jacobi3d", n=24, iters=12, reduce_every=3), 32, 4),
    "storm_surge_load_balancing": (lambda: _registered(
        "adcirc", steps=100, lb_period=5), 32, 8),
}


def example_names() -> list[str]:
    return sorted(EXAMPLES)


def build_example(name: str) -> ProgramSource:
    return _example(name)[0]()


def _example(name: str) -> tuple[Callable[[], ProgramSource], int, int]:
    try:
        return EXAMPLES[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; have: {', '.join(example_names())}"
        ) from None


def _registered(app: str, **config) -> ProgramSource:
    from repro.harness.jobspec import build_app_source

    return build_app_source(app, config)


def app_source(app: str) -> ProgramSource:
    return _registered(app, **APP_CONFIGS.get(app, {}))


def resolve_targets(word: str) -> list[str]:
    """The single targets one target word names, in report order."""
    from repro.harness.jobspec import app_names

    if word == "apps":
        return app_names()
    if word == "examples":
        return [f"example:{n}" for n in example_names()]
    if word == "fixtures":
        from repro.sanitize.fixtures import fixture_names

        return [f"fixture:{n}" for n in fixture_names()]
    return [word]


def program_target(target: str, nvp: int
                   ) -> tuple[ProgramSource, int, int]:
    """The program a single target names and the shape it runs in:
    (source, virtual ranks, PEs); ``nvp`` ranks on two PEs unless the
    target is an example."""
    from repro.harness.jobspec import app_names

    if target.startswith("example:"):
        build, vps, pes = _example(target.partition(":")[2])
        return build(), vps, pes
    if target == "probe":
        from repro.harness.capabilities import correctness_program

        return correctness_program(), nvp, 2
    if target in app_names():
        return app_source(target), nvp, 2
    raise ValueError(
        f"unknown check target {target!r}; have app names "
        f"({', '.join(app_names())}), apps, probe, example:<name>, "
        f"examples, fixture:<name>, fixtures, or self"
    )
