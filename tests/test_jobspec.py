"""Tests for the canonical job spec (repro.harness.jobspec)."""

import dataclasses
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.ft import FaultPlan, MessageFaults, NodeCrash
from repro.harness import jobspec as js
from repro.harness.jobspec import (
    JobSpec,
    app_names,
    build_app_source,
    build_job,
    code_version,
    default_layout,
    machine_preset_name,
    register_app,
    run_spec,
    run_spec_job,
)
from repro.machine import BRIDGES2, GENERIC_LINUX


def _fault_plans():
    crash = FaultPlan(seed=7, node_crashes=(
        NodeCrash(at_ns=1_000_000, node=1),))
    noisy = FaultPlan(seed=9, message_faults=MessageFaults(drop=0.05))
    return [None, crash.to_dict(), noisy.to_dict()]


class TestRoundTrip:
    """Property: from_dict(to_dict(s)) == s, and digests are stable,
    across the full spec matrix the repo exercises."""

    @pytest.mark.parametrize("app,config", [
        ("jacobi3d", {"n": 12, "iters": 4}),
        ("adcirc", {"width": 16, "height": 32, "steps": 4}),
        ("memhog", {"heap_mb": 2}),
        ("startup", {"code_bytes": 4096}),
        ("pingpong", {"yields_per_rank": 10}),
        ("hello", {}),
    ])
    @pytest.mark.parametrize("method", ["none", "tlsglobals", "pieglobals"])
    def test_apps_and_methods(self, app, config, method):
        s = JobSpec(app=app, nvp=4, app_config=config, method=method)
        assert JobSpec.from_dict(s.to_dict()) == s
        assert JobSpec.from_dict(s.to_dict()).digest() == s.digest()

    @pytest.mark.parametrize("transport", ["priced", "reliable"])
    @pytest.mark.parametrize("recovery", ["global", "local"])
    @pytest.mark.parametrize("plan", _fault_plans())
    def test_transport_recovery_faults(self, transport, recovery, plan):
        s = JobSpec(app="jacobi3d", nvp=8,
                    app_config={"n": 12, "iters": 4, "ckpt_period": 2},
                    transport=transport, recovery=recovery,
                    fault_plan=plan, ft_interval_ns=0,
                    layout=(4, 1, 2), sanitize=True)
        s2 = JobSpec.from_dict(s.to_dict())
        assert s2 == s
        assert s2.digest() == s.digest()

    def test_json_round_trip(self):
        import json

        s = JobSpec(app="adcirc", nvp=6, app_config={"steps": 3},
                    argv=("x", "y"), layout=(2, 1, 3))
        wire = json.dumps(s.to_dict())
        assert JobSpec.from_dict(json.loads(wire)) == s


class TestDigest:
    def test_equal_specs_equal_digests(self):
        a = JobSpec(app="jacobi3d", nvp=8, app_config={"n": 10, "iters": 2})
        b = JobSpec(app="jacobi3d", nvp=8, app_config={"iters": 2, "n": 10})
        assert a.digest() == b.digest()   # key order must not matter

    def test_any_field_change_changes_digest(self):
        base = JobSpec(app="jacobi3d", nvp=8)
        variants = [
            JobSpec(app="jacobi3d", nvp=9),
            JobSpec(app="jacobi3d", nvp=8, method="tlsglobals"),
            JobSpec(app="jacobi3d", nvp=8, machine="bridges2"),
            JobSpec(app="jacobi3d", nvp=8, transport="reliable"),
            JobSpec(app="jacobi3d", nvp=8, recovery="local"),
            JobSpec(app="jacobi3d", nvp=8, sanitize=True),
            JobSpec(app="jacobi3d", nvp=8, app_config={"n": 25}),
            JobSpec(app="jacobi3d", nvp=8, layout=(2, 1, 4)),
            JobSpec(app="jacobi3d", nvp=8,
                    fault_plan=FaultPlan(seed=1).to_dict()),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_digest_is_sha256_hex(self):
        d = JobSpec(app="hello", nvp=1).digest()
        assert len(d) == 64
        int(d, 16)


def _crash_plan() -> dict:
    return {"node_crashes": [{"node": 0, "at_ns": 5}]}


class TestSpecOwnsItsDicts:
    """No dict a caller holds, on the way in or out, is the spec's own:
    a spec's content address cannot change after it is built."""

    def test_a_callers_fault_plan_cannot_move_the_digest(self):
        fp = _crash_plan()
        s = JobSpec(app="hello", nvp=2, fault_plan=fp)
        d = s.digest()
        fp["node_crashes"].append({"node": 1, "at_ns": 7})
        assert s.digest() == d

    def test_to_dict_hands_out_a_copy_of_the_fault_plan(self):
        s = JobSpec(app="hello", nvp=2, fault_plan=_crash_plan())
        d = s.digest()
        s.to_dict()["fault_plan"]["node_crashes"].clear()
        assert s.digest() == d

    def test_a_callers_nested_app_config_value_cannot_move_the_digest(self):
        cfg = {"names": ["a"]}
        s = JobSpec(app="hello", nvp=2, app_config=cfg)
        d = s.digest()
        cfg["names"].append("b")
        assert s.digest() == d

    def test_to_dict_hands_out_a_copy_of_nested_app_config_values(self):
        s = JobSpec(app="hello", nvp=2, app_config={"names": ["a"]})
        d = s.digest()
        s.to_dict()["app_config"]["names"].append("b")
        assert s.digest() == d


def _submit_line(spec) -> bytes:
    from repro.serve import protocol

    return protocol.encode({"op": protocol.OP_SUBMIT, "spec": spec,
                            "wait": True})


#: a change made through a spec's attribute after it was encoded; the
#: last three are equal under ``==`` and differ in JSON
ATTRIBUTE_CHANGES = {
    "app_config key": lambda s: s.app_config.update(n=13),
    "app_config nested": lambda s: s.app_config["names"].append("b"),
    "fault_plan nested": lambda s: s.fault_plan["node_crashes"].append(
        {"node": 1, "at_ns": 7}),
    "fault_plan key": lambda s: s.fault_plan.update(seed=3),
    "int to bool": lambda s: s.app_config.update(flag=True),
    "int to float": lambda s: s.app_config.update(flag=1.0),
    "zero to minus zero": lambda s: s.app_config.update(zero=-0.0),
}


def _cached_spec() -> JobSpec:
    s = JobSpec(app="jacobi3d", nvp=8,
                app_config={"n": 12, "names": ["a"], "flag": 1, "zero": 0.0},
                fault_plan=_crash_plan(), argv=("x",))
    s.canonical()
    return s


class TestCanonicalIsEncodedOnce:
    """``canonical()`` is kept per instance and never served stale."""

    @pytest.mark.parametrize("change", ATTRIBUTE_CHANGES)
    def test_a_change_through_the_attribute_is_encoded_again(self, change):
        s = _cached_spec()
        before = s.canonical()
        ATTRIBUTE_CHANGES[change](s)
        fresh = JobSpec.from_dict(s.to_dict())
        assert s.canonical() == fresh.canonical() != before
        assert s.digest() == fresh.digest()
        assert _submit_line(s) == _submit_line(fresh.to_dict())

    def test_copy_pickle_and_replace_never_serve_a_stale_line(self):
        import copy
        import pickle

        s = _cached_spec()
        d = s.digest()
        twins = [copy.copy(s), pickle.loads(pickle.dumps(s)),
                 dataclasses.replace(s, nvp=9),
                 dataclasses.replace(s, app_config={"n": 1})]
        for twin in twins:
            assert twin.canonical() == JobSpec.from_dict(
                twin.to_dict()).canonical()
            twin.app_config["n"] = 99
            fresh = JobSpec.from_dict(twin.to_dict())
            assert twin.canonical() == fresh.canonical()
            assert _submit_line(twin) == _submit_line(fresh.to_dict())
        assert s.digest() == d
        assert dataclasses.replace(s, nvp=9).digest() != d

    def test_the_cache_is_no_field(self):
        s = _cached_spec()
        fresh = JobSpec.from_dict(s.to_dict())
        assert "_canonical" in vars(s) and "_canonical" not in vars(fresh)
        assert js._FIELDS == tuple(
            f.name for f in dataclasses.fields(JobSpec))
        assert "_canonical" not in js._FIELDS
        assert list(s.to_dict()) == list(js._FIELDS)
        assert s == fresh and repr(s) == repr(fresh)
        assert s.canonical() == fresh.canonical()


class TestValidation:
    def test_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown JobSpec fields"):
            JobSpec.from_dict({"app": "hello", "nvp": 1, "bogus": 3})

    def test_rejects_zero_ranks(self):
        with pytest.raises(ReproError):
            JobSpec(app="hello", nvp=0)

    def test_rejects_bad_layout(self):
        with pytest.raises(ReproError, match="layout"):
            JobSpec(app="hello", nvp=1, layout=(1, 1))

    def test_unknown_app_fails_at_build_not_construct(self):
        s = JobSpec(app="no-such-app", nvp=1)    # constructible
        with pytest.raises(ReproError, match="unknown app"):
            s.build_source()

    #: a value of another type than the field's, as JSON can carry one
    MISTYPED = [
        ("nvp", 2.0), ("nvp", True), ("nvp", "2"), ("optimize", "2"),
        ("optimize", 2.0), ("stack_bytes", 65536.0), ("slot_size", None),
        ("ft_interval_ns", 1.5), ("ft_interval_ns", False),
        ("app", None), ("method", 3), ("machine", ["generic-linux"]),
        ("lb_strategy", 1), ("placement", None), ("transport", {}),
        ("recovery", 0), ("sanitize", 1), ("sanitize", "true"),
    ]

    @pytest.mark.parametrize("name,value", MISTYPED,
                             ids=[f"{n}={v!r}" for n, v in MISTYPED])
    def test_refuses_a_mistyped_scalar(self, name, value):
        d = {**JobSpec(app="hello", nvp=2).to_dict(), name: value}
        if name == "nvp" and isinstance(value, str):
            with pytest.raises(TypeError):      # __post_init__'s nvp < 1
                JobSpec.from_dict(d)
            return
        spec = JobSpec.from_dict(d)     # a stored record still loads
        with pytest.raises(ReproError,
                           match=f"^{name} must be (int|str|bool), got "):
            spec.validate()
        with pytest.raises(ReproError, match=f"^{name} must be"):
            build_job(spec)

    def test_a_bool_rank_count_is_not_one_rank(self):
        with pytest.raises(ReproError,
                           match="nvp must be int, got bool True"):
            JobSpec(app="hello", nvp=True).validate()

    def test_every_in_tree_spec_still_validates(self):
        """The pins, the chaos campaigns' specs, the host benchmark's
        shapes and ``repro hello``'s spec all keep validating."""
        from counted import JACOBI_1K, METHOD_SWEEP, SWITCH_STORM
        from repro.chaos.scenario import generate_scenarios
        from repro.chaos.serve_faults import generate_serve_scenario
        from repro.provenance import DEFAULT_MANIFEST, load_manifest

        root = Path(__file__).resolve().parents[1]
        specs = [e.spec for e in
                 load_manifest(root / DEFAULT_MANIFEST).values()]
        specs += [sc.base_spec for sc in generate_scenarios(0, 200)]
        specs += [generate_serve_scenario(0, i).spec for i in range(50)]
        specs += [JACOBI_1K, SWITCH_STORM, *METHOD_SWEEP,
                  JobSpec(app="hello", nvp=2, method="none",
                          machine="generic-linux", layout=(1, 1, 1),
                          slot_size=1 << 24)]
        assert len(specs) > 250
        for spec in specs:
            spec.validate()


class TestRegistry:
    def test_builtin_apps_registered(self):
        assert {"jacobi3d", "adcirc", "memhog", "startup", "pingpong",
                "hello"} <= set(app_names())

    def test_register_and_run_custom_app(self):
        from repro.apps.micro import build_hello_program

        register_app("test-hello", lambda cfg: build_hello_program(**cfg))
        try:
            src = build_app_source("test-hello", {})
            assert src is not None
            result = run_spec(JobSpec(app="test-hello", nvp=2,
                                      method="pieglobals"))
            assert result.exit_values[1] == "rank: 1"
        finally:
            js._APPS.pop("test-hello", None)


class TestMaterialization:
    def test_machine_preset_name(self):
        assert machine_preset_name(GENERIC_LINUX) == "generic-linux"
        assert machine_preset_name(BRIDGES2) == "bridges2"
        custom = dataclasses.replace(BRIDGES2, cores_per_node=3)
        assert machine_preset_name(custom) is None

    def test_default_layout(self):
        assert default_layout(4, GENERIC_LINUX) == (1, 1, 4)
        big = default_layout(10_000, GENERIC_LINUX)
        assert big[2] == GENERIC_LINUX.cores_per_node

    def test_build_job_honors_spec(self):
        s = JobSpec(app="jacobi3d", nvp=4, app_config={"n": 10, "iters": 2},
                    method="tlsglobals", layout=(2, 1, 2),
                    transport="reliable", recovery="local")
        job = build_job(s)
        assert job.nvp == 4
        assert job.layout.nodes == 2
        assert job.machine is GENERIC_LINUX

    def test_spec_sanitize_flag_builds_sanitized_job(self):
        s = JobSpec(app="hello", nvp=2, method="pieglobals", sanitize=True)
        _, result = run_spec_job(s)
        assert result.exit_values[0] == "rank: 0"

    def test_spec_path_matches_direct_construction(self):
        """The spec route must reproduce the direct AmpiJob timeline."""
        from repro.ampi.runtime import AmpiJob
        from repro.apps.jacobi3d import JacobiConfig, build_jacobi_program
        from repro.charm.node import JobLayout
        from repro.trace.stream import timeline_sha

        cfg = JacobiConfig(n=12, iters=4)
        direct = AmpiJob(build_jacobi_program(cfg), 8,
                         method="pieglobals", machine=GENERIC_LINUX,
                         layout=JobLayout.single(4))
        direct.run()
        spec_job, _ = run_spec_job(JobSpec(
            app="jacobi3d", nvp=8, app_config=dict(cfg.__dict__),
            method="pieglobals", machine="generic-linux", layout=(1, 1, 4)))
        assert timeline_sha(direct.scheduler.timeline) == \
            timeline_sha(spec_job.scheduler.timeline)


class TestResultHooks:
    def test_hooks_fire_and_detach(self):
        seen = []
        hook = lambda spec, job, result: seen.append(spec.app)  # noqa: E731
        js.add_result_hook(hook)
        try:
            run_spec(JobSpec(app="hello", nvp=1, method="pieglobals"))
        finally:
            js.remove_result_hook(hook)
        run_spec(JobSpec(app="hello", nvp=1, method="pieglobals"))
        assert seen == ["hello"]

    def test_remove_unknown_hook_is_noop(self):
        js.remove_result_hook(lambda *a: None)

    def test_raising_hook_does_not_fail_the_run(self, caplog):
        # Regression: a crashing observer (e.g. a recorder hitting a
        # full disk) must not make a completed job look failed.
        def bad_hook(spec, job, result):
            raise OSError("disk full")

        seen = []
        js.add_result_hook(bad_hook)
        js.add_result_hook(lambda spec, job, result: seen.append(spec.app))
        try:
            with caplog.at_level("ERROR", logger="repro.harness.jobspec"):
                result = run_spec(
                    JobSpec(app="hello", nvp=1, method="pieglobals"))
        finally:
            js.remove_result_hook(bad_hook)
            js._result_hooks.clear()
        assert result.exit_values          # the run itself completed
        assert seen == ["hello"]           # later hooks still fired
        assert any("result hook" in r.message for r in caplog.records)


class TestCodeVersion:
    def test_stable_hex(self):
        v = code_version()
        assert len(v) == 64
        int(v, 16)
        assert code_version() == v

    def test_every_module_a_job_can_load_is_keyed(self):
        """The exclude-list is safe: whatever building, running and
        recording a job imports — every registered app, plain,
        sanitized, crashed-and-recovered, on the reliable transport with
        local recovery — is covered by the digest."""
        import json
        import os
        import subprocess
        import sys

        import repro
        from repro.harness.jobspec import keyed_sources

        code = """
import json, os, sys
import repro
from repro.harness.jobspec import JobSpec, app_names, build_job
from repro.provenance.record import RunRecord
crash = {"seed": 1, "node_crashes": [{"at_ns": 1000, "node": 1}],
         "message_faults": None}
for app in app_names():
    for extra in ({}, {"sanitize": True},
                  {"fault_plan": crash, "ft_interval_ns": 1000},
                  {"transport": "reliable", "recovery": "local"}):
        spec = JobSpec(app=app, nvp=4, layout=(2, 1, 2), **extra)
        job = build_job(spec)
        RunRecord.from_run(spec, job, job.run(strict=False))
root = os.path.dirname(repro.__file__)
print(json.dumps(sorted(
    os.path.relpath(m.__file__, root).replace(os.sep, "/")
    for name, m in sys.modules.items()
    if name == "repro" or name.startswith("repro."))))
"""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("REPRO_PROVENANCE", None)
        p = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, p.stderr
        loaded = set(json.loads(p.stdout.splitlines()[-1]))
        root = Path(repro.__file__).resolve().parent
        assert "ft/recovery.py" in loaded and "sanitize/runtime.py" in loaded
        assert loaded <= set(keyed_sources(root))

    def test_tool_code_does_not_move_the_digest(self, tmp_path):
        import shutil

        import repro
        from repro.harness.jobspec import source_digest

        tree = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert source_digest(tree) == code_version()
        for tool in ("cli/__init__.py", "analyze/model.py", "chaos/engine.py",
                     "serve/pool.py", "harness/tables.py",
                     "sanitize/check.py", "trace/export.py"):
            with open(tree / tool, "a") as f:
                f.write("# an edit\n")
        assert source_digest(tree) == code_version()
        with open(tree / "charm" / "scheduler.py", "a") as f:
            f.write("# an edit\n")
        moved = source_digest(tree)
        assert moved != code_version()
        # an exclude-list: a module nobody listed is keyed
        (tree / "charm" / "brand_new.py").write_text("")
        assert source_digest(tree) != moved

    def test_faults_rows_carry_code_version(self):
        from repro.harness.experiments import fault_overhead_experiment

        rows = fault_overhead_experiment(kmax=0)
        assert all(r.code_version == code_version() for r in rows)
