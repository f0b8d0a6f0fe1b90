"""The one road from a program to a running job.

``build_binary`` is the build recipe, ``JobSpec.validate`` the admission
check, ``run_app`` the spec-or-direct decision, ``_probe_job`` the probe
job — each written once.  These tests pin the behaviour the callers that
used to carry their own copies rely on.
"""

import dataclasses

import pytest

from repro.ampi.runtime import build_binary
from repro.apps.adcirc import AdcircConfig, run_adcirc
from repro.apps.jacobi3d import JacobiConfig, run_jacobi
from repro.charm.lb import get_strategy
from repro.errors import ReproError
from repro.harness.capabilities import (
    TABLE3_METHODS,
    _probe_job,
    correctness_program,
    probe_method,
)
from repro.harness.jobspec import JobSpec, build_job, run_app
from repro.machine import GENERIC_LINUX
from repro.privatization import get_method, method_names
from repro.privatization._util import SHIM_PREFIX
from repro.provenance import ProvenanceStore, RunRecord, enable_auto_record
from repro.trace.stream import timeline_sha

#: each names something unknown, or breaks the one cross-constraint
#: (tests/test_serve_service.py submits the same six at the serve edge)
BAD_SPECS = {
    "method": {"method": "bogus"},
    "machine": {"machine": "bogus"},
    "placement": {"placement": "bogus"},
    "lb_strategy": {"lb_strategy": "bogus"},
    "transport": {"transport": "bogus"},
    "local-over-priced": {"recovery": "local", "transport": "priced"},
}


def _shape(binary):
    image = binary.image
    names = {n for seg in (image.data, image.rodata, image.tls)
             for n in seg.vars}
    return (names, any(n.startswith(SHIM_PREFIX) for n in names),
            image.code.size, image.data.size, image.rodata.size,
            image.tls.size, binary.options)


class TestBuildRecipe:
    @pytest.mark.parametrize("name", method_names())
    def test_build_binary_is_what_a_job_builds(self, name):
        job = _probe_job(name, 2)
        source = correctness_program(job.method.source_language)
        built = build_binary(source, name, job.machine)
        assert _shape(built) == _shape(job.binary)
        assert _shape(built)[1] == job.method.uses_funcptr_shim

    def test_the_product_is_validated(self):
        with pytest.raises(ReproError, match="Fortran"):
            build_binary(correctness_program("c"), "photran")


class TestValidate:
    @pytest.mark.parametrize("bad", BAD_SPECS.values(), ids=list(BAD_SPECS))
    def test_bad_spec_is_refused_before_it_is_built(self, bad):
        spec = JobSpec(app="hello", nvp=2, **bad)
        spec.digest()                       # constructs and digests ...
        assert JobSpec.from_dict(spec.to_dict()) == spec   # ... and loads
        with pytest.raises(ReproError):
            spec.validate()
        with pytest.raises(ReproError):
            build_job(spec)

    def test_stored_record_naming_an_unknown_method_still_loads(self):
        spec = JobSpec(app="hello", nvp=2)
        job = build_job(spec)
        d = RunRecord.from_run(spec, job, job.run()).to_dict()
        d["spec"]["method"] = "retired-method"
        assert RunRecord.from_dict(d).spec.method == "retired-method"


class TestEncodingFollowsTheFields:
    #: a second legal value for every field
    OTHER = dict(
        app="pingpong", nvp=3, app_config={"x": 1}, method="none",
        machine="bridges2", layout=(1, 2, 1), lb_strategy="greedy",
        optimize=0, stack_bytes=1 << 15, slot_size=1 << 26,
        placement="roundrobin", argv=("a",), fault_plan={"seed": 1},
        ft_interval_ns=5, transport="reliable", recovery="local",
        sanitize=True,
    )

    def test_every_field_is_encoded_and_keyed(self):
        base = JobSpec(app="hello", nvp=2)
        names = [f.name for f in dataclasses.fields(JobSpec)]
        assert sorted(names) == sorted(self.OTHER) == sorted(base.to_dict())
        for name in names:
            other = dataclasses.replace(base, **{name: self.OTHER[name]})
            assert other.digest() != base.digest(), name


class TestRunApp:
    def test_run_adcirc_and_run_jacobi_are_recorded(self, tmp_path):
        store = ProvenanceStore(tmp_path / "store")
        disable = enable_auto_record(store)
        try:
            run_adcirc(AdcircConfig(width=16, height=32, steps=4), 4)
            run_jacobi(JacobiConfig(n=8, iters=2), 4)
        finally:
            disable()
        assert sorted(r.spec.app for r in store.records()) == [
            "adcirc", "jacobi3d"]

    @pytest.mark.parametrize("unnamed", [
        {"method": get_method("pieglobals")},
        {"lb_strategy": get_strategy("greedyrefine")},
        {"machine": GENERIC_LINUX.copy_with(cores_per_node=6)},
    ], ids=["method-instance", "strategy-instance", "copy_with-machine"])
    def test_direct_branch_runs_the_same_timeline(self, unnamed, tmp_path):
        store = ProvenanceStore(tmp_path / "store")
        disable = enable_auto_record(store)
        try:
            spec_job, _ = run_app("jacobi3d", {"n": 8, "iters": 2}, 4)
            direct_job, _ = run_app("jacobi3d", {"n": 8, "iters": 2}, 4,
                                    **unnamed)
        finally:
            disable()
        assert len(store) == 1                  # the direct run has no name
        assert (timeline_sha(direct_job.scheduler.timeline)
                == timeline_sha(spec_job.scheduler.timeline))


#: `probe_method` rows as the parent commit (one probe job per
#: `if method_name == ...`) produced them:
#: (automation, smp_support, migration, privatizes g/s/t/c, works_on)
_ALL = ("bridges2", "legacy-linux-old-ld", "stampede2-icx", "macos-arm",
        "bridges2-patched-glibc")
_GLIBC = tuple(m for m in _ALL if m != "macos-arm")
PARENT_ROWS = {
    "manual": ("Poor", "Yes", "Yes", (1, 1, 1, 1), _ALL),
    "photran": ("Fortran-specific", "Yes", "Yes", (1, 1, 1, 1), _ALL),
    "swapglobals": ("No static vars", "No", "Yes", (1, 0, 0, 1),
                    ("legacy-linux-old-ld",)),
    "tlsglobals": ("Mediocre", "Yes", "Yes", (0, 0, 1, 1), _ALL),
    "mpc": ("Good", "Yes", "Not implemented, but possible", (1, 1, 1, 1),
            ("stampede2-icx",)),
    "pipglobals": ("Good", "Limited w/o patched glibc", "No", (1, 1, 1, 1),
                   _GLIBC),
    "fsglobals": ("Good", "Yes", "No", (1, 1, 1, 1), _GLIBC),
    "pieglobals": ("Good", "Yes", "Yes", (1, 1, 1, 1), _GLIBC),
}


class TestProbeRows:
    def test_table_covers_table3(self):
        assert tuple(PARENT_ROWS) == TABLE3_METHODS

    @pytest.mark.parametrize("name", TABLE3_METHODS)
    def test_row_equals_the_parents(self, name):
        row = probe_method(name)
        caps = get_method(name).capabilities
        flags = tuple(int(row.privatizes[k])
                      for k in ("global", "static", "tls", "const"))
        assert (row.automation, row.smp_support, row.migration, flags,
                row.works_on) == PARENT_ROWS[name]
        assert (row.method, row.display_name, row.portability) == (
            name, caps.method, caps.portability)
