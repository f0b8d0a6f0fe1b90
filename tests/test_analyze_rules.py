"""Rule-family tests: seeded fixtures report exactly their codes, and
every bundled app and example analyzes clean."""

import importlib.util

import pytest

from repro.ampi.funcptr import ENTRY_POINTS
from repro.ampi.runtime import AmpiJob
from repro.analyze import analyze_source, classify_globals, build_model
from repro.analyze.fixtures import (
    EXPECTED,
    analyze_fixture,
    fixture_names,
    get_fixture,
)
from repro.analyze.targets import (
    APP_CONFIGS,
    app_source,
    build_example,
    example_names,
)
from repro.charm.node import JobLayout
from repro.errors import DeadlockError
from repro.program.source import Program
from repro.sanitize.findings import Severity
from repro.threads import PooledBackend


class TestFixtures:
    def test_catalog_size(self):
        assert len(fixture_names()) >= 12

    def test_all_rule_families_covered(self):
        heads = {c.split("-")[0] for codes in EXPECTED.values()
                 for c in codes}
        assert heads == {"pv", "mig", "comm", "det"}

    @pytest.mark.parametrize("name", fixture_names())
    def test_exact_codes(self, name):
        report = analyze_fixture(name)
        assert {f.code for f in report.findings} == set(EXPECTED[name])

    @pytest.mark.parametrize("name", fixture_names())
    def test_findings_carry_locations(self, name):
        report = analyze_fixture(name)
        for f in report.findings:
            assert f.phase == "source"
            if f.code != "pv-unneeded-privatization":  # aggregate
                assert f.file and f.file.endswith("fixtures.py")
                assert f.line and f.line > 0

    def test_fixture_clean_without_trigger_kwargs(self):
        # The suggest-mode fixture is clean under default analysis: the
        # info finding is opt-in.
        fx = get_fixture("ana-unneeded-privatization")
        assert analyze_source(fx.build()).ok


class TestAppsAndExamplesClean:
    @pytest.mark.parametrize("app", sorted(APP_CONFIGS))
    def test_app_clean(self, app):
        report = analyze_source(app_source(app), target=app)
        assert report.ok, [f.format() for f in report.findings]

    @pytest.mark.parametrize("name", example_names())
    def test_example_clean(self, name):
        report = analyze_source(build_example(name), target=name)
        assert report.ok, [f.format() for f in report.findings]

    def test_jacobi_checkpoint_config_also_clean(self):
        # The ckpt branch is live under this config: the checkpoint
        # globals are declared, so the analyzer must stay clean.
        from repro.apps import JacobiConfig, build_jacobi_program

        src = build_jacobi_program(JacobiConfig(n=12, iters=4,
                                                ckpt_period=2))
        report = analyze_source(src)
        assert report.ok, [f.format() for f in report.findings]


class TestClassification:
    def test_classes(self):
        p = Program("cls")
        p.add_global("ro", 1)
        p.add_global("once", 0)
        p.add_global("vary", 0)

        @p.function()
        def main(ctx):
            n = ctx.mpi.size()
            ctx.g.once = n
            ctx.g.vary = ctx.mpi.rank()
            return ctx.g.ro

        model = build_model(p.build())
        classes = classify_globals(model)
        assert classes == {"ro": "read-only", "once": "write-once-same",
                           "vary": "rank-varying"}

    def test_loop_write_is_rank_varying(self):
        p = Program("loop")
        p.add_global("it", 0)

        @p.function()
        def main(ctx):
            for i in range(4):
                ctx.g.it = i
            return 0

        model = build_model(p.build())
        assert classify_globals(model)["it"] == "rank-varying"


class TestSeverities:
    def test_unneeded_privatization_is_info(self):
        report = analyze_fixture("ana-unneeded-privatization")
        (f,) = report.findings
        assert f.severity is Severity.INFO

    def test_set_iteration_is_warning(self):
        report = analyze_fixture("ana-set-iteration")
        (f,) = report.findings
        assert f.severity is Severity.WARNING

    def test_divergent_collective_is_error(self):
        report = analyze_fixture("ana-collective-divergent")
        (f,) = report.findings
        assert f.severity is Severity.ERROR


#: arguments that make ``mpi.<op>(...)`` a runnable call, per
#: synchronising entry point (a new one must be added here to pass)
SYNC_CALL_ARGS = {
    "barrier": "", "bcast": "1", "reduce": "1", "allreduce": "1",
    "gather": "1", "allgather": "1", "scatter": "[1, 2]",
    "alltoall": "[1, 2]", "scan": "1", "exscan": "1",
    "reduce_scatter": "[1, 2]", "comm_dup": "", "comm_split": "0",
    "migrate": "", "checkpoint": "", "resize": "1", "finalize": "",
}


def divergent_program(tmp_path, op, delegate=""):
    """``if mpi.rank() == 0: mpi.<op>(...)`` as a real module: the
    analyzer reads function source from its file.  ``delegate="yield
    from "`` writes the body in generator form."""
    path = tmp_path / f"divergent_{op}.py"
    path.write_text(
        "def main(ctx):\n"
        "    if ctx.mpi.rank() == 0:\n"
        f"        {delegate}ctx.mpi.{op}({SYNC_CALL_ARGS[op]})\n"
        "    return 0\n")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    p = Program(f"divergent_{op}")
    p.add_function(module.main, name="main")
    return p.build()


class TestEverySynchronisingEntryPoint:
    """The analyzer's collective set is the table's: whatever every rank
    must enter is flagged when only rank 0 enters it (``comm_dup``,
    ``comm_split`` and ``finalize`` were missing from the hand-kept set
    and analyzed clean while deadlocking at run time)."""

    @pytest.mark.parametrize(
        "op", [e.name for e in ENTRY_POINTS if e.sync])
    def test_rank_divergent_entry_is_flagged(self, tmp_path, op):
        report = analyze_source(divergent_program(tmp_path, op))
        assert [f.code for f in report.findings] == [
            "comm-collective-divergent"]
        assert f"mpi.{op}()" in report.findings[0].message

    def test_runtime_agrees_on_comm_split(self, tmp_path):
        job = AmpiJob(divergent_program(tmp_path, "comm_split"), 2,
                      method="tlsglobals", layout=JobLayout.single(2))
        with pytest.raises(DeadlockError, match="MPI_comm_split"):
            job.run()

    @pytest.mark.parametrize(
        "op", [e.name for e in ENTRY_POINTS if e.sync])
    def test_generator_form_gets_the_same_summary(self, tmp_path, op):
        """The analyzer sees through ``yield from``: same finding, same
        record of the call."""
        plain = divergent_program(tmp_path, op)
        twin = divergent_program(tmp_path, op, delegate="yield from ")
        report = analyze_source(twin)
        assert [f.code for f in report.findings] == [
            "comm-collective-divergent"]
        assert f"mpi.{op}()" in report.findings[0].message
        assert (build_model(twin).summaries["main"].mpi
                == build_model(plain).summaries["main"].mpi)

    def test_runtime_agrees_on_generator_form_too(self, tmp_path):
        pool = PooledBackend()
        job = AmpiJob(divergent_program(tmp_path, "comm_split",
                                        delegate="yield from "), 2,
                      method="tlsglobals", layout=JobLayout.single(2),
                      ult_backend=pool)
        with pytest.raises(DeadlockError, match="MPI_comm_split"):
            job.run()
        assert pool.binds == 0
        pool.close()


class TestTagMatching:
    def test_computed_tags_are_wildcards(self):
        # jacobi3d computes its halo tags; the analyzer must treat the
        # dynamic expressions as matching anything.
        report = analyze_source(app_source("jacobi3d"))
        assert not [f for f in report.findings
                    if f.code == "comm-tag-mismatch"]

    def test_matched_constants_clean(self):
        p = Program("tags")

        @p.function()
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                ctx.mpi.send(1, 1, 5)
                return ctx.mpi.recv(source=1, tag=6)
            if me == 1:
                got = ctx.mpi.recv(source=0, tag=5)
                ctx.mpi.send(got, 0, 6)
            return 0

        report = analyze_source(p.build())
        assert not [f for f in report.findings
                    if f.code == "comm-tag-mismatch"]
