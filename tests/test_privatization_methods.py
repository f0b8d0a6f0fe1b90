"""Method-specific behaviours beyond the shared correctness matrix."""

import pytest

from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.errors import (
    NamespaceLimitError,
    PrivatizationError,
    SmpUnsupportedError,
    UnsupportedToolchain,
)
from repro.machine import (
    BRIDGES2_PATCHED_GLIBC,
    MACOS_ARM,
    TEST_MACHINE,
)
from repro.perf.counters import EV_DLMOPEN, EV_DLOPEN
from repro.privatization import get_method, method_names
from repro.privatization.manual import ManualRefactoring
from repro.privatization import registry
from repro.privatization.registry import METHODS, register

from conftest import make_hello, run_job


class TestRegistry:
    def test_all_paper_methods_registered(self):
        expected = {"none", "manual", "photran", "swapglobals",
                    "tlsglobals", "mpc", "pipglobals", "fsglobals",
                    "pieglobals"}
        assert expected <= set(method_names())

    def test_get_method_returns_fresh_instances(self):
        assert get_method("pieglobals") is not get_method("pieglobals")

    def test_get_method_passthrough(self):
        m = get_method("manual")
        assert get_method(m) is m

    def test_unknown_method(self):
        with pytest.raises(PrivatizationError, match="known") as err:
            get_method("magicglobals")
        assert str(err.value).endswith("known: " + ", ".join(sorted(METHODS)))
        assert len(METHODS) == 13

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_every_name_resolves_to_its_table_row(self, name):
        home, cls, options = METHODS[name]
        m = get_method(name)
        assert type(m).__name__ == cls
        assert type(m).__module__ == f"repro.privatization.{home}"
        assert all(getattr(m, k) == v for k, v in options.items())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(PrivatizationError):
            register("manual", ManualRefactoring)

    def test_registered_method_resolves_and_is_listed(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY", {})
        register("manual-again", ManualRefactoring)
        assert isinstance(get_method("manual-again"), ManualRefactoring)
        assert "manual-again" in method_names()
        with pytest.raises(PrivatizationError, match="already registered"):
            register("manual-again", ManualRefactoring)


class TestSwapglobals:
    def test_needs_old_linker(self, tm):
        with pytest.raises(UnsupportedToolchain, match="ld"):
            AmpiJob(make_hello(), 2, method="swapglobals", machine=tm)

    def test_smp_mode_rejected(self, tm_old_ld):
        with pytest.raises(SmpUnsupportedError, match="GOT"):
            AmpiJob(make_hello(), 4, method="swapglobals",
                    machine=tm_old_ld, layout=JobLayout.single(2))

    def test_non_smp_runs(self, tm_old_ld):
        result = run_job(make_hello(), 2, method="swapglobals",
                         machine=tm_old_ld, layout=JobLayout(1, 2, 1))
        assert sorted(result.exit_values.values()) == [0, 1]

    def test_got_swap_charged_per_switch(self, tm_old_ld):
        m = get_method("swapglobals")
        assert m.context_switch_extra_ns(tm_old_ld.costs) == \
            tm_old_ld.costs.got_swap_ns


class TestTlsGlobals:
    def test_macos_supported(self):
        # Paper: TLSglobals works on Linux and Mac.
        m = get_method("tlsglobals")
        m.check_supported(MACOS_ARM, JobLayout.single(2))

    def test_untagged_listing(self, tm):
        job = AmpiJob(make_hello(), 2, method="tlsglobals", machine=tm,
                      slot_size=1 << 24)
        untagged = job.method.untagged_unsafe_vars(job.binary)
        assert "my_rank" in untagged

    def test_tls_switch_charged(self, tm):
        m = get_method("tlsglobals")
        assert m.context_switch_extra_ns(tm.costs) == \
            tm.costs.tls_segment_switch_ns


class TestMpc:
    def test_needs_special_compiler(self, tm):
        with pytest.raises(UnsupportedToolchain, match="Intel|patched"):
            AmpiJob(make_hello(), 2, method="mpc", machine=tm)

    def test_everything_lands_in_tls(self, tm_mpc):
        job = AmpiJob(make_hello(), 2, method="mpc", machine=tm_mpc,
                      slot_size=1 << 24)
        assert "my_rank" in job.binary.image.tls
        # safe write-once globals stay shared
        assert "num_ranks" in job.binary.image.data


class TestPipGlobals:
    def test_one_dlmopen_per_rank(self, tm):
        result = run_job(make_hello(), 4, method="pipglobals",
                         layout=JobLayout.single(1))
        assert result.counters[EV_DLMOPEN] == 4

    def test_namespace_limit_fails_high_virtualization(self, tm):
        with pytest.raises(NamespaceLimitError):
            run_job(make_hello(), 13, method="pipglobals",
                    layout=JobLayout.single(1))

    def test_patched_glibc_allows_more(self):
        machine = TEST_MACHINE.copy_with(
            toolchain=BRIDGES2_PATCHED_GLIBC.toolchain)
        result = run_job(make_hello(), 16, method="pipglobals",
                         machine=machine, layout=JobLayout.single(1))
        assert len(result.exit_values) == 16

    def test_limit_is_per_process(self, tm):
        # 16 ranks over 2 processes = 8 namespaces each: fits stock glibc.
        result = run_job(make_hello(), 16, method="pipglobals",
                         layout=JobLayout(1, 2, 1))
        assert sorted(result.exit_values.values()) == list(range(16))

    def test_requires_glibc(self):
        with pytest.raises(UnsupportedToolchain, match="dlmopen"):
            AmpiJob(make_hello(), 2, method="pipglobals",
                    machine=MACOS_ARM)

    def test_requires_pie(self, tm):
        from repro.program.compiler import Compiler, CompileOptions

        binary = Compiler(tm.toolchain).compile(
            make_hello(), CompileOptions(pie=False))
        with pytest.raises(UnsupportedToolchain, match="PIE"):
            AmpiJob(binary, 2, method="pipglobals", machine=tm)


class TestFsGlobals:
    def test_one_file_copy_per_rank(self, tm):
        job = AmpiJob(make_hello(), 4, method="fsglobals", machine=tm,
                      layout=JobLayout.single(2), slot_size=1 << 24)
        job.run()
        # original + 4 per-rank copies
        assert job.sharedfs.file_count() == 5

    def test_one_dlopen_per_rank(self, tm):
        result = run_job(make_hello(), 3, method="fsglobals",
                         layout=JobLayout.single(1))
        assert result.counters[EV_DLOPEN] == 3

    def test_needs_shared_fs(self):
        with pytest.raises(UnsupportedToolchain, match="filesystem"):
            AmpiJob(make_hello(), 2, method="fsglobals", machine=MACOS_ARM)

    def test_shared_objects_unsupported(self, tm):
        from dataclasses import replace

        from repro.program.compiler import Compiler

        binary = Compiler(tm.toolchain).compile(make_hello())
        binary = replace(binary,
                         image=replace(binary.image, needed=["libfoo.so"]))
        with pytest.raises(PrivatizationError, match="shared-object"):
            AmpiJob(binary, 2, method="fsglobals", machine=tm)

    def test_no_namespace_limit(self, tm):
        result = run_job(make_hello(), 20, method="fsglobals",
                         layout=JobLayout.single(2))
        assert len(result.exit_values) == 20


class TestManualAndPhotran:
    def test_refactoring_effort_counts_unsafe_vars(self, tm):
        job = AmpiJob(make_hello(), 2, method="manual", machine=tm,
                      slot_size=1 << 24)
        assert ManualRefactoring.refactoring_effort(job.binary) == 1

    def test_photran_rejects_c(self, tm):
        with pytest.raises(PrivatizationError, match="Fortran"):
            AmpiJob(make_hello("c"), 2, method="photran", machine=tm)

    def test_photran_accepts_fortran(self, tm):
        result = run_job(make_hello("fortran"), 2, method="photran")
        assert sorted(result.exit_values.values()) == [0, 1]
