"""Analyzer <-> runtime agreement over the app x method matrix.

The analyzer's inferred privatization surface must reproduce what the
runtime correctness probes measure: for every method, static
sufficiency equals the probe's verdict on the classes the program
actually exercises rank-divergently.
"""

import pytest

from repro.analyze import (
    analyze_source,
    build_model,
    cost_order,
    inferred_unsafe,
    method_sufficient,
    predict_min_method,
)
from repro.analyze.rules import var_class
from repro.analyze.targets import APP_CONFIGS, app_source
from repro.harness.capabilities import correctness_program, probe_correctness
from repro.privatization.registry import get_method

#: python-simulated methods the probe can execute (photran is the
#: Fortran-only entry in Table 1)
MATRIX_METHODS = ("none", "manual", "swapglobals", "tlsglobals", "mpc",
                  "pipglobals", "fsglobals", "pieglobals")


class TestProbeAgreement:
    @pytest.mark.parametrize("method", MATRIX_METHODS)
    def test_static_sufficiency_matches_probe(self, method):
        src = correctness_program()
        model = build_model(src)
        need = inferred_unsafe(model)
        static_ok = method_sufficient(src, method, model=model)
        if method == "none":
            # The probe program always writes rank-divergently; "none"
            # is statically insufficient and needs no runtime run.
            assert need and not static_ok
            return
        verdict = probe_correctness(method)
        classes = {var_class(src.var(n)) for n in need}
        runtime_ok = all(verdict[c] for c in classes)
        assert static_ok == runtime_ok

    def test_inferred_surface_is_exact(self):
        src = correctness_program()
        need = set(inferred_unsafe(build_model(src)))
        # g_var/s_var/t_var are written with the rank; ro_var is const.
        assert need == {"g_var", "s_var", "t_var"}


class TestPrediction:
    def test_probe_program_needs_full_coverage(self):
        # A static var rules out swapglobals/tlsglobals; mpc is the
        # cheapest that privatizes all three classes.
        assert predict_min_method(correctness_program()) == "mpc"

    @pytest.mark.parametrize("app", sorted(APP_CONFIGS))
    def test_predicted_method_is_minimal_and_sufficient(self, app):
        src = app_source(app)
        model = build_model(src)
        predicted = predict_min_method(src, model=model)
        assert predicted is not None
        assert method_sufficient(src, predicted, model=model)
        # Everything cheaper must be insufficient — minimality.
        order = cost_order()
        for name in order[:order.index(predicted)]:
            assert not method_sufficient(src, name, model=model)

    def test_prediction_vs_declared_surface(self):
        # The declared surface (unsafe_vars) can only be wider than the
        # inferred one: declarations admit writes that never happen.
        for app in sorted(APP_CONFIGS):
            src = app_source(app)
            inferred = set(inferred_unsafe(build_model(src)))
            declared = {v.name for v in src.unsafe_vars()}
            assert inferred <= declared

    def test_prediction_recorded_in_report(self):
        report = analyze_source(correctness_program())
        assert report.predicted_method == "mpc"
        assert report.inferred_unsafe == ["g_var", "s_var", "t_var"]


class TestMethodInsufficientFinding:
    @pytest.mark.parametrize("method", MATRIX_METHODS[1:])
    def test_finding_iff_statically_insufficient(self, method):
        src = correctness_program()
        report = analyze_source(src, method=method)
        flagged = {f.symbol for f in report.findings
                   if f.code == "pv-method-insufficient"}
        m = get_method(method)
        expect = {n for n in report.inferred_unsafe
                  if not m.privatizes_var(src.var(n))}
        assert flagged == expect
