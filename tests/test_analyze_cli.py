"""CLI surface of the one diagnostics command, ``repro check``: its
target words, the phases each target runs, the JSON report and the
exit status under its one verdict rule (a warning or an error fails,
info never does)."""

import json

import pytest

from repro.cli import COMMANDS, main
from repro.harness.jobspec import app_names
from repro.sanitize.fixtures import EXPECTED, fixture_names, get_fixture


def check_json(capsys, *argv):
    """Exit status and decoded ``--json`` output of ``repro check``."""
    status = main(["check", *argv, "--json"])
    return status, json.loads(capsys.readouterr().out)


class TestAnalyzeCommand:
    """The targets and flags of the analyzer, through ``check``."""

    def test_app_clean_exit_zero(self, capsys):
        assert main(["check", "hello"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "swapglobals" in out

    def test_fixture_exit_one(self, capsys):
        assert main(["check", "fixture:ana-collective-divergent"]) == 1
        out = capsys.readouterr().out
        assert "comm-collective-divergent" in out

    def test_fixture_json(self, capsys):
        status, obj = check_json(capsys, "fixture:ana-const-write")
        assert status == 1 and obj["ok"] is False
        (finding,) = obj["findings"]
        assert finding["code"] == "pv-const-write"
        assert finding["phase"] == "source"
        assert finding["file"].endswith("fixtures.py")
        assert finding["line"] > 0

    def test_apps_all_clean(self, capsys):
        status, reports = check_json(capsys, "apps")
        assert status == 0
        assert [r["target"] for r in reports] == app_names()
        for r in reports:
            assert r["executed"] and r["findings"] == [], r["target"]

    def test_examples_all_clean(self, capsys):
        # Each example runs in its script's shape: cloud_elasticity
        # resizes to 8 PEs, so it needs its own 16 VPs on 8.
        status, reports = check_json(capsys, "examples")
        assert status == 0
        assert {r["target"]: r["nvp"] for r in reports} == {
            "example:checkpoint_restart": 4,
            "example:cloud_elasticity": 16,
            "example:jacobi3d_overdecomposition": 32,
            "example:method_tour": 4,
            "example:quickstart": 2,
            "example:storm_surge_load_balancing": 32,
        }
        for r in reports:
            assert r["executed"] and r["findings"] == [], r["target"]

    def test_self_lint_clean(self, capsys):
        assert main(["check", "self"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_method_flag(self, capsys):
        # --method is the method a program is built, matched and run
        # under; a fixture brings its own and reports its defect anyway.
        _, obj = check_json(capsys, "hello", "--method", "tlsglobals",
                            "--static-only")
        assert obj["method"] == "tlsglobals"
        assert main(["check", "fixture:ana-method-insufficient",
                     "--method", "pieglobals"]) == 1

    def test_suggest_flag(self, capsys):
        status, obj = check_json(capsys, "jacobi3d", "--suggest",
                                 "--static-only")
        assert status == 0 and obj["ok"] is True
        assert [(f["code"], f["severity"]) for f in obj["findings"]] == [
            ("pv-unneeded-privatization", "info")]

    def test_unknown_target(self, capsys):
        assert main(["check", "no-such-thing"]) == 2

    def test_json_report_shape(self, capsys):
        status, obj = check_json(capsys, "jacobi3d")
        assert status == 0 and obj["ok"] is True
        assert obj["predicted_method"] == "mpc"
        assert set(obj["classifications"]) >= {"omega", "cur_iter"}
        assert obj["findings"] == []
        assert "exchange_halos" in obj["functions"]
        assert obj["executed"] and obj["counters"]["SAN_CHECK"] > 0
        assert obj["features"]["unsafe_statics"] == ["cur_iter"]


class TestCheckPhases:
    def test_check_json_has_phase_fields(self, capsys):
        assert main(["check", "hello", "--json", "--static-only"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert all("phase" in f for f in obj["findings"])

    def test_check_static_errors_gate_execution(self, capsys):
        # A broken method on hello: the compat matrix flags it in the
        # static phase and the sanitized execution never runs.
        assert main(["check", "hello", "--method", "none", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["executed"] is False
        assert {f["phase"] for f in obj["findings"]} == {"static"}

    def test_check_race_fixture_tagged_runtime(self, capsys):
        assert main(["check", "fixture:race-shared-globals",
                     "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["findings"]
        assert {f["phase"] for f in obj["findings"]} == {"runtime"}

    def test_check_analyzer_fixture(self, capsys):
        assert main(["check", "fixture:ana-wallclock"]) == 1
        out = capsys.readouterr().out
        assert "det-wallclock" in out

    def test_check_sanitizer_fixture_tagged(self, capsys):
        assert main(["check", "fixture:reloc-unresolved", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert {f["phase"] for f in obj["findings"]} == {"static"}


class TestCheck:
    def test_clean_target_exits_zero(self, capsys):
        assert main(["check", "hello", "--method", "pieglobals",
                     "--nvp", "4"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "(executed)" in out

    def test_broken_method_exits_one(self, capsys):
        assert main(["check", "hello", "--method", "none",
                     "--nvp", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "compat-unprivatized-global" in out

    def test_static_only_skips_execution(self, capsys):
        assert main(["check", "hello", "--method", "pieglobals",
                     "--nvp", "4", "--static-only"]) == 0
        assert "(executed)" not in capsys.readouterr().out

    def test_fixture_target(self, capsys):
        assert main(["check", "fixture:dup-strong-def", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in payload["findings"]}
        assert codes == EXPECTED["dup-strong-def"]
        assert payload["executed"] is False

    def test_stale_endpoint_fixture_target(self, capsys):
        """The transport/migration race fixture runs through ``repro
        check`` and reports exactly its code, at ERROR severity."""
        assert main(["check", "fixture:stale-endpoint-delivery",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = [f["code"] for f in payload["findings"]]
        assert codes == ["stale-endpoint-delivery"]
        finding = payload["findings"][0]
        assert finding["severity"] == "error"
        assert "endpoint" in finding["fix_hint"]

    def test_unknown_target_exits_two(self, capsys):
        assert main(["check", "no-such-app"]) == 2
        assert "no-such-app" in capsys.readouterr().err

    def test_unknown_fixture_exits_two(self, capsys):
        assert main(["check", "fixture:bogus"]) == 2
        assert "unknown fixture" in capsys.readouterr().err

    def test_json_shape_single_target(self, capsys):
        assert main(["check", "hello", "--method", "pieglobals",
                     "--nvp", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "hello"
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["counters"].get("SAN_CHECK", 0) > 0

    def test_examples_mode_lists_all_targets(self, capsys):
        assert main(["check", "examples", "--method", "pieglobals",
                     "--nvp", "4", "--static-only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert {r["target"] for r in payload} == {
            "example:checkpoint_restart", "example:cloud_elasticity",
            "example:jacobi3d_overdecomposition", "example:method_tour",
            "example:quickstart", "example:storm_surge_load_balancing"}
        assert all(r["ok"] and not r["executed"] for r in payload)


#: ``repro check --json`` of each target before ``check`` took the
#: analyzer's targets (``jacobi3d`` was ``jacobi``): the analysis fields
#: are added, nothing else moves
BEFORE_MERGE = {
    "hello": {"counters": {"SAN_CHECK": 16}, "unsafe_globals": ["my_rank"],
              "unsafe_statics": [], "tls_vars": []},
    "probe": {"counters": {"SAN_CHECK": 56}, "unsafe_globals": ["g_var"],
              "unsafe_statics": ["s_var"], "tls_vars": ["t_var"]},
    "jacobi3d": {"counters": {"SAN_CHECK": 192},
                 "unsafe_globals": ["inv6", "nx", "ny", "nz", "omega",
                                    "residual"],
                 "unsafe_statics": ["cur_iter"], "tls_vars": []},
}


class TestOneCommand:
    def test_analyze_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "apps"])
        assert exc.value.code == 2
        assert "invalid choice: 'analyze'" in capsys.readouterr().err
        assert "analyze" not in COMMANDS and len(COMMANDS) == 17

    def test_jacobi_is_not_an_alias(self, capsys):
        assert main(["check", "jacobi"]) == 2
        assert "unknown check target 'jacobi'" in capsys.readouterr().err

    @pytest.mark.parametrize("target", sorted(BEFORE_MERGE))
    def test_report_is_the_one_check_printed(self, target, capsys):
        status, obj = check_json(capsys, target)
        before = BEFORE_MERGE[target]
        assert status == 0 and obj["ok"] is True and obj["executed"]
        assert (obj["target"], obj["method"], obj["nvp"]) == (
            target, "pieglobals", 8)
        assert obj["findings"] == []
        assert obj["counters"] == before["counters"]
        features = obj["features"]
        assert {k: features[k] for k in ("unsafe_globals", "unsafe_statics",
                                         "tls_vars")} == {
            k: before[k] for k in ("unsafe_globals", "unsafe_statics",
                                   "tls_vars")}
        assert (features["pie"], features["language"]) == (True, "c")
        assert set(obj) >= {"classifications", "inferred_unsafe",
                            "predicted_method", "functions", "unscanned"}

    def test_self_is_one_report(self, capsys):
        status, obj = check_json(capsys, "self")
        assert status == 0
        assert (obj["target"], obj["findings"], obj["ok"]) == ("self", [],
                                                               True)

    @pytest.mark.parametrize("name, status", [
        ("ana-id-key", 1),                  # warning: fails
        ("ana-set-iteration", 1),           # warning: fails
        ("ana-unneeded-privatization", 0),  # info: never fails
    ])
    def test_one_verdict_rule(self, name, status, capsys):
        assert main(["check", f"fixture:{name}"]) == status

    def test_every_fixture_reports_its_codes_in_its_phase(self, capsys):
        status, reports = check_json(capsys, "fixtures")
        assert status == 1
        assert [r["target"] for r in reports] == [
            f"fixture:{n}" for n in fixture_names()]
        assert len(reports) == 32
        for r in reports:
            fx = get_fixture(r["target"].partition(":")[2])
            found = r["findings"]
            assert {f["code"] for f in found} == fx.expected, fx.name
            assert {f["phase"] for f in found} == {fx.phase}, fx.name
            fails = any(f["severity"] != "info" for f in found)
            assert r["ok"] is not fails, fx.name
