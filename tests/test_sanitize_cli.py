"""CLI surface of the sanitizer: ``repro check`` and ``repro run
--sanitize`` exit codes, JSON shapes, and error handling."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.sanitize.fixtures import EXPECTED


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
        assert {r["target"] for r in payload} == {"hello", "jacobi", "probe"}
        assert all(r["ok"] for r in payload)


class TestRunSanitize:
    def test_flag_parses(self):
        args = build_parser().parse_args(["run", "fig6", "--sanitize"])
        assert args.sanitize is True

    def test_rejected_for_untraceable_experiment(self, capsys):
        assert main(["run", "adcirc", "--sanitize"]) == 2
        assert "--sanitize supports" in capsys.readouterr().err

    def test_clean_experiment_exits_zero(self, capsys):
        assert main(["run", "fig6", "--quick-n", "200", "--sanitize",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sanitize"]["findings"] == []
        assert payload["sanitize"]["dropped"] == 0

    def test_racy_experiment_exits_one(self, capsys):
        # fig7 deliberately includes method `none`, which shares
        # globals across ranks — the sanitizer must flag it.
        assert main(["run", "fig7", "--sanitize", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in payload["sanitize"]["findings"]}
        assert codes & {"race-write-read", "race-write-write"}

    def test_without_flag_no_sanitize_key(self, capsys):
        assert main(["run", "fig6", "--quick-n", "200", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "sanitize" not in payload


class TestParserSurface:
    def test_bench_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_check_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check"])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check", "hello"])
        assert args.method == "pieglobals"
        assert args.nvp == 8
        assert args.static_only is False

    @staticmethod
    def _commands() -> dict:
        """Top-level subcommand name -> its parser."""
        import argparse

        (sub,) = (a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_command_table_documents_every_command(self):
        # The table is the documentation: every registered command has
        # a help line there, and that line is what --help prints.
        from repro.cli import COMMANDS

        commands = self._commands()
        assert set(commands) == set(COMMANDS)
        for name, (_, text) in COMMANDS.items():
            assert text and commands[name].description == text

    def test_manifest_help_names_the_real_default(self):
        # The parser spells the default path out (it must not import
        # the provenance tier to read it); the commands resolve it.
        from repro.provenance import DEFAULT_MANIFEST

        commands = self._commands()
        for name in ("pin", "gc", "serve"):
            parser = commands[name]
            assert parser.get_default("manifest") is None
            assert (f"(default {DEFAULT_MANIFEST})"
                    in " ".join(parser.format_help().split()))
