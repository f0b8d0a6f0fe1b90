"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.cli.harness import TRACEABLE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])


class TestRunFlags:
    """``--cores``/``--quick-n`` take positive integers, and only a run
    that reads a flag accepts it."""

    @pytest.mark.parametrize("argv", [
        ["run", "adcirc", "--cores", "0"],
        ["run", "adcirc", "--cores", "-2"],
        ["run", "adcirc", "--cores", "1,,2"],
        ["run", "adcirc", "--cores", "2,x"],
        ["run", "fig6", "--quick-n", "0"],
        ["run", "fig6", "--quick-n", "-5"],
        ["trace", "fig6", "--quick-n", "0"],
    ], ids=" ".join)
    def test_a_bad_value_is_a_usage_error(self, argv, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert f"error: {argv[2]}: expected " in err
        assert "positive integer" in err

    @pytest.mark.parametrize("argv, reads", [
        (["run", "fig5", "--cores", "4"], "none"),
        (["run", "fig7", "--quick-n", "10"], "none"),
        (["run", "fig6", "--cores", "1"], "--quick-n"),
        (["run", "adcirc", "--quick-n", "10"], "--cores"),
        (["trace", "fig5", "--quick-n", "500"], "none"),
        (["trace", "fig7", "--quick-n", "500"], "none"),
        (["trace", "fig8", "--quick-n", "500"], "none"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_a_flag_the_run_does_not_read_is_refused(self, argv, reads,
                                                     capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: error: ")
        assert f"{argv[1]} does not read {argv[2]} (flags it reads: " \
               f"{reads})" in captured.err
        assert list(tmp_path.iterdir()) == []   # nothing ran, nothing written

    def test_trace_gives_fig6_its_own_default(self, monkeypatch):
        """``trace`` applies its 2000 yields per rank only to the run
        that reads ``--quick-n`` (fig6) and passes a given value through."""
        from repro.harness import claims

        class Ran(Exception):
            pass

        def execute(**kwargs):
            raise Ran(kwargs.get("quick_n"))

        for name in TRACEABLE:
            monkeypatch.setitem(claims.RUNS, name, dataclasses.replace(
                claims.RUNS[name], execute=execute))
        seen = {}
        for argv in (["fig6"], ["fig6", "--quick-n", "50"], ["fig5"],
                     ["fig7"], ["fig8"]):
            with pytest.raises(Ran) as ran:
                main(["trace", *argv])
            seen[" ".join(argv)] = ran.value.args[0]
        assert seen == {"fig6": 2000, "fig6 --quick-n 50": 50, "fig5": None,
                        "fig7": None, "fig8": None}


class TestCommands:
    def test_list_methods(self, capsys):
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        assert "pieglobals" in out and "swapglobals" in out
        rows = [l for l in out.splitlines() if l.startswith("| ")]
        assert len(rows) == 1 + 13      # header + every registered name

    def test_list_machines(self, capsys):
        assert main(["list-machines"]) == 0
        out = capsys.readouterr().out
        assert "bridges2" in out and "power9" in out

    def test_hello_broken(self, capsys):
        assert main(["hello", "--method", "none", "--vp", "2"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("rank:")]
        assert len(lines) == 2 and lines[0] == lines[1]

    def test_hello_fixed(self, capsys):
        assert main(["hello", "--method", "pieglobals", "--vp", "2"]) == 0
        out = capsys.readouterr().out
        assert "rank: 0" in out and "rank: 1" in out

    def test_probe(self, capsys):
        assert main(["probe", "pipglobals"]) == 0
        out = capsys.readouterr().out
        assert "Limited w/o patched glibc" in out

    def test_run_fig6_quick(self, capsys):
        assert main(["run", "fig6", "--quick-n", "500"]) == 0
        out = capsys.readouterr().out
        assert "ns/switch" in out and "pieglobals" in out

    def test_probe_json(self, capsys):
        import json

        assert main(["probe", "pieglobals", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["method"] == "pieglobals"
        assert obj["migration"] == "Yes"

    def test_run_json(self, capsys):
        import json

        assert main(["run", "fig6", "--quick-n", "200", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["experiment"] == "fig6"
        methods = [r["method"] for r in obj["rows"]]
        assert "pieglobals" in methods and "none" in methods

    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        import json

        from repro.trace import validate_chrome_trace

        out = str(tmp_path / "trace.json")
        assert main(["trace", "fig6", "--quick-n", "50",
                     "--out", out]) == 0
        obj = json.load(open(out))
        assert validate_chrome_trace(obj) == []
        methods = {e["args"]["method"] for e in obj["traceEvents"]
                   if e.get("name") == "ctx-switch"}
        assert len(methods) >= 2
        text = capsys.readouterr().out
        assert "timeline" in text and "wrote" in text
        assert (tmp_path / "trace.json.timeline.txt").exists()

    def test_trace_rejects_untraceable_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "icache"])


class TestFaultsCommand:
    def test_faults_table(self, capsys):
        assert main(["faults", "jacobi", "--kmax", "1"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "recovery" in out
        assert out.count("ok") >= 2

    def test_faults_json(self, capsys):
        import json

        assert main(["faults", "jacobi", "--kmax", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["experiment"] == "faults"
        rows = obj["rows"]
        assert [r["k"] for r in rows] == [0, 1]
        assert all(r["status"] == "ok" for r in rows)
        assert rows[1]["recovery_ns"] > 0
        assert rows[1]["overhead_pct"] > 0

    def test_faults_json_rows_are_self_reproducible(self, capsys):
        """Every row embeds seed + plan + transport + recovery, enough
        to rebuild and re-run it from the JSON alone."""
        import json

        from repro.apps.jacobi3d import JacobiConfig, run_jacobi
        from repro.charm.node import JobLayout
        from repro.ft import FaultPlan

        assert main(["faults", "jacobi", "--kmax", "1", "--nvp", "8",
                     "--nodes", "4", "--transport", "reliable",
                     "--recovery", "local", "--drop", "0.02",
                     "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        row = obj["rows"][1]
        assert row["transport"] == "reliable"
        assert row["recovery"] == "local"
        assert row["seed"] == 20220822
        assert row["plan"]["message_faults"]["drop"] == 0.02
        assert len(row["plan"]["node_crashes"]) == 1
        # Re-run the row from nothing but its own JSON.
        plan = FaultPlan.from_dict(row["plan"])
        cfg = JacobiConfig(n=16, iters=16, reduce_every=4, ckpt_period=2,
                           compute_ns_per_cell=2000.0)
        redo = run_jacobi(
            cfg, 8,
            layout=JobLayout(nodes=4, processes_per_node=1,
                             pes_per_process=2),
            fault_plan=plan, transport=row["transport"],
            recovery=row["recovery"])
        assert redo.makespan_ns == row["makespan_ns"]
        assert redo.exit_values[0] == row["residual"]
        assert sum(redo.rollbacks.values()) == row["rollbacks"]

    def test_faults_local_recovery_flags(self, capsys):
        assert main(["faults", "jacobi", "--kmax", "1",
                     "--transport", "reliable",
                     "--recovery", "local"]) == 0
        out = capsys.readouterr().out
        assert "transport=reliable" in out
        assert "recovery=local" in out
        assert "replayed" in out

    def test_faults_local_recovery_rejects_priced_transport(self, capsys):
        assert main(["faults", "jacobi", "--kmax", "0",
                     "--recovery", "local"]) != 0
        assert "reliable" in capsys.readouterr().err

    def test_faults_unrecoverable_exits_nonzero(self, capsys):
        # One node: a crash takes out every PE, so the sweep's k=1 row
        # fails and the command must report it via the exit status.
        assert main(["faults", "jacobi", "--kmax", "1",
                     "--nodes", "1", "--json"]) == 1
        import json

        obj = json.loads(capsys.readouterr().out)
        assert obj["rows"][0]["status"] == "ok"
        assert obj["rows"][1]["status"].startswith("unrecoverable")

    def test_simulated_failure_exits_nonzero(self, capsys):
        # swapglobals needs a patched glibc: the simulated job aborts
        # and the CLI surfaces it as a nonzero exit with a diagnostic.
        assert main(["hello", "--method", "swapglobals", "--vp", "2"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "UnsupportedToolchain" in err



class TestChaosCommands:
    #: what both campaign engines' ``--json`` reports spell the same way
    SHARED_KEYS = {"seed", "count", "ok", "tally", "kinds", "ledger",
                   "outcomes"}

    def _report(self, capsys, argv, count):
        import json

        assert main(argv + ["--seed", "0", "--count", str(count),
                            "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert self.SHARED_KEYS <= set(obj)
        assert obj["ok"] is True
        assert (obj["seed"], obj["count"]) == (0, count)
        assert len(obj["outcomes"]) == count
        # by status, and by scenario kind: two views of the same outcomes
        assert sum(obj["tally"].values()) == count
        assert sum(obj["kinds"].values()) == count
        return obj

    def test_chaos_run_json(self, capsys):
        obj = self._report(
            capsys, ["chaos", "run", "--no-store", "--quiet"], 3)
        assert set(obj["tally"]) <= {"ok", "unrecoverable"}
        assert obj["ledger"] == {}
        assert all(o["timeline_sha256"] for o in obj["outcomes"])

    def test_chaos_serve_json(self, capsys, tmp_path):
        obj = self._report(
            capsys, ["chaos", "serve", "--root", str(tmp_path)], 2)
        assert obj["tally"] == {"ok": 2}
        assert obj["kinds"] == {"clean": 1, "server-crash": 1}
        assert obj["ledger"]["accepted"] == obj["ledger"]["resolved"] == 2
        assert obj["ledger"]["server_restarts"] == 1

    def test_replay_is_the_one_reexecution_command(self):
        with pytest.raises(SystemExit):
            main(["chaos", "replay", "feedface"])
