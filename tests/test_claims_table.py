"""The paper-claims catalogue (:mod:`repro.harness.claims`) is well
formed, and ``repro claims`` checks its rows.

Read, never run (but for two cheap rows): a broken row fails here, in
seconds, instead of only in the paper-tables job that executes the runs."""

import dataclasses
from pathlib import Path

from repro.cli import harness as cli
from repro.harness import claims
from test_cli_surface import run_cli

RESULTS = Path(__file__).parents[1] / "benchmarks" / "results"


def test_row_ids_are_unique():
    ids = [c.id for c in claims.CLAIMS]
    assert len(ids) == len(set(ids))


def test_each_status_is_one_of_three():
    assert {c.status for c in claims.CLAIMS} <= {
        "reproduced", "shape", "diverges"}


def test_every_divergence_says_why():
    assert all(c.reason.strip() for c in claims.CLAIMS
               if c.status == "diverges")


def test_every_row_reads_a_declared_run():
    # and every run is read by a row, so `repro claims --out` writes all
    assert {c.run for c in claims.CLAIMS} == set(claims.RUNS)


def test_the_runs_write_exactly_the_committed_results():
    declared = {stem for run in claims.RUNS.values() for stem in run.files}
    committed = {p.stem for p in RESULTS.glob("*.txt")}
    assert declared | {"claims"} == committed


def test_the_parser_names_the_catalogues_runs():
    assert cli.RUN_NAMES == tuple(claims.RUNS)
    assert cli.TRACEABLE == tuple(
        name for name, run in claims.RUNS.items() if run.traceable)


class TestClaimsCommand:
    ROW = "fig6.independent-of-globals"

    def test_a_holding_row(self):
        status, out = run_cli(["claims", "--row", self.ROW])
        assert status == 0
        assert out.startswith(f"[reproduced] {self.ROW}  (")
        assert "(holds: < 2 apart)" in out

    def test_a_failing_row_exits_1(self, monkeypatch):
        failing = tuple(
            dataclasses.replace(c, check=claims.Check("never",
                                                      lambda _: False))
            if c.id == self.ROW else c for c in claims.CLAIMS)
        monkeypatch.setattr(claims, "CLAIMS", failing)
        status, out = run_cli(["claims", "--row", self.ROW])
        assert status == 1
        assert "(FAILS: never)" in out

    def test_an_unknown_row_exits_2(self):
        assert run_cli(["claims", "--row", "fig6.no-such-row"]) == (2, "")

    def test_out_writes_the_files_of_the_runs_it_executed(self, tmp_path):
        assert run_cli(["claims", "--row", "ablation.pip-namespaces",
                        "--out", str(tmp_path)])[0] == 0
        written = tmp_path / "ablation_pip_namespaces.txt"
        assert [p.name for p in tmp_path.iterdir()] == [written.name]
        assert written.read_text() == (
            RESULTS / "ablation_pip_namespaces.txt").read_text()
