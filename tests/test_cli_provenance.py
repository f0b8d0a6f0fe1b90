"""CLI tests for the provenance commands (runs/replay/diff/stats/pin/gc)
and the ``--provenance`` recording flag."""

import json

import pytest

from repro.cli import main
from repro.provenance import ProvenanceStore


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch, tmp_path):
    """Point the default store inside tmp and run from there."""
    monkeypatch.delenv("REPRO_PROVENANCE", raising=False)
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


def _record_two(store_dir, capsys):
    """Two hello runs (nvp 2 and 3); returns their record ids."""
    assert main(["hello", "--method", "pieglobals", "--vp", "2",
                 "--provenance", store_dir]) == 0
    assert main(["hello", "--method", "pieglobals", "--vp", "3",
                 "--provenance", store_dir]) == 0
    capsys.readouterr()
    ids = ProvenanceStore(store_dir).ids()
    assert len(ids) == 2
    return ids


class TestRecordingFlag:
    def test_provenance_flag_records(self, store_dir, capsys):
        assert main(["hello", "--method", "pieglobals", "--vp", "2",
                     "--provenance", store_dir]) == 0
        err = capsys.readouterr().err
        assert "provenance: recorded" in err
        assert len(ProvenanceStore(store_dir)) == 1

    def test_cache_hit_reported(self, store_dir, capsys):
        main(["hello", "--method", "pieglobals", "--vp", "2",
              "--provenance", store_dir])
        main(["hello", "--method", "pieglobals", "--vp", "2",
              "--provenance", store_dir])
        assert "cache hit" in capsys.readouterr().err
        assert len(ProvenanceStore(store_dir)) == 1

    def test_bare_flag_uses_default_dir(self, tmp_path, capsys):
        assert main(["hello", "--method", "pieglobals", "--vp", "2",
                     "--provenance"]) == 0
        assert len(ProvenanceStore(tmp_path / ".repro/store")) == 1

    def test_env_var_enables_recording(self, monkeypatch, store_dir,
                                       capsys):
        monkeypatch.setenv("REPRO_PROVENANCE", store_dir)
        assert main(["hello", "--method", "pieglobals", "--vp", "2"]) == 0
        assert len(ProvenanceStore(store_dir)) == 1

    def test_no_flag_no_recording(self, tmp_path, capsys):
        assert main(["hello", "--method", "pieglobals", "--vp", "2"]) == 0
        assert not (tmp_path / ".repro").exists()

    def test_faults_sweep_records_every_run(self, store_dir, capsys):
        assert main(["faults", "jacobi", "--kmax", "1",
                     "--provenance", store_dir]) == 0
        # Baseline + k=1, distinct specs.
        assert len(ProvenanceStore(store_dir)) == 2


class TestRunsCommand:
    def test_lists_records(self, store_dir, capsys):
        _record_two(store_dir, capsys)
        assert main(["runs", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "hello" in out and "2 records" in out

    def test_json(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        assert main(["runs", "--store", store_dir, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["run_id"] for r in rows} == set(ids)

    def test_empty_store(self, store_dir, capsys):
        assert main(["runs", "--store", store_dir]) == 0
        assert "no records" in capsys.readouterr().out


class TestReplayCommand:
    def test_replay_ok(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        assert main(["replay", ids[0][:10], "--store", store_dir]) == 0
        assert capsys.readouterr().out.startswith(f"ok   {ids[0][:12]}: ")

    def test_replay_json(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        assert main(["replay", ids[0], "--store", store_dir,
                     "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True and obj["drift"] == {}
        assert obj["run_id"] == ids[0]
        assert obj["expected_sha256"] == obj["actual_sha256"]
        assert obj["code_version_changed"] is False

    def test_unknown_id_exits_1(self, store_dir, capsys):
        _record_two(store_dir, capsys)
        assert main(["replay", "feedface", "--store", store_dir]) == 1
        assert "no record matching" in capsys.readouterr().err


class TestDiffCommand:
    def test_diff_two_runs(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        rc = main(["diff", ids[0], ids[1], "--store", store_dir])
        assert rc == 1                      # different runs -> nonzero
        out = capsys.readouterr().out
        assert "diverge at event index" in out
        assert "nvp" in out                  # spec diff names the field

    def test_diff_json(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        main(["diff", ids[0], ids[1], "--store", store_dir, "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["identical"] is False
        assert obj["divergence"]["kind"] in (
            "retimed", "reordered", "truncated")
        assert "nvp" in obj["spec_diffs"]

    def test_diff_same_record(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        assert main(["diff", ids[0], ids[0], "--store", store_dir]) == 0
        assert "IDENTICAL" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_report(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        assert main(["stats", ids[0], "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "Per-PE utilization" in out and "makespan_ns" in out

    def test_stats_compare(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        assert main(["stats", ids[0], "--compare", ids[1],
                     "--store", store_dir]) == 0
        assert "delta" in capsys.readouterr().out

    def test_stats_json(self, store_dir, capsys):
        ids = _record_two(store_dir, capsys)
        assert main(["stats", ids[0], "--store", store_dir,
                     "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["run_id"] in ids
        assert obj["per_pe"]


class TestPinCommand:
    def test_add_list_run_rm(self, store_dir, tmp_path, capsys):
        ids = _record_two(store_dir, capsys)
        manifest = str(tmp_path / "pins.json")
        assert main(["pin", "add", "hello-a", ids[0],
                     "--store", store_dir, "--manifest", manifest]) == 0
        assert main(["pin", "list", "--manifest", manifest]) == 0
        assert "hello-a" in capsys.readouterr().out
        assert main(["pin", "run", "--manifest", manifest]) == 0
        assert "ok   hello-a" in capsys.readouterr().out
        assert main(["pin", "rm", "hello-a", "--manifest", manifest]) == 0
        assert main(["pin", "list", "--manifest", manifest]) == 0
        assert "no pinned scenarios" in capsys.readouterr().out

    def test_run_empty_manifest_is_an_error(self, tmp_path, capsys):
        assert main(["pin", "run", "--manifest",
                     str(tmp_path / "none.json")]) == 2

    def test_pin_run_json(self, store_dir, tmp_path, capsys):
        ids = _record_two(store_dir, capsys)
        manifest = str(tmp_path / "pins.json")
        main(["pin", "add", "a", ids[0], "--store", store_dir,
              "--manifest", manifest])
        capsys.readouterr()
        assert main(["pin", "run", "--manifest", manifest,
                     "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert obj["results"][0]["name"] == "a"


class TestGcCommand:
    def test_gc_respects_pins(self, store_dir, tmp_path, capsys):
        ids = _record_two(store_dir, capsys)
        manifest = str(tmp_path / "pins.json")
        main(["pin", "add", "keeper", ids[0], "--store", store_dir,
              "--manifest", manifest])
        capsys.readouterr()
        assert main(["gc", "--store", store_dir, "--keep-pinned",
                     "--manifest", manifest, "--max-bytes", "0"]) == 0
        assert "protected 1 pinned" in capsys.readouterr().out
        assert ProvenanceStore(store_dir).ids() == [ids[0]]

    def test_gc_dry_run_json(self, store_dir, capsys):
        _record_two(store_dir, capsys)
        assert main(["gc", "--store", store_dir, "--max-bytes", "0",
                     "--dry-run", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dry_run"] is True and obj["deleted"] == 2
        assert len(ProvenanceStore(store_dir)) == 2
