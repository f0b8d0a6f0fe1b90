"""One verdict: "did this run reproduce?" has one definition.

``repro replay``, ``repro pin run``, ``verify_pin``, ``replay_record``
and the chaos replay invariant all read :func:`repro.provenance.drift`;
these tests hold them to one answer about the same pair of runs — also
when only a counter moved (no simulated time does), and also for a
stored *unrecoverable* record.
"""

import copy

import pytest

from repro.ampi.runtime import AmpiJob
from repro.chaos import check_replay, generate_scenario, run_scenario
from repro.charm.scheduler import JobScheduler
from repro.cli import main
from repro.harness.jobspec import JobSpec
from repro.perf.counters import EV_MSG_SENT
from repro.provenance import (
    PinEntry,
    ProvenanceStore,
    drift,
    record_run,
    replay_record,
    save_manifest,
    verify_pin,
)

SPEC = JobSpec(app="jacobi3d", nvp=8,
               app_config={"n": 12, "iters": 4, "reduce_every": 2})


@pytest.fixture
def store(tmp_path):
    return ProvenanceStore(tmp_path / "store")


def _completed(store):
    return record_run(SPEC, store).record


def _unrecoverable(store):
    """Seed-0 chaos scenario #18: a one-node job whose only node crashes
    mid-run — 37 quanta, then a structured ``no-survivor`` death."""
    out = run_scenario(generate_scenario(0, 18), store=store,
                       replay=False, shrink=False)
    record = store.get(out.run_id)
    assert record.unrecoverable_reason == "no-survivor" and record.events
    return record


def _bump_a_counter(monkeypatch):
    """A counter-only change: no simulated instant moves."""
    orig = AmpiJob._result

    def bumped(self):
        result = orig(self)
        result.counters.incr(EV_MSG_SENT)
        return result

    monkeypatch.setattr(AmpiJob, "_result", bumped)


def _shift_every_wakeup(monkeypatch):
    orig = JobScheduler.wake
    monkeypatch.setattr(
        JobScheduler, "wake",
        lambda self, rank, at_time: orig(self, rank, at_time + 1))


def _verdicts(record, store, tmp_path):
    """Every tool's answer to "did ``record`` reproduce?"."""
    entry = PinEntry.from_record("pinned", record)
    manifest = str(tmp_path / "pins.json")
    save_manifest(manifest, {entry.name: entry})
    return {
        "replay_record": replay_record(record).ok,
        "verify_pin": verify_pin(entry).ok,
        "check_replay": check_replay(replay_record(record)) is None,
        "repro replay": main(["replay", record.run_id,
                              "--store", str(store.root)]) == 0,
        "repro pin run": main(["pin", "run", "--manifest", manifest]) == 0,
    }


@pytest.mark.parametrize("make", [_completed, _unrecoverable])
class TestOneAnswer:
    def test_unperturbed_every_tool_says_reproduced(self, make, store,
                                                    tmp_path):
        assert all(_verdicts(make(store), store, tmp_path).values())

    @pytest.mark.parametrize("perturb",
                             [_bump_a_counter, _shift_every_wakeup])
    def test_perturbed_every_tool_says_drifted(self, make, perturb, store,
                                               tmp_path, monkeypatch):
        record = make(store)
        perturb(monkeypatch)
        verdicts = _verdicts(record, store, tmp_path)
        assert not any(verdicts.values()), verdicts


class TestUnrecoverableRunCanBePinned:
    def test_pin_run_reexecutes_it_to_a_result_not_an_exception(
            self, store, tmp_path, capsys):
        entry = PinEntry.from_record("dead-node", _unrecoverable(store))
        report = verify_pin(entry)
        assert report.ok, report.format()
        assert report.record.unrecoverable_reason == "no-survivor"
        manifest = str(tmp_path / "pins.json")
        save_manifest(manifest, {entry.name: entry})
        assert main(["pin", "run", "--manifest", manifest]) == 0
        assert "ok   dead-node" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# drift(), observable by observable
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A faulted run's record: every observable is populated."""
    store = ProvenanceStore(tmp_path_factory.mktemp("drift"))
    out = run_scenario(generate_scenario(0, 18), store=store,
                       replay=False, shrink=False)
    return store.get(out.run_id).to_dict()


def _changed(d, path, value):
    out = node = copy.deepcopy(d)
    *parents, leaf = path
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


#: (path into to_dict(), new value, the drift path it must report)
OBSERVABLES = [
    (("timeline_sha256",), "0" * 64, "timeline_sha256"),
    (("events",), -1, "events"),
    (("makespan_ns",), -1, "makespan_ns"),
    (("startup_ns",), -1, "startup_ns"),
    (("counters", EV_MSG_SENT), -1, f"counters.{EV_MSG_SENT}"),
    (("counters", "only_on_one_side"), 3, "counters.only_on_one_side"),
    (("rollbacks", "0"), 99, "rollbacks.0"),
    (("recoveries",), 99, "recoveries"),
    (("unrecoverable_reason",), "buddy-pair-dead", "unrecoverable_reason"),
    (("pe_stats",), [], "pe_stats"),
    (("migrations",), 99, "migrations"),
    (("lb_moves",), 99, "lb_moves"),
    (("exit_values", "0"), "something else", "exit_values.0"),
]


class TestDrift:
    def test_a_record_reproduces_itself(self, recorded):
        assert drift(recorded, copy.deepcopy(recorded)) == {}

    @pytest.mark.parametrize("path,value,reported", OBSERVABLES,
                             ids=[o[2] for o in OBSERVABLES])
    def test_each_observable_reports_exactly_its_path(self, recorded, path,
                                                      value, reported):
        actual = _changed(recorded, path, value)
        moved = drift(recorded, actual)
        assert list(moved) == [reported]
        # (expected, actual), whichever side the change is on
        assert drift(actual, recorded)[reported] == moved[reported][::-1]

    def test_an_absent_counter_reads_as_zero(self, recorded):
        assert drift(recorded, _changed(
            recorded, ("counters", "never_counted"), 0)) == {}
        assert drift(recorded, _changed(
            recorded, ("counters", "only_on_one_side"), 3)) == {
                "counters.only_on_one_side": (0, 3)}

    @pytest.mark.parametrize("field", ["created_at", "run_id", "code_version",
                                       "spec_digest"])
    def test_identity_and_wall_clock_never_drift(self, recorded, field):
        assert drift(recorded, _changed(recorded, (field,), "other")) == {}

    def test_a_pin_is_judged_on_the_paths_it_carries(self, store):
        record = _completed(store)
        entry = PinEntry.from_record("p", record)
        elsewhere = _changed(_changed(record.to_dict(), ("startup_ns",), -1),
                             ("pe_stats",), [])
        assert drift(entry, elsewhere) == {}
        assert drift(record, elsewhere).keys() == {"startup_ns", "pe_stats"}
        # ... and on every one of those: a counter the pin never saw
        # reads 0 on its side.
        assert drift(entry, _changed(elsewhere, ("counters", "new"), 1)) == {
            "counters.new": (0, 1)}
        assert drift(entry, _changed(elsewhere, ("events",), -1)) == {
            "events": (record.events, -1)}
