"""Checks every row of :data:`claims.CLAIMS`.  Each run executes once
per session, when a row first reads it, and writes its
``results/*.txt``; the last test writes ``results/claims.txt`` with
every row's measured value."""

import pathlib

import pytest

from claims import CLAIMS, RUNS, render, show

RESULTS = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def executed():
    """Run name -> the run's data, executing it on first use."""
    done: dict = {}

    def data(name: str):
        if name not in done:
            run = RUNS[name]
            done[name] = run.execute()
            for stem, text in run.files.items():
                (RESULTS / f"{stem}.txt").write_text(text(done[name]) + "\n")
        return done[name]

    return data


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, executed):
    value = claim.measure(executed(claim.run))
    assert claim.check.test(value), (
        f"measured {show(value)}, needs {claim.check.text}")


def test_every_run_and_the_claims_file(executed):
    for name in RUNS:
        executed(name)
    measured = {c.id: c.measure(executed(c.run)) for c in CLAIMS}
    (RESULTS / "claims.txt").write_text(render(measured))
