"""The paper-claims table (``benchmarks/claims.py``) is well formed.

Loaded by path and never run: a broken row fails here, in seconds,
instead of only in the paper-tables job that executes the runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def claims():
    spec = importlib.util.spec_from_file_location(
        "paper_claims", BENCHMARKS / "claims.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_row_ids_are_unique(claims):
    ids = [c.id for c in claims.CLAIMS]
    assert len(ids) == len(set(ids))


def test_each_status_is_one_of_three(claims):
    assert {c.status for c in claims.CLAIMS} <= {
        "reproduced", "shape", "diverges"}


def test_every_divergence_says_why(claims):
    assert all(c.reason.strip() for c in claims.CLAIMS
               if c.status == "diverges")


def test_every_row_reads_a_declared_run(claims):
    assert {c.run for c in claims.CLAIMS} <= set(claims.RUNS)


def test_the_runs_write_exactly_the_committed_results(claims):
    declared = {stem for run in claims.RUNS.values() for stem in run.files}
    committed = {p.stem for p in (BENCHMARKS / "results").glob("*.txt")}
    assert declared | {"claims"} == committed
