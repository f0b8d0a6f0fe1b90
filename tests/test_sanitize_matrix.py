"""Satellite: the privatization-compatibility matrix.

Every registered method x every probe feature class: the static
prediction (`predict_privatization`, what ``repro check`` reports) must
agree with the *executed* probe (`probe_correctness`, which actually
runs the program and checks per-rank values survived).
"""

from __future__ import annotations

import pytest

from repro.ampi.runtime import build_binary
from repro.harness.capabilities import (
    _probe_machine,
    correctness_program,
    probe_correctness,
)
from repro.privatization.registry import get_method, method_names
from repro.sanitize import compat_findings, predict_privatization

#: probe variable -> verdict key of probe_correctness
FEATURE_VARS = {
    "g_var": "global",
    "s_var": "static",
    "t_var": "tls",
    "ro_var": "const",
}


def _probe_binary(method_name: str):
    method = get_method(method_name)
    return build_binary(correctness_program(method.source_language), method,
                        _probe_machine(method), optimize=1)


@pytest.mark.parametrize("method_name", method_names())
def test_prediction_matches_executed_probe(method_name):
    binary = _probe_binary(method_name)
    predicted = predict_privatization(method_name, binary)
    executed = probe_correctness(method_name)
    for var, key in FEATURE_VARS.items():
        assert predicted[var] == executed[key], (
            f"{method_name}: check predicts {var} "
            f"{'ok' if predicted[var] else 'broken'} but the executed "
            f"probe says {key}={'ok' if executed[key] else 'broken'}"
        )


@pytest.mark.parametrize("method_name", method_names())
def test_compat_findings_cover_exactly_the_broken_features(method_name):
    """One compat finding per feature the executed probe calls broken."""
    binary = _probe_binary(method_name)
    executed = probe_correctness(method_name)
    flagged = {f.symbol for f in compat_findings(binary, method_name)
               if f.code.startswith("compat-") and f.symbol}
    expect = {var for var, key in FEATURE_VARS.items() if not executed[key]}
    assert flagged == expect
