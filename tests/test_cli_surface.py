"""The CLI's surface, held fixed while its implementation moves.

``repro.cli`` is a command table plus one module per command family;
these tests pin what a user can observe of it — the commands, every
flag, and the exact stdout and exit status of a representative
invocation of most commands — to what the single-module CLI it replaced
printed.  The expected output lives in ``tests/data/cli_golden.json``;
``python tests/test_cli_surface.py`` rewrites it from whatever ``repro``
is on ``PYTHONPATH`` (review the diff: it is the user-visible change).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.harness.claims import RUNS
from repro.harness.jobspec import code_version

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def flag_surface(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """command -> sorted (dest, option strings, default, choices, nargs,
    type name) of every argument, ``chaos`` subcommands included."""
    out = {}
    for name, sub in _subcommands(parser).items():
        out[prefix + name] = sorted(
            (a.dest, tuple(a.option_strings), a.default,
             list(a.choices) if a.choices is not None else None, a.nargs,
             getattr(a.type, "__name__", None))
            for a in sub._actions
            if not isinstance(a, (argparse._HelpAction,
                                  argparse._SubParsersAction)))
        out.update(flag_surface(sub, prefix + name + " "))
    return out


#: ``flag_surface(build_parser())`` of the single-module ``cli.py``
FLAGS = {
    'list-methods': [],
    'list-machines': [],
    'probe': [('json', ('--json',), False, None, 0, None),
              ('method', (), None, None, None, None)],
    'run': [('cores', ('--cores',), None, None, None, None),
            ('experiment', (), None,
             ['tables', 'fig5', 'fig6', 'fig6-globals', 'fig7', 'fig7-O0',
              'fig8', 'icache', 'adcirc', 'lb', 'pie-memory', 'pie-scan',
              'pip-namespaces', 'dedup'], None, None),
            ('json', ('--json',), False, None, 0, None),
            ('provenance', ('--provenance',), None, None, '?', None),
            ('quick_n', ('--quick-n',), None, None, None, 'int'),
            ('sanitize', ('--sanitize',), False, None, 0, None)],
    'check': [('json', ('--json',), False, None, 0, None),
              ('method', ('--method',), 'pieglobals', None, None, None),
              ('nvp', ('--nvp',), 8, None, None, 'int'),
              ('slot_size', ('--slot-size',), 67108864, None, None, 'int'),
              ('static_only', ('--static-only',), False, None, 0, None),
              ('target', (), None, None, None, None)],
    'analyze': [('json', ('--json',), False, None, 0, None),
                ('method', ('--method',), None, None, None, None),
                ('suggest', ('--suggest',), False, None, 0, None),
                ('target', (), None, None, None, None)],
    'trace': [('capacity', ('--capacity',), 1048576, None, None, 'int'),
              ('experiment', (), None, ['fig5', 'fig6', 'fig7', 'fig8'],
               None, None),
              ('out', ('--out',), None, None, None, None),
              ('quick_n', ('--quick-n',), None, None, None, 'int'),
              ('timeline_out', ('--timeline-out',), None, None, None, None)],
    'claims': [('out', ('--out',), None, None, None, None),
               ('row', ('--row',), None, None, None, None)],
    'faults': [('app', (), None, ['jacobi'], None, None),
               ('corrupt', ('--corrupt',), 0.0, None, None, 'float'),
               ('drop', ('--drop',), 0.0, None, None, 'float'),
               ('duplicate', ('--duplicate',), 0.0, None, None, 'float'),
               ('interval_ns', ('--interval-ns',), 0, None, None, 'int'),
               ('json', ('--json',), False, None, 0, None),
               ('kmax', ('--kmax',), 2, None, None, 'int'),
               ('method', ('--method',), 'pieglobals', None, None, None),
               ('nodes', ('--nodes',), 4, None, None, 'int'),
               ('nvp', ('--nvp',), 8, None, None, 'int'),
               ('provenance', ('--provenance',), None, None, '?', None),
               ('recovery', ('--recovery',), 'global', ['global', 'local'],
                None, None),
               ('seed', ('--seed',), 20220822, None, None, 'int'),
               ('transport', ('--transport',), 'priced',
                ['priced', 'reliable'], None, None)],
    'hello': [('method', ('--method',), 'none', None, None, None),
              ('provenance', ('--provenance',), None, None, '?', None),
              ('vp', ('--vp',), 2, None, None, 'int')],
    'runs': [('json', ('--json',), False, None, 0, None),
             ('store', ('--store',), None, None, None, None)],
    'replay': [('id', (), None, None, None, None),
               ('json', ('--json',), False, None, 0, None),
               ('store', ('--store',), None, None, None, None)],
    'diff': [('a', (), None, None, None, None),
             ('b', (), None, None, None, None),
             ('json', ('--json',), False, None, 0, None),
             ('store', ('--store',), None, None, None, None)],
    'stats': [('compare', ('--compare',), None, None, None, None),
              ('id', (), None, None, None, None),
              ('json', ('--json',), False, None, 0, None),
              ('store', ('--store',), None, None, None, None)],
    'pin': [('action', (), None, ['run', 'update', 'list', 'add', 'rm'],
             None, None),
            ('json', ('--json',), False, None, 0, None),
            ('manifest', ('--manifest',), None, None, None, None),
            ('names', (), None, None, '*', None),
            ('store', ('--store',), None, None, None, None)],
    'gc': [('dry_run', ('--dry-run',), False, None, 0, None),
           ('json', ('--json',), False, None, 0, None),
           ('keep_pinned', ('--keep-pinned',), False, None, 0, None),
           ('manifest', ('--manifest',), None, None, None, None),
           ('max_age_days', ('--max-age-days',), None, None, None, 'float'),
           ('max_bytes', ('--max-bytes',), None, None, None, 'int'),
           ('store', ('--store',), None, None, None, None)],
    'serve': [('chaos_hooks', ('--chaos-hooks',), False, None, 0, None),
              ('gc_every', ('--gc-every',), None, None, None, 'float'),
              ('host', ('--host',), '127.0.0.1', None, None, None),
              ('keep_pinned', ('--keep-pinned',), False, None, 0, None),
              ('manifest', ('--manifest',), None, None, None, None),
              ('max_age_days', ('--max-age-days',), None, None, None,
               'float'),
              ('max_bytes', ('--max-bytes',), None, None, None, 'int'),
              ('max_queue', ('--max-queue',), 256, None, None, 'int'),
              ('port', ('--port',), None, None, None, 'int'),
              ('retries', ('--retries',), 2, None, None, 'int'),
              ('socket', ('--socket',), None, None, None, None),
              ('store', ('--store',), None, None, None, None),
              ('workers', ('--workers',), 2, None, None, 'int')],
    'chaos': [],
    'chaos run': [('count', ('--count',), 50, None, None, 'int'),
                  ('json', ('--json',), False, None, 0, None),
                  ('no_store', ('--no-store',), False, None, 0, None),
                  ('quiet', ('--quiet',), False, None, 0, None),
                  ('seed', ('--seed',), 0, None, None, 'int'),
                  ('store', ('--store',), None, None, None, None)],
    'chaos shrink': [('drill', ('--drill',), False, None, 0, None),
                     ('index', ('--index',), 0, None, None, 'int'),
                     ('json', ('--json',), False, None, 0, None),
                     ('seed', ('--seed',), 0, None, None, 'int'),
                     ('store', ('--store',), None, None, None, None)],
    'chaos serve': [('count', ('--count',), 50, None, None, 'int'),
                    ('json', ('--json',), False, None, 0, None),
                    ('quiet', ('--quiet',), False, None, 0, None),
                    ('root', ('--root',), None, None, None, None),
                    ('seed', ('--seed',), 0, None, None, 'int')],
}


class TestCommandTable:
    def test_table_is_what_the_parser_registers(self):
        assert list(_subcommands(build_parser())) == list(COMMANDS)

    def test_table_alone_answers_for_families_not_imported(self):
        # what main() builds for `hello`: one family real, the rest stubs
        stubbed = _subcommands(build_parser(("harness",)))
        assert list(stubbed) == list(COMMANDS)
        assert stubbed["hello"].get_default("fn") is not None
        assert stubbed["serve"].get_default("fn") is None

    def test_readme_command_reference_is_the_table(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Command reference", 1)[1].split("\n## ")[0]
        listed = {}
        for row in re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M):
            for command in re.findall(r"`([\w-]+)`", row[1]):
                listed[command] = row[0]
        assert listed == {name: home for name, (home, _) in COMMANDS.items()}

    def test_flag_surface_is_the_single_module_clis(self):
        assert flag_surface(build_parser()) == FLAGS


# ---------------------------------------------------------------------------
# stdout + exit status of representative invocations
# ---------------------------------------------------------------------------

#: name -> argv; {store}, {a} and {b} are the two-record store and its
#: record ids, oldest first
INVOCATIONS = {
    "list-methods": ["list-methods"],
    "list-machines": ["list-machines"],
    "probe": ["probe", "pieglobals", "--json"],
    "tables": ["run", "tables"],
    "hello": ["hello", "--vp", "4", "--method", "pieglobals"],
    "run-fig5": ["run", "fig5", "--json"],
    "run-fig6": ["run", "fig6", "--quick-n", "200", "--json"],
    "run-fig7": ["run", "fig7", "--json"],
    "run-fig8": ["run", "fig8", "--json"],
    "run-icache": ["run", "icache", "--json"],
    "run-adcirc": ["run", "adcirc", "--cores", "1,2", "--json"],
    "faults": ["faults", "jacobi", "--kmax", "1", "--json"],
    "check-static": ["check", "fixture:got-dangling", "--json"],
    "check-runtime": ["check", "fixture:race-shared-globals", "--json"],
    "analyze-apps": ["analyze", "apps", "--json"],
    "runs": ["runs", "--store", "{store}", "--json"],
    "stats": ["stats", "{a}", "--store", "{store}", "--json"],
    "stats-compare": ["stats", "{a}", "--compare", "{b}", "--store",
                      "{store}", "--json"],
    "diff": ["diff", "{a}", "{b}", "--store", "{store}", "--json"],
    "replay": ["replay", "{b}", "--store", "{store}", "--json"],
    "gc": ["gc", "--dry-run", "--store", "{store}", "--json"],
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


def two_record_store(root: Path) -> dict[str, str]:
    """Record two hello runs; the ``{store}``/``{a}``/``{b}`` values."""
    store = str(root / "store")
    for vp in ("2", "4"):
        assert run_cli(["hello", "--vp", vp, "--method", "pieglobals",
                        "--provenance", store])[0] == 0
    a, b = (r["run_id"] for r in json.loads(
        run_cli(["runs", "--store", store, "--json"])[1]))
    return {"store": store, "a": a, "b": b}


def observe(name: str, where: dict[str, str]) -> dict:
    """Exit status and stdout of one invocation, with what legitimately
    differs between trees and runs masked: the code version (and the
    record ids derived from it), the store's path, the wall clock."""
    status, out = run_cli([arg.format(**where) for arg in INVOCATIONS[name]])
    for value, mask in ((where["a"], "<run-a>"), (where["a"][:12], "<run-a>"),
                        (where["b"], "<run-b>"), (where["b"][:12], "<run-b>"),
                        (where["store"], "<store>"),
                        (code_version(), "<code-version>")):
        out = out.replace(value, mask)
    out = re.sub(r'"(created_at|elapsed_ms)": [0-9.e+]+', r'"\1": 0', out)
    return {"exit": status, "stdout": out}


@pytest.fixture(scope="module")
def where(tmp_path_factory) -> dict[str, str]:
    return two_record_store(tmp_path_factory.mktemp("cli-surface"))


@pytest.mark.parametrize("name", INVOCATIONS)
def test_stdout_and_exit_status_are_the_single_module_clis(name, where):
    assert observe(name, where) == json.loads(GOLDEN.read_text())[name]


# ---------------------------------------------------------------------------
# one family per command; one table per experiment
# ---------------------------------------------------------------------------

def _families_after(argv: str) -> list[str]:
    from test_import_tiers import loaded, modules_after

    mods = modules_after(f"import repro.cli; repro.cli.main({argv})")
    return [m for m in loaded(mods, "repro.cli") if m != "repro.cli"]


def test_main_imports_only_the_invoked_commands_family(tmp_path):
    assert _families_after("['hello']") == ["repro.cli.harness"]
    assert _families_after(f"['runs', '--store', {str(tmp_path)!r}]") == [
        "repro.cli.provenance"]


#: runs too slow for tier-1 (the paper-tables CI job regenerates their
#: files) -> flags that keep them short
SHORT = {"adcirc": ["--cores", "1,2"]}


def _heads(text: str) -> list[tuple[str, list[str]]]:
    """Each titled table's title and column names."""
    lines = text.splitlines()
    return [(line, lines[i + 2].split()) for i, line in enumerate(lines[:-2])
            if line and line[0] not in "+|" and lines[i + 1].startswith("+")]


@pytest.mark.parametrize("name", [name for name, run in RUNS.items()
                                  if run.files])
def test_run_prints_the_committed_table(name):
    committed = "".join((ROOT / "benchmarks" / "results" / f"{stem}.txt")
                        .read_text() for stem in RUNS[name].files)
    status, out = run_cli(["run", name, *SHORT.get(name, [])])
    assert status == 0
    if name in SHORT:       # the same tables, fewer rows
        assert _heads(out) == _heads(committed)
    else:
        assert out == committed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        place = two_record_store(Path(tmp))
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(
            {name: observe(name, place) for name in INVOCATIONS},
            indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
