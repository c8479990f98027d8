"""The CLI builds only the invoked subcommand's parser; these tests pin that
it parses, prints and exits exactly as the parser of every subcommand does,
in process and from a shell."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import vulngraph
from vulngraph import fixtures
from vulngraph.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _subparsers(parser):
    (action,) = (a for a in parser._actions if a.dest == "command")
    return action.choices


FULL = _subparsers(build_parser())


def _full(argv):
    """Exit code of the parser of every subcommand on ``argv``, as ``main``
    reports a usage error (2) or help (0)."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return None


def _valid(name):
    """``name`` with a value for each required option (a choice where the
    option has choices)."""
    argv = [name]
    for action in FULL[name]._actions:
        if action.required:
            argv += [action.option_strings[0], action.choices[0] if action.choices else "x"]
    return argv


def _bad_cases(name):
    valid = _valid(name)
    yield [name, "-h"]
    yield [name]
    for i in range(1, len(valid), 2):
        yield valid[:i] + valid[i + 2:]  # one required option missing
    yield [*valid, "--no-such-option"]
    yield [*valid, "stray"]
    for action in FULL[name]._actions:
        if action.choices:
            yield [*valid, action.option_strings[0], "no-such-choice"]
        if action.type is float:
            yield [*valid, action.option_strings[0], "nope"]


BAD = [argv for name in FULL for argv in _bad_cases(name)]
BAD += [[], ["-h"], ["--help"], ["nonsense"], ["nonsense", "--timeline", "x"], ["--"],
        ["--", "metrics"], ["-x", "metrics"]]


@pytest.mark.parametrize("columns", ["100", "40"])
@pytest.mark.parametrize("argv", BAD, ids=" ".join)
def test_usage_errors_and_help_match_the_full_parser(argv, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", columns)
    want = _full(argv)
    full_out, full_err = capsys.readouterr()
    assert want is not None, argv
    assert main(argv) == want
    assert capsys.readouterr() == (full_out, full_err)
    assert full_out or full_err


def _readme_argvs():
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    return [shlex.split(line.split(" > ")[0])[1:] for line in text.splitlines()
            if line.startswith("vulngraph ")]


def _benchmark_argvs():
    """The command mix the benchmark runs, one argv per command."""
    tl, cat = "tl.json", "cat.json"
    return [
        ["build", "--sut", "cpe:2.3:a:acme:box:1.0:*:*:*:*:*:*:*", "--manifest", "m.json",
         "--catalog", cat, "--at", "2021-01-01T00:00:00Z", "--epoch", "V1", "--out", "o.json"],
        ["event", "--timeline", tl, "--catalog", cat, "--kind", "asset-updated",
         "--asset", "a", "--cpe", "cpe:2.3:a:acme:a:2.0:*:*:*:*:*:*:*",
         "--at", "2021-02-01T00:00:00Z", "--out", "e.json", "--fixes", "CVE-2020-0001"],
        ["report", "--timeline", tl, "--catalog", cat, "--format", "markdown"],
        ["metrics", "--timeline", tl, "--json"],
        ["prioritize", "--timeline", tl, "--json"],
        ["export", "--timeline", tl, "--show-deprecated"],
        ["export", "--timeline", tl, "--full-labels"],
        ["cluster", "--timeline", tl, "--criterion", "cvss-below", "--threshold", "6.0"],
        ["impact", "--timeline", tl, "--cve", "CVE-2020-0001"],
        ["alerts", "--timeline", tl, "--cvss-at-least", "9.0", "--metric-bound", "M0:>=:1.0"],
        ["diff", "--timeline", tl, "--from-epoch", "V1", "--to-epoch", "V3", "--json"],
    ]


def test_readme_examples_cover_every_read_command():
    assert {argv[0] for argv in _readme_argvs()} >= set(FULL) - {"event", "ingest", "build"}


@pytest.mark.parametrize("argv", _readme_argvs() + _benchmark_argvs(), ids=" ".join)
def test_one_subcommand_parser_gives_the_same_namespace(argv):
    assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("name", list(FULL))
def test_a_subcommand_parser_holds_only_that_subcommand(name):
    assert list(_subparsers(build_parser(name))) == [name]


def _shell(*args):
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(vulngraph.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_shell_run_prints_what_main_prints(monkeypatch, capsys):
    argv = ["metrics", "--timeline", str(fixtures.openplc_timeline_path()), "--json"]
    run = _shell("-m", "vulngraph.cli", *argv)
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")


def test_shell_run_without_arguments_prints_the_full_usage(monkeypatch, capsys):
    run = _shell("-m", "vulngraph.cli")
    monkeypatch.setenv("COLUMNS", "80")
    assert main([]) == 2
    err = capsys.readouterr().err
    assert (run.returncode, run.stdout, run.stderr) == (2, "", err)
    assert "{ingest,build,event,metrics,prioritize,cluster,impact,export,report,alerts,diff}" in err
    assert "required: command" in err


def test_import_leaves_datetime_and_csv_unloaded():
    run = _shell("-c", "import sys, vulngraph.cli; "
                       "print(sorted({'datetime', 'csv'} & set(sys.modules)))")
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr
