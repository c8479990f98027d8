"""Every ``--json`` report is exactly ``json.dumps(value, indent=2,
sort_keys=True)`` plus a newline, written by ``catalog.indented_text``
through CPython's C encoder.  These tests hold the writer to the stdlib's
text, and the four commands to the writer."""

import json
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_timeline
from vulngraph import fixtures, metrics, report
from vulngraph import timeline as tl_mod
from vulngraph.catalog import indented_text, load_catalog, save_catalog
from vulngraph.cli import main


def _stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Strings with the characters the layout depends on: quotes, backslashes,
# brackets, separators, raw newlines (escaped by ensure_ascii), a row
# boundary as text, NUL, U+2028 and an astral character.
_TEXT = st.lists(st.sampled_from(
    ['"', "\\", "[", "]", "{", "}", ",", ":", " ", "\n", "\x00", "\u2028", "\U0001F600",
     "a", "é", "},\n    {"]), max_size=4).map("".join)
_SCALARS = (st.none() | st.booleans() | st.integers(min_value=-2**100, max_value=2**100)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-0.0, 2**100, float("nan"), float("inf"), float("-inf")])
            | _TEXT)
_FLAT = (st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=4)
         | st.lists(_SCALARS, min_size=1, max_size=4))
_ROWS = st.lists(st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=4), max_size=4)
_VALUES = st.recursive(
    _SCALARS | _ROWS | st.lists(st.lists(_SCALARS, min_size=1, max_size=3), max_size=3),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.lists(_FLAT | st.just({}) | st.just([]), max_size=5)),
    max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(_VALUES)
def test_indented_text_is_the_stdlib_text(value):
    assert indented_text(value) == _stdlib(value)


@pytest.mark.parametrize("value", [
    {1: [1], 2.5: {}, True: [[]]},
    {None: [2]},
    {-0.0: {"x": [1]}},
    {2**70: [1], -1: {"y": None}},
    {float("nan"): [1]},
    [{"b": 1, "a": "},\n    {"}, {"c": [1, 2]}, {"d": 2}],
    [[1, 2], (3,), [4]],
    [{"a": 1}, [2]],
    ({"a": ()}, [{}]),
    "text", 7, None, [], {},
])
def test_indented_text_on_hand_made_values(value):
    assert indented_text(value) == _stdlib(value)


@pytest.mark.parametrize("value", [{(1,): [1]}, [object()], {"a": [set()]}, {"a": object()}])
def test_indented_text_refuses_what_the_stdlib_refuses(value):
    with pytest.raises(TypeError) as stdlib:
        _stdlib(value)
    with pytest.raises(TypeError) as ours:
        indented_text(value)
    assert str(ours.value) == str(stdlib.value)


def test_indented_text_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    value = {"rows": [{"a": 1}, {"b": [2]}], "x": {}}
    assert indented_text(value) == _stdlib(value)


# -- the four commands ---------------------------------------------------------


def _openplc(tmp_path):
    cat, tl = tmp_path / "catalog.json", tmp_path / "timeline.json"
    shutil.copy(fixtures.openplc_catalog_path(), cat)
    shutil.copy(fixtures.openplc_timeline_path(), tl)
    return str(cat), str(tl)


def _generated(tmp_path):
    rng = random.Random(7)
    while True:
        tl, catalog = random_timeline(rng, max_events=10)
        if len(tl.epochs) >= 2:
            break
    cat, path = tmp_path / "gen-catalog.json", tmp_path / "gen-timeline.json"
    save_catalog(catalog, cat)
    tl_mod.save_timeline(tl_mod.embed_snapshots(tl, catalog), path)
    return str(cat), str(path)


def _commands(cat, tl_path):
    """Each ``--json`` command and the payload it writes, from library calls."""
    tl = tl_mod.load_timeline(tl_path)
    catalog = load_catalog(cat)
    first, last = tl.epochs[0].label, tl.epochs[-1].label
    g = tl_mod.epoch_snapshot(tl, catalog, last)
    return [
        (["metrics", "--timeline", tl_path, "--json"], metrics.snapshot_report(g).to_dict()),
        (["prioritize", "--timeline", tl_path, "--json"],
         report._priority_rows(metrics.prioritize(g, 0.0, 10.0, "by_asset"))),
        (["prioritize", "--timeline", tl_path, "--global", "--json"],
         report._priority_rows(metrics.prioritize(g, 0.0, 10.0, "global"))),
        (["report", "--timeline", tl_path, "--catalog", cat, "--format", "json"],
         report.report_payload(tl, catalog)),
        (["diff", "--timeline", tl_path, "--from-epoch", first, "--to-epoch", last, "--json"],
         report.epoch_diff(tl, catalog, first, last)),
    ]


@pytest.mark.parametrize("files", [_openplc, _generated])
def test_json_commands_print_the_stdlib_text(files, tmp_path, capsys):
    cat, tl = files(tmp_path)
    for argv, payload in _commands(cat, tl):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == _stdlib(payload) + "\n", argv


def test_json_commands_never_reach_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    cat, tl = _openplc(tmp_path)
    commands = _commands(cat, tl)
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        _stdlib({"a": [1]})
    for argv, _ in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
