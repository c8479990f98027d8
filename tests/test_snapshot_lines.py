"""Reading a timeline by its snapshot lines.

``save_timeline`` writes each embedded snapshot on a line of its own, and
``load_timeline`` verifies each line by hashing it against its digest.  These
tests hold the line reader to the whole-document decoder on edited texts, and
pin what a read does with a snapshot that does not match its digest: with a
catalog it warns and rebuilds that epoch, without one it exits 2.  A read
refuses a snapshot of another epoch or system that it decodes, whether or
not it matches its digest.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_timeline
from helpers import timeline_text
from vulngraph import fixtures, timeline as tl_mod
from vulngraph.catalog import canonical_json, canonical_text
from vulngraph.cli import main
from vulngraph.errors import SchemaError

TEXT = fixtures.openplc_timeline_path().read_text()
CATALOG = str(fixtures.openplc_catalog_path())
LINES = TEXT.split("\n")
SNAPSHOT_LINES = range(1, len(LINES) - 2)  # the first line opens them, the last closes them


def _whole(text: str):
    """What decoding ``text`` whole gives: a Timeline, or a SchemaError."""
    try:
        return tl_mod.timeline_from_dict(json.loads(text))
    except (ValueError, SchemaError) as exc:
        return exc


def test_the_bundled_timeline_is_read_by_its_lines(monkeypatch):
    assert len(SNAPSHOT_LINES) == 3 and TEXT.count("\n") == 5
    whole = _whole(TEXT)

    def refused(doc):
        raise AssertionError("decoded whole")

    monkeypatch.setattr(tl_mod, "timeline_from_dict", refused)
    tl = tl_mod.load_timeline(fixtures.openplc_timeline_path())
    assert tl == whole and not tl.stale
    assert all(type(text) is str for text in tl.snapshots.values())


def test_a_line_that_is_not_canonical_text_reads_as_its_canonical_text(tmp_path):
    path = tmp_path / "timeline.json"
    path.write_text(TEXT.replace('"V2":{"assets":', '"V2": {"assets" :', 1))
    tl = tl_mod.load_timeline(path)
    assert tl == _whole(TEXT) and not tl.stale


@pytest.mark.parametrize("edit", [
    pytest.param(('"V1":{"assets":', '"V1": {"assets" :'), id="not-canonical"),
    pytest.param(('"cvss":', '"cvss":0.5,"x":'), id="content"),
])
def test_a_line_read_stops_hashing_at_the_first_line_that_does_not_match(
        tmp_path, monkeypatch, edit):
    # V1 is the first snapshot line and the first mark.  The line read hashes
    # it alone and gives up; the whole decode then hashes all three.
    text = TEXT.replace(*edit, 1)
    assert text.split("\n")[1] != LINES[1] and text.split("\n")[2:] == LINES[2:]
    hashed = []
    digester = tl_mod._digester

    def counting(tl):
        digest = digester(tl)
        hashed.append(0)
        n = len(hashed) - 1

        def counted(mark, snapshot_text):
            hashed[n] += 1
            return digest(mark, snapshot_text)
        return counted

    monkeypatch.setattr(tl_mod, "_digester", counting)
    path = tmp_path / "timeline.json"
    path.write_text(text)
    tl = tl_mod.load_timeline(path)
    assert hashed == [1, 3]
    assert tl == _whole(text)
    assert tl.stale == (frozenset() if edit[0].startswith('"V1"') else {"V1"})


# A snapshot line that closes the snapshots and gives other top-level keys,
# which the whole decode reads and the head of the line read lacks.
_ESCAPES = {
    "events-emptied": (-3, lambda line: line + '},"events":[],"zz":{"a":1'),
    "events-not-a-list": (-3, lambda line: line + '},"events":5,"zz":{"a":1'),
    "key-added": (-3, lambda line: line + '},"zz":{"a":1'),
    "snapshots-reopened": (1, lambda line: line[:-1] + '},"events":[],"snapshots":{' + line),
}


@pytest.mark.parametrize("escape", sorted(_ESCAPES))
def test_a_line_that_changes_the_head_reads_as_the_whole_decode(tmp_path, escape):
    at, edit = _ESCAPES[escape]
    lines = list(LINES)
    lines[at] = edit(lines[at])
    text = "\n".join(lines)
    assert tl_mod._split_lines(text) is not None
    whole = _whole(text)
    path = tmp_path / "timeline.json"
    path.write_text(text)
    try:
        tl = tl_mod.load_timeline(path)
    except SchemaError as exc:
        assert isinstance(whole, SchemaError) and str(exc) == str(whole)
        return
    assert tl == whole and (tl.snapshots, tl.stale) == (whole.snapshots, whole.stale)
    assert len(tl.events) == (20 if escape == "key-added" else 0)


def test_the_digests_hash_the_head_as_the_timeline_writes_it(tmp_path):
    # An explicit default is not in the written head, so the file's own text
    # of the head would not match the digests.
    doc = json.loads(TEXT)
    doc["events"][0]["top_level"] = False
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(doc, indent=1))
    tl = tl_mod.load_timeline(path)
    assert tl == _whole(TEXT) and not tl.stale


def test_every_timeline_the_package_writes_is_read_by_its_lines(tmp_path, monkeypatch):
    # A random embedded timeline is read by its lines as the whole decode of
    # its document reads it, and reads the same from other layouts.
    rng = random.Random(0)
    for case in range(100):
        tl, catalog = random_timeline(rng)
        tl = tl_mod.embed_snapshots(tl, catalog)
        doc = tl_mod.timeline_to_dict(tl)
        want = tl_mod.timeline_from_dict(doc)
        path = tmp_path / f"{case}.json"
        tl_mod.save_timeline(tl, path)
        with monkeypatch.context() as patched:
            patched.setattr(tl_mod, "timeline_from_dict", _decoded_whole)
            loaded = tl_mod.load_timeline(path)
        assert loaded == want and not loaded.stale, case
        for write in (canonical_json, lambda value: json.dumps(value, indent=2)):
            path.write_text(write(doc))
            assert tl_mod.load_timeline(path) == want, case


def _decoded_whole(doc):
    raise AssertionError("decoded whole")


_OTHER_LAYOUTS = {
    "one-canonical-document": canonical_json,
    "json-dumps": json.dumps,
    "indented": lambda doc: json.dumps(doc, indent=2),
    "snapshots-twice": lambda doc: canonical_json(doc).replace(
        '"snapshots":{', '"snapshots":{"V9":[]},"snapshots":{', 1),
}


@pytest.mark.parametrize("layout", sorted(_OTHER_LAYOUTS))
def test_other_layouts_read_whole_encoding_each_once(tmp_path, monkeypatch, layout):
    text = _OTHER_LAYOUTS[layout](json.loads(TEXT))
    whole = _whole(text)
    encoded = []

    def spy(value, *args, **kwargs):
        if isinstance(value, dict) and "edges" in value:
            encoded.append(value)
        return dumps(value, *args, **kwargs)

    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", spy)
    path = tmp_path / "timeline.json"
    path.write_text(text)
    assert tl_mod._split_lines(text) is None
    tl = tl_mod.load_timeline(path)
    assert tl == whole and (tl.snapshots, tl.stale) == (whole.snapshots, whole.stale)
    assert not tl.stale
    assert len(encoded) == 3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_an_edited_document_reads_as_its_whole_decode(data):
    text = canonical_json(json.loads(TEXT))
    at = data.draw(st.integers(0, len(text) - 1), "at")
    piece = data.draw(st.sampled_from(["", *_BYTES]), "with")
    text = text[:at] + piece + text[at + 1:]
    whole = _whole(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "timeline.json"
        path.write_text(text)
        try:
            loaded = tl_mod.load_timeline(path)
        except SchemaError:
            return
    assert loaded == whole
    assert (loaded.snapshots, loaded.stale) == (whole.snapshots, whole.stale)


_BYTES = ['"', "{", "}", "[", "]", ",", ":", "\n", " ", "0", "x", "\\"]


def _edit(data, lines: list[str]) -> str:
    """Delete, duplicate or replace a byte of a line, or a whole line, or swap
    two snapshot lines."""
    kind = data.draw(st.sampled_from(["byte", "line", "swap"]), "kind")
    if kind == "swap":
        i, j = (data.draw(st.sampled_from(SNAPSHOT_LINES), "line") for _ in range(2))
        lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines)
    n = data.draw(st.integers(0, len(lines) - 1), "line")
    action = data.draw(st.sampled_from(["delete", "duplicate", "replace"]), "action")
    if kind == "line":
        replacement = {"delete": [], "duplicate": [lines[n]] * 2,
                       "replace": [data.draw(st.sampled_from(LINES), "with")]}[action]
        lines[n:n + 1] = replacement
        return "\n".join(lines)
    line = lines[n]
    at = data.draw(st.integers(0, max(len(line) - 1, 0)), "at")
    piece = {"delete": "", "duplicate": line[at:at + 1] * 2,
             "replace": data.draw(st.sampled_from(_BYTES), "with")}[action]
    lines[n] = line[:at] + piece + line[at + 1:]
    return "\n".join(lines)


def _commands(tl: str, out: str):
    """Each read command, with and without a catalog where it takes one."""
    for catalog in ([], ["--catalog", CATALOG]):
        args = ["--timeline", tl, *catalog]
        yield ["metrics", *args, "--epoch", "V1"]
        yield ["prioritize", *args, "--epoch", "V2"]
        yield ["diff", *args, "--from-epoch", "V1", "--to-epoch", "V3"]
        yield ["export", *args, "--show-deprecated"]
        yield ["impact", *args, "--epoch", "V1", "--cve", "CVE-2012-2333"]
        yield ["alerts", *args, "--cvss-at-least", "9.0"]
    yield ["report", "--timeline", tl, "--catalog", CATALOG, "--out", out]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_an_edited_text_reads_as_its_whole_document_or_not_at_all(data):
    text = _edit(data, list(LINES))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "timeline.json"
        path.write_text(text)
        whole = _whole(text)
        try:
            loaded = tl_mod.load_timeline(path)
        except SchemaError:
            pass
        else:
            assert loaded == whole
            assert (loaded.snapshots, loaded.stale) == (whole.snapshots, whole.stale)
        for argv in _commands(str(path), str(Path(tmp) / "out.txt")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], code, err.getvalue())
            if code == 1:
                assert argv[0] == "alerts" and out.getvalue().startswith("["), out.getvalue()


# -- a snapshot that does not match its digest --------------------------------


def _cut_v1(doc: dict) -> dict:
    """``doc`` with its V1 snapshot cut to 3 CVE edges (M1 = 3, not 91)."""
    v1 = doc["snapshots"]["V1"]
    cve_edges = [e for e in v1["edges"] if e["target"].startswith("CVE-")]
    v1["edges"] = [e for e in v1["edges"] if e not in cve_edges] + cve_edges[:3]
    return doc


_LAYOUTS = {"lines": timeline_text, "json-dumps": json.dumps}
_READS = {
    "metrics": ["metrics", "--epoch", "V1", "--json"],
    "report": ["report", "--format", "json"],
    "diff": ["diff", "--from-epoch", "V1", "--to-epoch", "V2", "--json"],
    "prioritize": ["prioritize", "--epoch", "V1", "--json"],
    "alerts": ["alerts", "--epoch", "V1", "--metric-bound", "M1:>=:91"],
}


def _run(argv, path, catalog, capsys):
    code = main([argv[0], "--timeline", str(path), *(["--catalog", CATALOG] if catalog else []),
                 *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("command", sorted(_READS))
def test_a_read_with_a_catalog_rebuilds_a_snapshot_that_does_not_match(
        tmp_path, capsys, layout, command):
    doc = json.loads(TEXT)
    argv = _READS[command]
    want = _run(argv, fixtures.openplc_timeline_path(), True, capsys)
    path = tmp_path / "cut.json"
    path.write_text(_LAYOUTS[layout](_cut_v1(doc)))
    code, out, err = _run(argv, path, True, capsys)
    assert (code, out) == want[:2]
    assert err == "warning: snapshot V1 does not match its digest; rebuilding it from the log\n"
    if command == "metrics":
        assert json.loads(out)["m1"] == 91
    if command == "alerts":
        assert code == 1 and out == "[warning] M1 = 91 >= 91.0\n"


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_a_read_with_a_catalog_rebuilds_from_the_last_verified_epoch(
        tmp_path, capsys, monkeypatch, layout):
    doc = json.loads(TEXT)
    v3 = doc["snapshots"]["V3"]
    v3["edges"] = [e for e in v3["edges"] if not e["target"].startswith("CVE-")]
    path = tmp_path / "cut.json"
    path.write_text(_LAYOUTS[layout](doc))
    applied = []
    original = tl_mod.apply_event

    def counted(g, event, catalog):
        applied.append(event)
        return original(g, event, catalog)

    monkeypatch.setattr(tl_mod, "apply_event", counted)
    code, out, err = _run(["metrics", "--epoch", "V3", "--json"], path, True, capsys)
    assert (code, json.loads(out)["m1"]) == (0, 5)
    assert err == "warning: snapshot V3 does not match its digest; rebuilding it from the log\n"
    tl = tl_mod.load_timeline(path)
    assert applied == [e for e in tl.events if e.at > tl.find_epoch("V2").at]
    assert len(applied) == 8


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("command", sorted(set(_READS) - {"report"}))  # report needs a catalog
def test_a_read_without_a_catalog_refuses_a_snapshot_that_does_not_match(
        tmp_path, capsys, layout, command):
    doc = json.loads(TEXT)
    digest = doc["digests"]["V1"]
    path = tmp_path / "cut.json"
    path.write_text(_LAYOUTS[layout](_cut_v1(doc)))
    code, out, err = _run(_READS[command], path, False, capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: SchemaError: snapshots.V1: does not match its digest {digest}, "
                   "and there is no catalog to rebuild it from the log\n")


def test_a_read_checks_only_the_snapshots_it_decodes(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text(timeline_text(_cut_v1(json.loads(TEXT))))
    argv = ["prioritize", "--epoch", "V3", "--json"]
    want = _run(argv, fixtures.openplc_timeline_path(), False, capsys)
    assert _run(argv, path, False, capsys) == want
    assert want[0] == 0 and not want[2]


def test_a_timeline_without_digests_reads_unverified(tmp_path, capsys):
    doc = _cut_v1(json.loads(TEXT))
    del doc["digests"]
    path = tmp_path / "cut.json"
    path.write_text(timeline_text(doc))
    code, out, err = _run(_READS["metrics"], path, False, capsys)
    assert (code, json.loads(out)["m1"], err) == (0, 3, "")


# -- a snapshot of another epoch or system -----------------------------------


def _mislabelled(doc: dict) -> dict:
    doc["snapshots"]["V1"]["epoch"] = "V3"
    return doc


def _other_sut(doc: dict) -> dict:
    doc["snapshots"]["V1"]["root"]["cpe"] = "cpe:2.3:a:acme:plc:2.0:*:*:*:*:*:*:*"
    return doc


_DEFECTS = {
    "epoch-not-its-label": (_mislabelled, "epoch 'V3' is not its label"),
    "root-not-the-sut": (_other_sut, "root.cpe 'cpe:2.3:a:acme:plc:2.0:*:*:*:*:*:*:*' "
                                     "is not the timeline's sut"),
}
_CHECKED_LAYOUTS = {"lines": timeline_text, "indented": lambda doc: json.dumps(doc, indent=2)}
_V1_READS = {**_READS, "export": ["export", "--epoch", "V1"]}
_V1_RUNS = [pytest.param(command, catalog, id=f"{command}-{'' if catalog else 'no-'}catalog")
            for command in sorted(_V1_READS) for catalog in (True, False)
            if catalog or command != "report"]  # report needs a catalog


def _redigested(doc: dict) -> dict:
    """``doc`` with every digest recomputed from the snapshots as they stand."""
    digest = tl_mod._digester(tl_mod.timeline_from_dict({**doc, "snapshots": {}}))
    doc["digests"] = {mark["label"]: digest(tl_mod.EpochMark(**mark),
                                            canonical_text(doc["snapshots"][mark["label"]]))
                      for mark in doc["epochs"]}
    return doc


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
@pytest.mark.parametrize("layout", sorted(_CHECKED_LAYOUTS))
@pytest.mark.parametrize("command,catalog", _V1_RUNS)
def test_a_read_refuses_a_snapshot_of_another_epoch_or_system_that_matches_its_digest(
        tmp_path, capsys, command, catalog, layout, defect):
    edit, message = _DEFECTS[defect]
    path = tmp_path / "edited.json"
    path.write_text(_CHECKED_LAYOUTS[layout](_redigested(edit(json.loads(TEXT)))))
    assert not tl_mod.load_timeline(path).stale
    code, out, err = _run(_V1_READS[command], path, catalog, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: SchemaError: snapshots.V1: malformed embedded snapshot: {message}\n"


def test_a_snapshot_is_checked_only_when_a_command_reads_it(tmp_path, capsys):
    # V1 has no digest and is of another epoch: a read of V2 never decodes
    # it, and a read of V1 refuses it, verified or not.
    doc = _mislabelled(json.loads(TEXT))
    del doc["digests"]["V1"]
    path = tmp_path / "edited.json"
    path.write_text(timeline_text(doc))
    argv = ["metrics", "--epoch", "V2", "--json"]
    want = _run(argv, fixtures.openplc_timeline_path(), False, capsys)
    assert _run(argv, path, False, capsys) == want and want[0] == 0
    code, out, err = _run(_READS["metrics"], path, False, capsys)
    assert (code, out) == (2, "")
    assert err == ("error: SchemaError: snapshots.V1: malformed embedded snapshot: "
                   "epoch 'V3' is not its label\n")
