"""``event`` continues from the last stored epoch when every embedded snapshot
matches its digest.  These tests hold it to embedding the whole timeline
afresh, pin what a digest mismatch and a changed catalog do, and pin the
checks of the digests and the snapshots."""

import copy
import json
import random

import pytest

from gen import split_before_last_event
from helpers import (make_catalog, manifest, name, record, timeline_text, ts,
                     update_patch_scenario, wstr)
from vulngraph import catalog as cat_mod, cpe, fixtures, graph, metrics, timeline as tl_mod
from vulngraph.cli import main

_AT = "2030-01-01T00:00:00Z"


def _event_argv(event) -> list[str]:
    argv = ["--kind", event.kind.replace("_", "-"), "--at", event.at]
    for flag, value in (("--asset", event.asset_id), ("--cve", event.cve_id)):
        if value is not None:
            argv += [flag, value]
    if event.cpe_value is not None:
        argv += ["--cpe", cpe.bind_formatted(event.cpe_value)]
    if event.fixes:
        argv += ["--fixes", ",".join(event.fixes)]
    for src, dst in event.dependencies:
        argv += ["--dep", f"{src}:{dst}"]
    if event.top_level:
        argv.append("--top-level")
    return argv


def test_event_from_the_last_snapshot_writes_what_embedding_the_whole_log_writes(
        tmp_path, monkeypatch, capsys):
    replays = []
    original = tl_mod.replay

    def counted(*args, **kwargs):
        replays.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tl_mod, "replay", counted)
    cases = set()
    for seed in range(240):
        prefix, last, label, whole, catalog = split_before_last_event(random.Random(seed))
        cat_path, tl_path = tmp_path / "catalog.json", tmp_path / "timeline.json"
        cat_mod.save_catalog(catalog, cat_path)
        catalog = cat_mod.load_catalog(cat_path)
        embedded = tl_mod.embed_snapshots(prefix, catalog)
        tl_mod.save_timeline(embedded, tl_path)
        assert tl_path.read_text() == timeline_text(tl_mod.timeline_to_dict(embedded))
        assert json.loads(tl_path.read_text()) == tl_mod.timeline_to_dict(embedded)

        replays.clear()
        argv = ["event", "--timeline", str(tl_path), "--catalog", str(cat_path),
                "--out", str(tmp_path / "out.json"), *_event_argv(last)]
        assert main(argv + (["--mark-epoch", label] if label else [])) == 0, seed
        assert not replays, seed
        assert "warning" not in capsys.readouterr().err

        reference = tl_mod.embed_snapshots(whole, catalog)
        tl_mod.save_timeline(reference, tmp_path / "reference.json")
        want = timeline_text(tl_mod.timeline_to_dict(reference))
        assert (tmp_path / "reference.json").read_text() == want
        assert json.loads(want) == tl_mod.timeline_to_dict(reference)
        assert (tmp_path / "out.json").read_text() == want, seed
        after_mark = any(e.at > prefix.epochs[-1].at for e in prefix.events)
        cases.add((label is not None, after_mark))
    assert cases == {(False, False), (False, True), (True, False), (True, True)}


def _openplc_doc() -> dict:
    return json.loads(fixtures.openplc_timeline_path().read_text())


def _event(tmp_path, doc, catalog_doc=None, kind="noop"):
    """Run ``event`` on ``doc`` and return its exit code and the document it wrote."""
    tl_path, cat_path, out = (tmp_path / n for n in ("in.json", "catalog.json", "out.json"))
    tl_path.write_text(json.dumps(doc))
    if catalog_doc is None:
        cat_path.write_bytes(fixtures.openplc_catalog_path().read_bytes())
    else:
        cat_path.write_text(json.dumps(catalog_doc))
    code = main(["event", "--timeline", str(tl_path), "--catalog", str(cat_path),
                 "--kind", kind, "--at", _AT, "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_event_rebuilds_a_snapshot_that_does_not_match_its_digest(tmp_path, capsys):
    doc = _openplc_doc()
    v1 = doc["snapshots"]["V1"]
    cve_edges = [e for e in v1["edges"] if e["target"].startswith("CVE-")]
    v1["edges"] = [e for e in v1["edges"] if e not in cve_edges] + cve_edges[:3]
    code, written = _event(tmp_path, doc)
    assert code == 0
    assert capsys.readouterr().err == ("warning: snapshot V1 does not match its digest; "
                                       "rebuilding it from the log\n")
    tl = tl_mod.timeline_from_dict(written)
    assert metrics.m1(tl_mod.epoch_snapshot(tl, None, "V1")) == 91
    assert written["snapshots"] == _openplc_doc()["snapshots"]
    assert written["digests"] == _openplc_doc()["digests"]


def test_event_keeps_released_epochs_under_a_changed_catalog(tmp_path, capsys):
    # A record for the CVE-2014-0475 versions of glibc under a new id would
    # attach to libc in V1 if V1 were replayed.
    catalog_doc = json.loads(fixtures.openplc_catalog_path().read_text())
    twin = copy.deepcopy(next(r for r in catalog_doc["vulnerabilities"]
                              if r["cve_id"] == "CVE-2014-0475"))
    twin["cve_id"] = "CVE-2099-0001"
    catalog_doc["vulnerabilities"].append(twin)
    bare = _openplc_doc()
    del bare["digests"]
    _, replayed = _event(tmp_path, bare, catalog_doc)
    assert "CVE-2099-0001" in {v["cve_id"] for v in replayed["snapshots"]["V1"]["vulns"]}

    code, written = _event(tmp_path, _openplc_doc(), catalog_doc)
    assert code == 0 and not capsys.readouterr().err
    for label, snap in _openplc_doc()["snapshots"].items():
        assert tl_mod.canonical_json(written["snapshots"][label]) == tl_mod.canonical_json(snap)
    assert written["digests"] == _openplc_doc()["digests"]


@pytest.mark.parametrize("cve_id,twin_id", [("CVE-2014-0475", "CVE-2099-0001"),
                                             ("CVE-2018-11236", "CVE-2099-0002")],
                         ids=["twin-of-a-V1-cve", "twin-of-a-V3-cve"])
def test_event_keeps_released_epochs_before_a_stale_one_under_a_changed_catalog(
        tmp_path, capsys, cve_id, twin_id):
    # With V2 stale, event resumes from V1 as stored and keeps the verified
    # V3 as stored too; the V2 it writes is the one a read with the same
    # catalog rebuilds.  A twin of CVE-2018-11236 would attach in V3 if V3
    # were replayed; a read takes V3 as stored, and so must event.
    catalog_doc = json.loads(fixtures.openplc_catalog_path().read_text())
    twin = copy.deepcopy(next(r for r in catalog_doc["vulnerabilities"]
                              if r["cve_id"] == cve_id))
    twin["cve_id"] = twin_id
    catalog_doc["vulnerabilities"].append(twin)
    doc = _openplc_doc()
    v2 = doc["snapshots"]["V2"]
    cve_edges = [e for e in v2["edges"] if e["target"].startswith("CVE-")]
    v2["edges"] = [e for e in v2["edges"] if e not in cve_edges] + cve_edges[:3]
    tl_path, cat_path, out = (tmp_path / n for n in ("in.json", "catalog.json", "out.json"))
    tl_path.write_text(timeline_text(doc))
    cat_path.write_text(json.dumps(catalog_doc))
    read = ["metrics", "--epoch", "V2", "--json"]
    assert main([*read, "--timeline", str(tl_path), "--catalog", str(cat_path)]) == 0
    rebuilt = capsys.readouterr().out
    v3_read = ["metrics", "--epoch", "V3", "--json", "--timeline"]
    assert main([*v3_read, str(tl_path), "--catalog", str(cat_path)]) == 0
    assert json.loads(capsys.readouterr().out)["m1"] == 5
    assert main(["event", "--timeline", str(tl_path), "--catalog", str(cat_path),
                 "--kind", "noop", "--at", _AT, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("warning: snapshot V2 does not match its digest; "
                                       "rebuilding it from the log\n")
    assert _v1_line(out) == _v1_line(fixtures.openplc_timeline_path())
    tl = tl_mod.load_timeline(out)
    assert not tl.stale and metrics.m1(tl_mod.epoch_snapshot(tl, None, "V1")) == 91
    assert main([*read, "--timeline", str(out)]) == 0
    assert capsys.readouterr().out == rebuilt
    assert json.loads(rebuilt)["m1"] == 77
    assert _line(out, "V3") == _line(tl_path, "V3")
    assert main([*v3_read, str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["m1"] == 5


def test_event_gives_a_timeline_without_digests_its_digests(tmp_path, capsys):
    bare = _openplc_doc()
    del bare["digests"]
    code, written = _event(tmp_path, bare)
    assert code == 0 and not capsys.readouterr().err
    assert written["digests"] == _openplc_doc()["digests"]


def test_event_drops_a_digest_of_no_snapshot(tmp_path):
    doc = _openplc_doc()
    doc["digests"]["V9"] = "0" * 64
    code, written = _event(tmp_path, doc)
    assert code == 0 and written["digests"] == _openplc_doc()["digests"]


@pytest.mark.parametrize("layout", ["lines", "json-dumps"])
def test_event_rebuilds_a_snapshot_it_marks_that_loading_could_not_verify(
        tmp_path, capsys, layout):
    # A snapshot and digest under a label that no epoch is marked with have no
    # mark to be checked with when loaded; marking the label must not make
    # the snapshot trusted.
    doc = _openplc_doc()
    v4 = dict(copy.deepcopy(doc["snapshots"]["V3"]), epoch="V4")
    v4["edges"] = [e for e in v4["edges"] if not e["target"].startswith("CVE-")]
    doc["snapshots"]["V4"] = v4
    doc["digests"]["V4"] = "0" * 64
    tl_path, out = tmp_path / "in.json", tmp_path / "out.json"
    tl_path.write_text(timeline_text(doc) if layout == "lines" else json.dumps(doc))
    assert main(["event", "--timeline", str(tl_path),
                 "--catalog", str(fixtures.openplc_catalog_path()), "--kind", "mark-epoch",
                 "--mark-epoch", "V4", "--at", _AT, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("warning: snapshot V4 does not match its digest; "
                                       "rebuilding it from the log\n")
    written = json.loads(out.read_text())
    assert written["snapshots"]["V4"] == dict(_openplc_doc()["snapshots"]["V3"], epoch="V4")
    assert written["digests"]["V4"] != "0" * 64
    tl = tl_mod.load_timeline(out)
    assert not tl.stale and metrics.m1(tl_mod.epoch_snapshot(tl, None, "V4")) > 0


@pytest.mark.parametrize("digests,path", [
    ({"V1": "abc"}, "digests.V1"),
    ({"V1": "A" * 64}, "digests.V1"),
    ({"V2": 5}, "digests.V2"),
    ([], "digests"),
])
@pytest.mark.parametrize("command", ["metrics", "event"])
def test_malformed_digests_exit_2(tmp_path, capsys, digests, path, command):
    doc = _openplc_doc()
    doc["digests"] = digests
    if command == "event":
        code, written = _event(tmp_path, doc)
        assert written is None
    else:
        (tmp_path / "in.json").write_text(json.dumps(doc))
        code = main(["metrics", "--timeline", str(tmp_path / "in.json"), "--epoch", "V1"])
    assert code == 2
    assert f"SchemaError: {path}: " in capsys.readouterr().err


def _orphan(doc):
    doc["snapshots"]["V9"] = dict(doc["snapshots"]["V3"], epoch="V9")


def _mislabelled(doc):
    doc["snapshots"]["V1"]["epoch"] = "V3"


def _other_sut(doc):
    doc["snapshots"]["V1"]["root"]["cpe"] = "cpe:2.3:a:acme:plc:2.0:*:*:*:*:*:*:*"


def _v1_line(path) -> list[str]:
    return _line(path, "V1")


def _line(path, label) -> list[str]:
    return [line for line in path.read_text().split("\n") if line.startswith(f'"{label}":')]


@pytest.mark.parametrize("defect,label", [(_orphan, "V9"), (_mislabelled, "V1"),
                                          (_other_sut, "V1")],
                         ids=["label-not-an-epoch", "epoch-not-its-label", "root-not-the-sut"])
@pytest.mark.parametrize("command", ["metrics", "event"])
def test_snapshot_of_another_epoch_or_system_exits_2(tmp_path, capsys, defect, label, command):
    doc = _openplc_doc()
    defect(doc)
    if command == "event":
        code, written = _event(tmp_path, doc)
        if label == "V1":
            # The edited V1 no longer matches its digest, so event rebuilds
            # it from the log as it does any stale snapshot.
            assert code == 0
            assert ("warning: snapshot V1 does not match its digest; rebuilding it "
                    "from the log\n") in capsys.readouterr().err
            out = tmp_path / "out.json"
            assert _v1_line(out) == _v1_line(fixtures.openplc_timeline_path())
            assert not tl_mod.load_timeline(out).stale
            return
        assert written is None
    else:
        (tmp_path / "in.json").write_text(json.dumps(doc))
        code = main(["metrics", "--timeline", str(tmp_path / "in.json"), "--epoch", "V1"])
    assert code == 2
    assert f"SchemaError: snapshots.{label}: " in capsys.readouterr().err


def test_event_on_the_line_layout_encodes_no_stored_snapshot(tmp_path, monkeypatch):
    # Each stored snapshot is verified by hashing its line and written back
    # as that line; only the last is decoded, to replay the new event from.
    encoded, decoded, replays = [], [], []

    def spy(calls, fn, counts=lambda *args: True):
        def wrapper(*args, **kwargs):
            if counts(*args):
                calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    def is_snapshot(value):
        return isinstance(value, dict) and "edges" in value

    monkeypatch.setattr(json, "dumps", spy(encoded, json.dumps, is_snapshot))
    monkeypatch.setattr(graph, "edg_from_dict", spy(decoded, graph.edg_from_dict))
    monkeypatch.setattr(tl_mod, "replay", spy(replays, tl_mod.replay))
    out = tmp_path / "out.json"
    assert main(["event", "--timeline", str(fixtures.openplc_timeline_path()),
                 "--catalog", str(fixtures.openplc_catalog_path()), "--kind", "noop",
                 "--at", _AT, "--out", str(out)]) == 0
    assert (len(encoded), len(decoded), len(replays)) == (0, 1, 0)
    lines = fixtures.openplc_timeline_path().read_text().split("\n")
    assert out.read_text().split("\n")[1:-2] == lines[1:-2]


def _with_stale(tmp_path, tl, catalog, stale, later_catalog):
    """Save ``tl`` embedded under ``catalog`` with the snapshots of ``stale``
    cut so they no longer match their digests, and ``later_catalog``; return
    the two paths."""
    doc = tl_mod.timeline_to_dict(tl_mod.embed_snapshots(tl, catalog))
    for label in stale:
        snap = doc["snapshots"][label]
        snap["edges"] = [e for e in snap["edges"] if e["target"] != "a1@0"]
    tl_path, cat_path = tmp_path / "in.json", tmp_path / "catalog.json"
    tl_path.write_text(timeline_text(doc))
    cat_mod.save_catalog(later_catalog, cat_path)
    return tl_path, cat_path


def _count_applies(monkeypatch) -> list:
    applied = []
    original = tl_mod.apply_event

    def counted(g, event, catalog):
        applied.append(event)
        return original(g, event, catalog)

    monkeypatch.setattr(tl_mod, "apply_event", counted)
    return applied


def _rebuilt_by_reads_and_event(tmp_path, capsys, monkeypatch, tl_path, cat_path, labels):
    """For the stale epochs ``labels``: the ``metrics --json`` that a read
    with the catalog prints of each and its apply_event calls, that output
    read without the catalog after ``event``, and the apply_event calls of
    ``event``, which must warn of each of ``labels``."""
    applied = _count_applies(monkeypatch)
    before, reads = [], []
    for label in labels:
        applied.clear()
        assert main(["metrics", "--epoch", label, "--json", "--timeline", str(tl_path),
                     "--catalog", str(cat_path)]) == 0
        before.append(capsys.readouterr().out)
        reads.append(len(applied))
    applied.clear()
    out = tmp_path / "out.json"
    assert main(["event", "--timeline", str(tl_path), "--catalog", str(cat_path),
                 "--kind", "noop", "--at", _AT, "--out", str(out)]) == 0
    event = len(applied)
    assert capsys.readouterr().err == "".join(
        f"warning: snapshot {label} does not match its digest; rebuilding it from the log\n"
        for label in labels)
    assert not tl_mod.load_timeline(out).stale
    after = []
    for label in labels:
        assert main(["metrics", "--epoch", label, "--json", "--timeline", str(out)]) == 0
        after.append(capsys.readouterr().out)
    return before, reads, after, event


def test_a_stale_epoch_after_a_verified_one_is_replayed_from_it(tmp_path, capsys, monkeypatch):
    # t1 and t3 are stale and t2 verified; a later catalog attaches a record
    # to widget 2.0, which t2 would hold if it were replayed.  t3 is replayed
    # from t2's mark, by a read and by event alike, and t2 is kept as stored.
    tl, cat = update_patch_scenario()
    later = cat_mod.merge_catalogs(cat, make_catalog(records=[
        record("CVE-2020-0002", 5.0, affected=[wstr("acme", "widget", "2.0")])]))
    tl_path, cat_path = _with_stale(tmp_path, tl, cat, ["t1", "t3"], later)
    before, reads, after, event = _rebuilt_by_reads_and_event(
        tmp_path, capsys, monkeypatch, tl_path, cat_path, ["t1", "t3"])
    assert reads == [1, 1] and event == 3
    assert after == before
    for label in ("t0", "t2"):
        assert _line(tmp_path / "out.json", label) == _line(tl_path, label)


def test_a_stale_epoch_marked_with_a_verified_one_starts_at_the_epoch_before_both(
        tmp_path, capsys, monkeypatch):
    # V2 and V3 are marked at one time, V2 stale and V3 verified, and a
    # later catalog attaches a second record to widget 1.0.  V2 is replayed
    # from the last verified epoch before it in mark order, V1, applying the
    # one event after V1's mark: not from the build (two events) and not
    # from V3 (none).  V3 is kept as stored, with one record.
    cat = make_catalog(records=[record("CVE-2020-0001", 7.5,
                                       affected=[wstr("acme", "widget", "1.0")])])
    later = cat_mod.merge_catalogs(cat, make_catalog(records=[
        record("CVE-2020-0002", 5.0, affected=[wstr("acme", "widget", "1.0")])]))
    tl = tl_mod.Timeline(sut_cpe=name("acme", "box", "1.0"),
                         manifest=manifest([("a0", wstr("acme", "gadget", "1.0"))]),
                         built_at=ts(1))
    for day, asset, product, label in [(2, "a1", "gadget", "V1"), (3, "a2", "widget", "V2")]:
        tl = tl_mod.append_event(tl, tl_mod.LifecycleEvent(
            at=ts(day), seq=0, kind="asset_added", asset_id=asset, top_level=True,
            cpe_value=name("acme", product, "1.0")))
        tl = tl_mod.mark_epoch(tl, label, ts(day))
    tl = tl_mod.mark_epoch(tl, "V3", ts(3))
    tl_path, cat_path = _with_stale(tmp_path, tl, cat, ["V2"], later)
    before, reads, after, event = _rebuilt_by_reads_and_event(
        tmp_path, capsys, monkeypatch, tl_path, cat_path, ["V2"])
    assert reads == [1] and event == 2
    assert after == before and json.loads(before[0])["m1"] == 2
    for label in ("V1", "V3"):
        assert _line(tmp_path / "out.json", label) == _line(tl_path, label)
    assert main(["metrics", "--epoch", "V3", "--json", "--timeline",
                 str(tmp_path / "out.json")]) == 0
    assert json.loads(capsys.readouterr().out)["m1"] == 1
