import json
import random
import re

import pytest

from gen import random_timeline
from test_snapshot_lines import _redigested
from helpers import (lineage_cpes, make_catalog, manifest, name, renamed, timeline_text, ts,
                     update_patch_scenario, wstr)
from vulngraph import fixtures, graph, metrics, timeline as tl_mod
from vulngraph.errors import NonMonotonicTimestamp, SchemaError, VulnGraphError
from vulngraph.graph import ROOT_ID, Edge
from vulngraph.timeline import LifecycleEvent, Timeline


def test_update_patch_scenario_states():
    tl, cat = update_patch_scenario()
    snap = {label: tl_mod.epoch_snapshot(tl, cat, label)
            for label in ("t0", "t1", "t2", "t3")}

    # t0: nothing known
    assert metrics.m1(snap["t0"]) == 0

    # t1: the vulnerability sits on the second asset
    assert metrics.m1(snap["t1"]) == 1
    assert graph.active_subgraph(snap["t1"]).cves_of["a2@0"] == ("CVE-2020-0001",)

    # t2: updated without correcting it; both versions carry it
    g2 = snap["t2"]
    assert Edge(source="a2@0", target="CVE-2020-0001") in g2.edges
    assert Edge(source="a2@1", target="CVE-2020-0001") in g2.edges
    assert g2.assets["a2@0"].deprecated and not g2.assets["a2@1"].deprecated
    assert metrics.m1(g2) == 1
    # exactly one deprecated edge so far: the replaced dependency
    deprecated = [e for e in g2.edges if e.kind == "deprecated"]
    assert deprecated == [Edge(source=ROOT_ID, target="a2@0", kind="deprecated")]

    # t3: corrected in the next version
    g3 = snap["t3"]
    assert not [e for e in g3.edges if e.source == "a2@2" and e.target in g3.vulns]
    assert Edge(source="a2@1", target="CVE-2020-0001", kind="deprecated") in g3.edges
    assert Edge(source="a2@0", target="CVE-2020-0001") in g3.edges  # old history stays
    assert metrics.m1(g3) == 0
    deprecated = {(e.source, e.target) for e in g3.edges if e.kind == "deprecated"}
    assert deprecated == {
        (ROOT_ID, "a2@0"), (ROOT_ID, "a2@1"), ("a2@1", "CVE-2020-0001"),
    }


def test_lineage_follows_the_scenario():
    tl, cat = update_patch_scenario()
    g = tl_mod.epoch_snapshot(tl, cat, "t3")
    assert lineage_cpes(g, "a2") == [
        name("acme", "widget", "1.0"),
        name("acme", "widget", "2.0"),
        name("acme", "widget", "3.0"),
    ]


def test_events_must_not_go_backwards():
    tl, _ = update_patch_scenario()
    with pytest.raises(NonMonotonicTimestamp):
        tl_mod.append_event(
            tl, LifecycleEvent(at=ts(1), seq=0, kind="noop"))


def test_same_timestamp_gets_next_sequence():
    tl, cat = update_patch_scenario()
    _, last_seq = tl.last_position()
    tl2 = tl_mod.append_event(tl, LifecycleEvent(at=ts(5), seq=0, kind="noop"))
    tl2 = tl_mod.append_event(tl2, LifecycleEvent(at=ts(5), seq=0, kind="noop"))
    assert [e.seq for e in tl2.events[-2:]] == [last_seq + 1, last_seq + 2]
    # a noop leaves the graph unchanged apart from the check timestamp
    g_before = tl_mod.epoch_snapshot(tl, cat, "t3")
    last = None
    for _, last in tl_mod.replay(tl2, cat):
        pass
    assert graph.edg_to_dict(last)["assets"] == graph.edg_to_dict(g_before)["assets"]
    assert graph.edg_to_dict(last)["edges"] == graph.edg_to_dict(g_before)["edges"]


def test_event_must_follow_the_last_epoch_mark():
    tl, cat = update_patch_scenario()
    tl = tl_mod.mark_epoch(tl, "t4", ts(6))  # after the last event, at ts(4)
    before = graph.edg_to_dict(tl_mod.epoch_snapshot(tl, cat, "t4"))
    for at in (ts(5), ts(6)):
        event = LifecycleEvent(at=at, seq=0, kind="asset_retired", asset_id="a1")
        with pytest.raises(NonMonotonicTimestamp, match=r"^event\.at: .* epoch t4 "):
            tl_mod.append_event(tl, event)
    later = tl_mod.append_event(
        tl, LifecycleEvent(at=ts(7), seq=0, kind="asset_retired", asset_id="a1"))
    assert graph.edg_to_dict(tl_mod.epoch_snapshot(later, cat, "t4")) == before


def test_unknown_event_kind_rejected():
    tl, _ = update_patch_scenario()
    with pytest.raises(SchemaError):
        tl_mod.append_event(
            tl, LifecycleEvent(at=ts(9), seq=0, kind="asset_exploded"))


def test_bad_timestamp_rejected():
    tl, _ = update_patch_scenario()
    for bad in ("2020-01-05", "2020-01-05T00:00:00", "yesterday"):
        with pytest.raises(SchemaError):
            tl_mod.append_event(tl, LifecycleEvent(at=bad, seq=0, kind="noop"))


# Loading runs the validator that append_event runs: (event index, field,
# new value or None to drop it) -> the error and the path it names.
@pytest.mark.parametrize(
    "index,key,value,error,path",
    [
        (0, "at", "2019-12-31T00:00:00Z", NonMonotonicTimestamp, "events[0].at"),
        (1, "at", ts(1), NonMonotonicTimestamp, "events[1].at"),
        (0, "at", "yesterday", SchemaError, "events[0].at"),
        (0, "kind", "asset_exploded", SchemaError, "events[0].kind"),
        (0, "cve_id", None, SchemaError, "events[0].cve_id"),
        (0, "asset_id", None, SchemaError, "events[0].asset_id"),
        (1, "cpe", None, SchemaError, "events[1].cpe"),
        (1, "cpe", "cpe:2.3:a:acme:wid get:2.0:*:*:*:*:*:*:*", SchemaError, "events[1].cpe"),
    ],
)
def test_load_validates_each_event(index, key, value, error, path):
    tl, _ = update_patch_scenario()
    doc = tl_mod.timeline_to_dict(tl)
    if value is None:
        del doc["events"][index][key]
    else:
        doc["events"][index][key] = value
    with pytest.raises(error, match=rf"^{re.escape(path)}: "):
        tl_mod.timeline_from_dict(doc)


def test_bool_event_seq_is_a_schema_error():
    tl, _ = update_patch_scenario()
    doc = tl_mod.timeline_to_dict(tl)
    doc["events"][1]["seq"] = True
    with pytest.raises(SchemaError) as err:
        tl_mod.timeline_from_dict(doc)
    assert str(err.value) == "events[1].seq: expected int, got bool"


@pytest.mark.parametrize("seqs,ok", [((0, 1, 2), True), ((5, 6, 40), True),
                                      ((0, 1, 1), False), ((0, 2, 1), False)])
def test_event_seqs_must_rise(seqs, ok):
    tl, _ = update_patch_scenario()
    doc = tl_mod.timeline_to_dict(tl)
    for event, seq in zip(doc["events"], seqs):
        event["seq"] = seq
    if ok:
        assert [e.seq for e in tl_mod.timeline_from_dict(doc).events] == list(seqs)
        return
    with pytest.raises(SchemaError, match=r"^events\[2\]\.seq: seq 1 is not greater "):
        tl_mod.timeline_from_dict(doc)


def test_epoch_marks_are_ordered_and_unique():
    tl, _ = update_patch_scenario()
    with pytest.raises(SchemaError):
        tl_mod.mark_epoch(tl, "t0", ts(9))
    with pytest.raises(NonMonotonicTimestamp):
        tl_mod.mark_epoch(tl, "early", ts(1))
    unmarked = Timeline(sut_cpe=tl.sut_cpe, manifest=tl.manifest, built_at=ts(2))
    with pytest.raises(NonMonotonicTimestamp):
        tl_mod.mark_epoch(unmarked, "before-build", ts(1))


def test_snapshot_at_picks_the_right_state():
    tl, cat = update_patch_scenario()
    g = tl_mod.snapshot_at(tl, cat, ts(2, hour=12))
    assert metrics.m1(g) == 1
    assert "a2@1" not in g.assets


def test_timeline_roundtrip_and_embedded_snapshots():
    tl, cat = update_patch_scenario()
    tl = tl_mod.embed_snapshots(tl, cat)
    doc = tl_mod.timeline_to_dict(tl)
    again = tl_mod.timeline_from_dict(doc)
    assert tl_mod.timeline_to_dict(again) == doc
    # embedded snapshots serve reads without the catalog
    g = tl_mod.epoch_snapshot(again, None, "t2")
    assert metrics.m1(g) == 1


def test_timeline_file_roundtrip_bit_exact(tmp_path, openplc_timeline):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    tl_mod.save_timeline(openplc_timeline, first)
    tl_mod.save_timeline(tl_mod.load_timeline(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_a_save_that_fails_partway_leaves_the_old_file_and_nothing_else(
        tmp_path, monkeypatch, openplc_timeline):
    path = tmp_path / "timeline.json"
    tl_mod.save_timeline(openplc_timeline, path)
    before = path.read_bytes()
    encode = tl_mod.canonical_text
    calls = []

    def interrupted(value):
        calls.append(value)
        if len(calls) > 3:
            raise KeyboardInterrupt
        return encode(value)

    monkeypatch.setattr(tl_mod, "canonical_text", interrupted)
    with pytest.raises(KeyboardInterrupt):
        tl_mod.save_timeline(openplc_timeline, path)
    assert len(calls) == 4
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["timeline.json"]


def test_replay_is_deterministic():
    tl, cat = update_patch_scenario()
    one = [tl_mod.canonical_json(graph.edg_to_dict(g)) for _, g in tl_mod.replay(tl, cat)]
    two = [tl_mod.canonical_json(graph.edg_to_dict(g)) for _, g in tl_mod.replay(tl, cat)]
    assert one == two


def test_checked_at_follows_events():
    tl, cat = update_patch_scenario()
    assert tl_mod.epoch_snapshot(tl, cat, "t0").root.checked_at == ts(1)
    assert tl_mod.epoch_snapshot(tl, cat, "t3").root.checked_at == ts(4)


def test_openplc_timeline_shape(openplc_timeline):
    assert openplc_timeline.epoch_labels() == ["V1", "V2", "V3"]
    kinds = {e.kind for e in openplc_timeline.events}
    assert kinds == {"asset_added", "asset_retired", "asset_updated"}


def test_openplc_asset_counts(openplc_snapshots):
    assert len(openplc_snapshots["V1"].active_assets()) == 19
    assert len(openplc_snapshots["V2"].active_assets()) == 22
    assert len(openplc_snapshots["V3"].active_assets()) == 19


def test_openplc_embedded_snapshots_match_replay(openplc_timeline, openplc_catalog):
    bare = Timeline(
        sut_cpe=openplc_timeline.sut_cpe,
        manifest=openplc_timeline.manifest,
        built_at=openplc_timeline.built_at,
        events=list(openplc_timeline.events),
        epochs=list(openplc_timeline.epochs),
    )
    for label in ("V1", "V2", "V3"):
        replayed = tl_mod.epoch_snapshot(bare, openplc_catalog, label)
        embedded = tl_mod.epoch_snapshot(openplc_timeline, None, label)
        assert tl_mod.canonical_json(graph.edg_to_dict(replayed)) == tl_mod.canonical_json(
            graph.edg_to_dict(embedded)
        )


def test_build_then_events_single_asset():
    cat = make_catalog()
    tl = Timeline(
        sut_cpe=name("v", "sut", "1.0"),
        manifest=manifest([("a1", wstr("v", "p", "1.0"))]),
        built_at=ts(1),
    )
    tl = tl_mod.mark_epoch(tl, "r1", ts(1))
    g = tl_mod.epoch_snapshot(tl, cat, "r1")
    assert len(g.active_assets()) == 1 and not g.vulns


def test_embed_reproduces_bundled_openplc_timeline(openplc_timeline, openplc_catalog):
    embedded = tl_mod.embed_snapshots(openplc_timeline, openplc_catalog)
    text = timeline_text(tl_mod.timeline_to_dict(embedded))
    assert text.encode("utf-8") == fixtures.openplc_timeline_path().read_bytes()
    assert json.loads(text) == tl_mod.timeline_to_dict(embedded)


def test_two_epochs_at_one_timestamp_stay_apart():
    tl, cat = update_patch_scenario()
    tl = tl_mod.mark_epoch(tl, "t3-again", ts(4))
    replayed = tl_mod.epoch_snapshots(tl, cat)
    same, again = replayed[-2], replayed[-1]
    assert (same.epoch, again.epoch) == ("t3", "t3-again")
    assert same is not again and same.edges is not again.edges
    assert graph.edg_to_dict(same)["edges"] == graph.edg_to_dict(again)["edges"]
    embedded = tl_mod.embed_snapshots(tl, cat)
    assert json.loads(embedded.snapshots["t3"])["epoch"] == "t3"
    assert json.loads(embedded.snapshots["t3-again"])["epoch"] == "t3-again"
    assert [g.epoch for g in tl_mod.epoch_snapshots(embedded, None)] == [
        "t0", "t1", "t2", "t3", "t3-again"]


def test_epoch_snapshots_reads_marks_in_any_order_with_repeats_and_an_unnamed_one():
    tl, cat = update_patch_scenario()
    noon = tl_mod.EpochMark(label=None, at=ts(2, hour=12))
    marks = [tl.find_epoch("t3"), tl.find_epoch("t1"), tl.find_epoch("t3"), noon]
    want = [graph.edg_to_dict(g) for g in (
        tl_mod.epoch_snapshot(tl, cat, "t3"), tl_mod.epoch_snapshot(tl, cat, "t1"),
        tl_mod.epoch_snapshot(tl, cat, "t3"), tl_mod.snapshot_at(tl, cat, noon.at))]
    for timeline in (tl, tl_mod.embed_snapshots(tl, cat)):
        got = tl_mod.epoch_snapshots(timeline, cat, marks)
        assert [graph.edg_to_dict(g) for g in got] == want
        assert got[0] is not got[2]


def test_snapshot_at_refuses_a_snapshot_under_an_unmarked_label():
    tl, cat = update_patch_scenario()
    tl = tl_mod.embed_snapshots(tl, cat)
    tl.snapshots["t9"] = tl.snapshots["t0"]
    with pytest.raises(SchemaError) as err:
        tl_mod.snapshot_at(tl, cat, ts(2))
    assert str(err.value) == "snapshots.t9: no epoch 't9' is marked"


def _openplc_doc():
    return json.loads(fixtures.openplc_timeline_path().read_text())


# Loading runs the check that mark_epoch runs on each epoch mark after the
# three bundled ones (V1, V2, V3): the mark appended -> the error and its path.
@pytest.mark.parametrize(
    "mark,error,path",
    [
        pytest.param({"label": "V1", "at": "2020-01-01T00:00:00Z"}, SchemaError, "epochs[3]",
                     id="repeated-label-back-in-time"),
        pytest.param({"label": "V4", "at": "2021-01-02T00:00:00Z"}, NonMonotonicTimestamp,
                     "epochs[3]", id="back-in-time"),
        pytest.param({"label": "V4", "at": "yesterday"}, SchemaError, "epochs[3].at",
                     id="bad-timestamp"),
    ],
)
def test_load_validates_epoch_marks(mark, error, path):
    doc = _openplc_doc()
    doc["epochs"].append(mark)
    with pytest.raises(error, match=rf"^{re.escape(path)}: "):
        tl_mod.timeline_from_dict(doc)


def test_load_rejects_epoch_mark_before_built_at():
    doc = _openplc_doc()
    doc["epochs"][0]["at"] = "2020-06-01T00:00:00Z"  # built 2021-01-01
    with pytest.raises(NonMonotonicTimestamp, match=r"^epochs\[0\]: "):
        tl_mod.timeline_from_dict(doc)


def _drop_assets(snap):
    del snap["assets"]


def _break_cpe(snap):
    snap["assets"][0]["cpe"] = "cpe:2.3:a:acme"


def _drop_edge_kind(snap):
    del snap["edges"][0]["kind"]


def _asset(snap, node_id):
    return next(a for a in snap["assets"] if a["node_id"] == node_id)


def _second_libc(snap, **fields):
    """``snap`` with a version 1 of libc, whose cpe_previous is version 0's cpe
    unless ``fields`` say otherwise."""
    libc = _asset(snap, "libc@0")
    snap["assets"].append({**libc, "node_id": "libc@1", "deprecated": False,
                           "cpe": "cpe:2.3:a:gnu:glibc:2.99:*:*:*:*:*:*:*",
                           "cpe_previous": libc["cpe"], **fields})


def _deprecated_libc(snap, **fields):
    _asset(snap, "libc@0")["deprecated"] = True
    _second_libc(snap, **fields)


# A decoded snapshot meets the standard of one built in memory: a format it
# is written in, one node per id, version chains as the lifecycle makes them,
# and edges between its own nodes of the three shapes the lifecycle makes.
_UNLIKE_A_BUILT_SNAPSHOT = {
    "version-99": (lambda snap: snap.update(schema_version=99),
                   "schema_version: want 1, got 99"),
    "version-true": (lambda snap: snap.update(schema_version=True),
                     "schema_version: want 1, got True"),
    "unversioned": (lambda snap: snap.pop("schema_version"),
                    "schema_version: want 1, got None"),
    "asset-twice": (lambda snap: snap["assets"].append(dict(snap["assets"][0], order=99)),
                    "assets: two nodes share a node_id: assets[19] repeats 'ld_linux@0'"),
    "vuln-twice": (lambda snap: snap["vulns"].append(dict(snap["vulns"][0], cvss=0.0)),
                   "vulns: two nodes share a cve_id: vulns[91] repeats 'CVE-2012-2333'"),
    "edge-to-nowhere": (lambda snap: snap["edges"].append(
        {"source": "libc@0", "target": "ghost@0", "kind": "normal"}), "edges: no node 'ghost@0'"),
    "edge-from-nowhere": (lambda snap: snap["edges"].append(
        {"source": "CVE-2099-0001", "target": "libc@0", "kind": "deprecated"}),
        "edges: no node 'CVE-2099-0001'"),
    "id-without-at": (lambda snap: renamed(snap, "libc@0", "libc"),
                      "assets: node_id 'libc' is not 'libc@<k>'"),
    "id-with-leading-zero": (lambda snap: renamed(snap, "libc@0", "libc@01"),
                             "assets: node_id 'libc@01' is not 'libc@<k>'"),
    "version-0-with-previous": (lambda snap: _asset(snap, "libc@0").update(
        cpe_previous="cpe:2.3:a:gnu:glibc:2.18:*:*:*:*:*:*:*"),
        "assets: 'libc@0': version 0 has a cpe_previous"),
    "missing-predecessor": (lambda snap: _asset(snap, "libz@0").update(
        node_id="libz@1", cpe_previous="cpe:2.3:a:zlib:zlib:1.2.7:*:*:*:*:*:*:*"),
        "assets: 'libz@1': want a deprecated libz@0 whose cpe is its cpe_previous"),
    "active-predecessor": (
        _second_libc, "assets: 'libc@1': want a deprecated libc@0 whose cpe is its cpe_previous"),
    "wrong-cpe-previous": (lambda snap: _deprecated_libc(
        snap, cpe_previous="cpe:2.3:o:gnu:glibc:2.19:*:*:*:*:*:*:*"),
        "assets: 'libc@1': want a deprecated libc@0 whose cpe is its cpe_previous"),
    "root-to-vuln": (lambda snap: snap["edges"].append(
        {"source": "root", "target": "CVE-2014-0475", "kind": "deprecated"}),
        "edges: 'root' -> 'CVE-2014-0475': the root carries no vulnerability"),
    "vuln-to-asset": (lambda snap: snap["edges"].append(
        {"source": "CVE-2014-0475", "target": "libc@0", "kind": "normal"}),
        "edges: node 'CVE-2014-0475' is never an edge's source"),
    "asset-to-root": (lambda snap: snap["edges"].append(
        {"source": "libc@0", "target": "root", "kind": "normal"}),
        "edges: node 'root' is never an edge's target"),
    "asset-to-itself": (lambda snap: snap["edges"].append(
        {"source": "libc@0", "target": "libc@0", "kind": "normal"}),
        "edges: 'libc@0' -> 'libc@0': an asset does not depend on itself"),
}


@pytest.mark.parametrize("defect", sorted(_UNLIKE_A_BUILT_SNAPSHOT))
def test_a_decoded_snapshot_is_checked_as_one_built_in_memory(defect):
    edit, message = _UNLIKE_A_BUILT_SNAPSHOT[defect]
    doc = _openplc_doc()
    edit(doc["snapshots"]["V1"])
    for variant in ("stale", "unverified", "verified"):
        if variant == "unverified":
            del doc["digests"]
        elif variant == "verified":
            _redigested(doc)
        tl = tl_mod.timeline_from_dict(doc)
        assert (tl.stale, "V1" in tl.digests) == (
            {"stale": ({"V1"}, True), "unverified": (set(), False),
             "verified": (set(), True)}[variant]), variant
        with pytest.raises(SchemaError) as err:
            tl_mod.epoch_snapshot(tl, None, "V1")
        assert str(err.value) == f"snapshots.V1: malformed embedded snapshot: ValueError: {message}"


@pytest.mark.parametrize("defect", [None, _drop_assets, _break_cpe, _drop_edge_kind],
                         ids=["not-an-object", "without-assets", "bad-cpe", "edge-without-kind"])
def test_malformed_embedded_snapshot_is_schema_error(defect):
    doc = _openplc_doc()
    if defect is None:
        doc["snapshots"]["V1"] = 5
    else:
        defect(doc["snapshots"]["V1"])
    tl = tl_mod.timeline_from_dict(doc)
    with pytest.raises(SchemaError, match=r"^snapshots\.V1: "):
        tl_mod.epoch_snapshot(tl, None, "V1")
    tl_mod.epoch_snapshot(tl, None, "V2")  # the other snapshots still decode


def _decoded_alone_and_through_the_load(doc):
    """Each embedded snapshot of ``doc`` decoded on its own and through the
    parse table of one load, in canonical form."""
    tl = tl_mod.timeline_from_dict(doc)
    return [
        (graph.edg_to_dict(graph.edg_from_dict(doc["snapshots"][g.epoch])), graph.edg_to_dict(g))
        for g in tl_mod.epoch_snapshots(tl, None)
    ]


def test_shared_parse_table_decodes_openplc_as_alone():
    pairs = _decoded_alone_and_through_the_load(_openplc_doc())
    assert len(pairs) == 3
    for alone, shared in pairs:
        assert shared == alone


def test_shared_parse_table_decodes_random_timelines_as_alone():
    for seed in range(200):
        tl, cat = random_timeline(random.Random(seed))
        doc = tl_mod.timeline_to_dict(tl_mod.embed_snapshots(tl, cat))
        for alone, shared in _decoded_alone_and_through_the_load(doc):
            assert shared == alone, seed


def test_canonical_json_is_compact_and_decodes_to_its_document():
    docs = [_openplc_doc()]
    for seed in range(100):
        tl, cat = random_timeline(random.Random(seed + 60_000))
        docs.append(tl_mod.timeline_to_dict(tl_mod.embed_snapshots(tl, cat)))
    for doc in docs:
        text = tl_mod.canonical_json(doc)
        assert json.loads(text) == doc
        assert text.index("\n") == len(text) - 1


@pytest.mark.parametrize("doc,text", [
    pytest.param([], "timeline document must be an object", id="not-an-object"),
    pytest.param({"schema_version": 2}, "unsupported schema_version 2", id="schema-version-2"),
    pytest.param({"schema_version": True}, "schema_version: expected int, got bool",
                 id="schema-version-true"),
    pytest.param({"schema_version": 1.0}, "schema_version: expected int, got float",
                 id="schema-version-float"),
])
def test_rejected_timeline_documents(doc, text):
    with pytest.raises(SchemaError) as err:
        tl_mod.timeline_from_dict(doc)
    assert str(err.value) == text


# The third event of the scenario is the update that fixes CVE-2020-0001.
@pytest.mark.parametrize("fix", [5, None, "", "CVE-20-1", "cve-2020-0002"])
def test_load_rejects_a_fix_that_is_not_a_cve_id(fix):
    tl, _ = update_patch_scenario()
    doc = tl_mod.timeline_to_dict(tl)
    doc["events"][2]["fixes"] = ["CVE-2020-0001", fix]
    with pytest.raises(SchemaError) as err:
        tl_mod.timeline_from_dict(doc)
    assert str(err.value) == f"events[2].fixes[1]: bad CVE id {fix!r}"


def test_append_rejects_a_fix_that_is_not_a_cve_id():
    tl, _ = update_patch_scenario()
    event = LifecycleEvent(at=ts(5), seq=0, kind="asset_updated", asset_id="a2",
                           cpe_value=name("acme", "widget", "4.0"), fixes=("",))
    with pytest.raises(SchemaError) as err:
        tl_mod.append_event(tl, event)
    assert str(err.value) == "event.fixes[0]: bad CVE id ''"


# A field that the event's kind neither needs nor takes: (event index, field,
# value).  The scenario's events are vuln_discovered, then two asset_updated.
@pytest.mark.parametrize("index,key,value", [
    (0, "cpe", "cpe:2.3:a:acme:widget:3.0:*:*:*:*:*:*:*"),
    (0, "fixes", ["CVE-2020-0001"]),
    (0, "top_level", True),
    (1, "cve_id", "CVE-2020-0001"),
    (1, "dependencies", [["a1", "a2"]]),
])
def test_load_rejects_a_field_the_event_kind_does_not_take(index, key, value):
    tl, _ = update_patch_scenario()
    doc = tl_mod.timeline_to_dict(tl)
    doc["events"][index][key] = value
    with pytest.raises(SchemaError) as err:
        tl_mod.timeline_from_dict(doc)
    kind = doc["events"][index]["kind"]
    assert str(err.value) == f"events[{index}].{key}: a {kind} event takes no {key!r}"


@pytest.mark.parametrize("kind,payload", [
    ("noop", {"asset_id": "a1"}),
    ("noop", {"dependencies": (("a1", "a2"),)}),
    ("asset_retired", {"asset_id": "a1", "top_level": True}),
    ("vuln_patched", {"asset_id": "a2", "cve_id": "CVE-2020-0001",
                      "fixes": ("CVE-2020-0001",)}),
])
def test_append_rejects_a_field_the_event_kind_does_not_take(kind, payload):
    tl, _ = update_patch_scenario()
    key = list(payload)[-1]
    with pytest.raises(SchemaError) as err:
        tl_mod.append_event(tl, LifecycleEvent(at=ts(5), seq=0, kind=kind, **payload))
    assert str(err.value) == f"event.{key}: a {kind} event takes no {key!r}"


def test_snapshot_before_built_at_is_an_error():
    tl, cat = update_patch_scenario()
    with pytest.raises(VulnGraphError) as err:
        tl_mod.snapshot_at(tl, cat, "2019-12-31T00:00:00Z")
    assert str(err.value) == "timeline starts at 2020-01-01T00:00:00Z, after 2019-12-31T00:00:00Z"


def test_apply_event_rejects_an_unknown_kind():
    tl, cat = update_patch_scenario()
    _, g = next(tl_mod.replay(tl, cat))
    with pytest.raises(SchemaError) as err:
        tl_mod.apply_event(g, LifecycleEvent(at=ts(9), seq=0, kind="asset_exploded"), cat)
    assert str(err.value) == "unknown event kind 'asset_exploded'"


def test_event_edits_call_the_graph_function_installed_now(monkeypatch):
    # A wrapper put on the graph module after import (as a tracer does) must
    # see every lifecycle edit that a replay makes.
    tl, cat = update_patch_scenario()
    seen = []
    original = graph.update_asset

    def wrapper(*args, **kwargs):
        seen.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(graph, "update_asset", wrapper)
    list(tl_mod.replay(tl, cat))
    assert seen == ["a2", "a2"]
