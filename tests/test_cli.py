import json
import shutil

import pytest

from dotcheck import parse_dot
from helpers import wstr
from vulngraph import fixtures, metrics, report
from vulngraph.catalog import load_catalog
from vulngraph.cli import main
from vulngraph.timeline import canonical_json, epoch_snapshot, load_timeline


@pytest.fixture()
def openplc_files(tmp_path):
    cat = tmp_path / "catalog.json"
    tl = tmp_path / "timeline.json"
    shutil.copy(fixtures.openplc_catalog_path(), cat)
    shutil.copy(fixtures.openplc_timeline_path(), tl)
    return str(cat), str(tl)


def test_metrics_table(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["metrics", "--timeline", tl, "--epoch", "V1"]) == 0
    out = capsys.readouterr().out
    assert "4.79" in out  # M0
    assert "91" in out  # M1
    assert "19" in out  # n(t) and M7
    assert "libssl" in out


def test_metrics_json(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["metrics", "--timeline", tl, "--epoch", "V3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m1"] == 5 and payload["m7"] == 2
    assert payload["m3_by_asset"]["libc"] == 3


def test_prioritize_v3_rows(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["prioritize", "--timeline", tl, "--epoch", "V3",
                 "--min", "6.0", "--max", "10.0", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["cve_id"], r["cvss"], r["asset"]) for r in rows] == [
        ("CVE-2018-12886", 6.8, "libgcc_s"),
        ("CVE-2018-11236", 7.5, "libc"),
        ("CVE-2017-18269", 7.5, "libc"),
    ]


def test_prioritize_global_top(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["prioritize", "--timeline", tl, "--epoch", "V1", "--global"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:4]
    assert [ln.split()[0] for ln in lines] == [
        "CVE-2016-2842", "CVE-2016-0705", "CVE-2016-0799"]


def test_export_counts(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["export", "--timeline", tl, "--epoch", "V1"]) == 0
    nodes, edges = parse_dot(capsys.readouterr().out)
    shapes = {}
    for attrs in nodes.values():
        shapes[attrs["shape"]] = shapes.get(attrs["shape"], 0) + 1
    assert shapes["box"] == 1
    assert shapes["ellipse"] == 19
    assert shapes["invtriangle"] == 91


def test_export_clustered(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["export", "--timeline", tl, "--epoch", "V3",
                 "--cluster", "no-vulns"]) == 0
    nodes, _ = parse_dot(capsys.readouterr().out)
    dashed = [n for n, attrs in nodes.items() if attrs.get("style") == "dashed"]
    assert dashed  # the vulnerability-free bulk is folded away


def test_alerts_exit_codes(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["alerts", "--timeline", tl, "--epoch", "V1",
                 "--cvss-at-least", "10.0"]) == 1
    out = capsys.readouterr().out
    assert out.count("[critical]") == 3
    assert main(["alerts", "--timeline", tl, "--epoch", "V3",
                 "--cvss-at-least", "10.0"]) == 0
    assert "no alerts" in capsys.readouterr().out
    assert main(["alerts", "--timeline", tl, "--epoch", "V3",
                 "--metric-bound", "M0:>=:1.0"]) == 0


def test_report_markdown(openplc_files, capsys):
    cat, tl = openplc_files
    assert main(["report", "--timeline", tl, "--catalog", cat]) == 0
    out = capsys.readouterr().out
    assert "CWE-119: 30" in out
    assert "## Epoch V1" in out


def test_diff_subcommand(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["diff", "--timeline", tl, "--from-epoch", "V2",
                 "--to-epoch", "V3", "--json"]) == 0
    delta = json.loads(capsys.readouterr().out)
    assert "webserver_py" in delta["assets_added"]
    assert "libssl" in delta["assets_removed"]
    assert main(["diff", "--timeline", tl, "--from-epoch", "V1",
                 "--to-epoch", "V1"]) == 0
    out = capsys.readouterr().out
    assert out.count(": -") == 4  # all four buckets empty


def test_impact_subcommand(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["impact", "--timeline", tl, "--epoch", "V3",
                 "--cve", "CVE-2018-11236"]) == 0
    out = capsys.readouterr().out.split()
    assert "libc" in out and "webserver_py" in out


@pytest.mark.parametrize("argv, message", [
    (["impact", "--cve", ""], "'' is not a vulnerability of epoch V3"),
    (["impact", "--epoch", "V1", "--cve", "CVE-1999-0001"],
     "'CVE-1999-0001' is not a vulnerability of epoch V1"),
    (["event", "--kind", "vuln-discovered", "--asset", "libc", "--cve", "CVE-1999-0001"],
     "'CVE-1999-0001' is not in the catalog (discovered on 'libc')"),
    (["event", "--kind", "vuln-patched", "--asset", "libc", "--cve", "CVE-1999-0001"],
     "'CVE-1999-0001' is not attached to 'libc'"),
])
def test_unknown_cve_message_quotes_the_id(openplc_files, capsys, argv, message):
    cat, tl = openplc_files
    if argv[0] == "event":
        argv = [*argv, "--catalog", cat, "--at", "2030-01-01T00:00:00Z"]
    before = open(tl, "rb").read()
    assert main([*argv, "--timeline", tl]) == 2
    assert capsys.readouterr().err == f"error: UnknownCve: {message}\n"
    assert open(tl, "rb").read() == before


def test_usage_error_exits_2(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["prioritize", "--timeline", tl, "--epoch", "V1", "--min", "nope"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["metrics"]) == 2  # missing --timeline
    err = capsys.readouterr().err
    assert "--timeline" in err


def test_data_error_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["metrics", "--timeline", missing, "--epoch", "V1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["metrics", "--timeline", str(bad), "--epoch", "V1"]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err


@pytest.mark.parametrize("label", ["V9", ""], ids=["unmarked", "empty"])
def test_unknown_epoch_exits_2(openplc_files, capsys, label):
    _, tl = openplc_files
    assert main(["metrics", "--timeline", tl, "--epoch", label]) == 2
    assert f"unknown epoch {label!r}" in capsys.readouterr().err


def test_build_with_an_empty_epoch_label_exits_2(tmp_path, openplc_files, capsys):
    cat, _ = openplc_files
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "assets": [{"id": "a", "cpe": wstr("acme", "thing", "1.0")}],
        "dependencies": [],
    }))
    out = tmp_path / "tl.json"
    assert main(["build", "--sut", wstr("acme", "box", "1.0"),
                 "--manifest", str(manifest_path), "--catalog", cat,
                 "--at", "2021-01-01T00:00:00Z", "--epoch", "", "--out", str(out)]) == 2
    assert "SchemaError: epoch label is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["noop", "mark-epoch"])
def test_event_marking_an_empty_epoch_label_exits_2(openplc_files, capsys, kind):
    cat, tl = openplc_files
    assert main(["event", "--timeline", tl, "--catalog", cat, "--kind", kind,
                 "--mark-epoch", "", "--at", "2030-01-01T00:00:00Z"]) == 2
    assert "SchemaError: epoch label is empty" in capsys.readouterr().err
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()


def test_ingest_build_event_roundtrip(tmp_path, capsys):
    feed = {
        "CVE_Items": [
            {
                "cve": {"CVE_data_meta": {"ID": "CVE-2020-0001"},
                        "problemtype": {"problemtype_data": [
                            {"description": [{"lang": "en", "value": "CWE-119"}]}]}},
                "configurations": {"nodes": [{"cpe_match": [
                    {"vulnerable": True, "cpe23Uri": wstr("acme", "widget", "1.0")}]}]},
                "impact": {"baseMetricV2": {"cvssV2": {"baseScore": 7.5}}},
                "publishedDate": "2020-01-01T00:00Z",
            }
        ]
    }
    feed_path = tmp_path / "feed.json"
    feed_path.write_text(json.dumps(feed))
    catalog_path = tmp_path / "catalog.json"
    assert main(["ingest", "--feed", str(feed_path), "--out", str(catalog_path),
                 "--snapshot-date", "2020-06-01"]) == 0

    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "assets": [{"id": "widget", "cpe": wstr("acme", "widget", "1.0")},
                   {"id": "gadget", "cpe": wstr("acme", "gadget", "1.0")}],
        "dependencies": [["gadget", "widget"]],
    }))
    timeline_path = tmp_path / "timeline.json"
    assert main(["build", "--sut", wstr("acme", "box", "1.0"),
                 "--manifest", str(manifest_path), "--catalog", str(catalog_path),
                 "--at", "2020-06-01T00:00:00Z", "--epoch", "R1",
                 "--out", str(timeline_path)]) == 0
    assert "1 vulnerabilities" in capsys.readouterr().out

    assert main(["event", "--timeline", str(timeline_path), "--catalog", str(catalog_path),
                 "--kind", "asset-updated", "--asset", "widget",
                 "--cpe", wstr("acme", "widget", "2.0"),
                 "--fixes", "CVE-2020-0001",
                 "--at", "2020-07-01T00:00:00Z", "--mark-epoch", "R2"]) == 0
    capsys.readouterr()

    assert main(["metrics", "--timeline", str(timeline_path), "--epoch", "R2",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m1"] == 0

    assert main(["diff", "--timeline", str(timeline_path), "--catalog", str(catalog_path),
                 "--from-epoch", "R1", "--to-epoch", "R2", "--json"]) == 0
    delta = json.loads(capsys.readouterr().out)
    assert delta["vulns_fixed"] == ["CVE-2020-0001"]


def test_build_accepts_explicit_clock_read(tmp_path, openplc_files, capsys):
    cat, _ = openplc_files
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "assets": [{"id": "a", "cpe": wstr("acme", "thing", "1.0")}],
        "dependencies": [],
    }))
    out = tmp_path / "tl.json"
    assert main(["build", "--sut", wstr("acme", "box", "1.0"),
                 "--manifest", str(manifest_path), "--catalog", cat,
                 "--at", "now", "--epoch", "R1", "--out", str(out)]) == 0
    assert out.exists()


def test_event_rejects_invalid_target(openplc_files, capsys):
    cat, tl = openplc_files
    assert main(["event", "--timeline", tl, "--catalog", cat,
                 "--kind", "asset-retired", "--asset", "ghost",
                 "--at", "2021-02-01T00:00:00Z"]) == 2
    assert "UnknownAsset" in capsys.readouterr().err
    # the bad event is caught before the timeline is written back
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()


def test_cluster_subcommand(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["cluster", "--timeline", tl, "--epoch", "V1",
                 "--criterion", "cvss-below", "--threshold", "6.0"]) == 0
    nodes, _ = parse_dot(capsys.readouterr().out)
    assert any(attrs.get("style") == "dashed" for attrs in nodes.values())


@pytest.mark.parametrize("scope,named", [("libc,ghost", "'ghost'"), ("", "''")],
                         ids=["no-such-asset", "empty"])
def test_cluster_scope_naming_no_active_asset_exits_2(openplc_files, capsys, scope, named):
    _, tl = openplc_files
    assert main(["cluster", "--timeline", tl, "--epoch", "V1", "--criterion", "no-vulns",
                 "--scope", scope]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"--scope names {named}, which is no active asset of epoch V1" in captured.err


def test_cluster_scope_of_active_assets_clusters_only_them(openplc_files, capsys):
    _, tl = openplc_files
    argv = ["cluster", "--timeline", tl, "--epoch", "V3", "--criterion", "cvss-below",
            "--threshold", "6.0"]
    assert main(argv) == 0
    everywhere = capsys.readouterr().out
    assert main([*argv, "--scope", "libc,openplc"]) == 0
    scoped = capsys.readouterr().out
    assert '"cluster-1" [shape=ellipse, style=dashed' in scoped and scoped != everywhere


def test_out_flag_writes_file(openplc_files, tmp_path):
    _, tl = openplc_files
    out = tmp_path / "graph.dot"
    assert main(["export", "--timeline", tl, "--epoch", "V1", "--out", str(out)]) == 0
    parse_dot(out.read_text())


def test_catalog_warnings_reach_stderr(openplc_files, tmp_path, capsys):
    cat, tl = openplc_files
    doc = json.loads(fixtures.openplc_catalog_path().read_text())
    doc["weaknesses"].append({"cwe_id": "CWE-99999", "related_capec_ids": ["CAPEC-99999"]})
    warned = tmp_path / "warned.json"
    warned.write_text(json.dumps(doc))
    for argv in (["metrics", "--epoch", "V1"],
                 ["alerts", "--epoch", "V1", "--cvss-at-least", "9.0"],
                 ["report"]):
        code = main(argv + ["--timeline", tl, "--catalog", cat])
        clean = capsys.readouterr()
        assert clean.err == ""
        assert main(argv + ["--timeline", tl, "--catalog", str(warned)]) == code
        noisy = capsys.readouterr()
        assert noisy.out == clean.out
        assert noisy.err == "warning: CWE-99999 references unknown attack pattern CAPEC-99999\n"


_DELETE = object()


# Each document defect, the value that causes it and the path the error names.
@pytest.mark.parametrize(
    "keys,value,path",
    [
        pytest.param(("events", 0, "at"), _DELETE, "events[0].at", id="event-without-at"),
        pytest.param(("manifest", "dependencies", 0), ["x"], "manifest.dependencies[0]",
                     id="one-element-pair"),
        pytest.param(("epochs", 0, "label"), _DELETE, "epochs[0].label",
                     id="epoch-without-label"),
        pytest.param(("epochs", 0, "label"), "", "epochs[0].label", id="empty-epoch-label"),
        pytest.param(("events",), "nope", "events", id="events-not-a-list"),
        pytest.param(("events", 0, "kind"), "bogus", "events[0].kind", id="unknown-kind"),
        pytest.param(("epochs", 2), {"label": "V1", "at": "2020-01-01T00:00:00Z"}, "epochs[2]",
                     id="repeated-epoch-label"),
    ],
)
def test_malformed_timeline_exits_2(tmp_path, capsys, keys, value, path):
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    tl = tmp_path / "timeline.json"
    tl.write_text(json.dumps(doc))
    before = tl.read_bytes()
    cat = str(fixtures.openplc_catalog_path())
    out = tmp_path / "out.txt"
    for argv in (["metrics", "--epoch", "V1", "--out", str(out)],
                 ["report", "--catalog", cat, "--out", str(out)],
                 ["event", "--catalog", cat, "--kind", "noop", "--at", "2030-01-01T00:00:00Z"]):
        assert main(argv + ["--timeline", str(tl)]) == 2
        assert f"SchemaError: {path}: " in capsys.readouterr().err
    assert not out.exists()
    assert tl.read_bytes() == before


def test_epoch_mark_before_built_at_exits_2(tmp_path, capsys):
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    doc["epochs"][0]["at"] = "2020-06-01T00:00:00Z"  # built 2021-01-01
    tl = tmp_path / "timeline.json"
    tl.write_text(json.dumps(doc))
    cat = str(fixtures.openplc_catalog_path())
    for extra in ([], ["--catalog", cat]):
        assert main(["metrics", "--timeline", str(tl), "--epoch", "V1"] + extra) == 2
        assert "NonMonotonicTimestamp: epochs[0]: " in capsys.readouterr().err


def test_malformed_manifest_exits_2(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"assets": [{"id": "a", "cpe": 5}]}))
    out = tmp_path / "tl.json"
    assert main(["build", "--sut", wstr("acme", "box", "1.0"),
                 "--manifest", str(manifest_path),
                 "--catalog", str(fixtures.openplc_catalog_path()),
                 "--at", "2021-01-01T00:00:00Z", "--out", str(out)]) == 2
    assert "SchemaError: manifest.assets[0].cpe: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["asset-added", "asset-updated"])
def test_event_without_cpe_exits_2(openplc_files, capsys, kind):
    cat, tl = openplc_files
    assert main(["event", "--timeline", tl, "--catalog", cat, "--kind", kind,
                 "--asset", "libc", "--at", "2030-01-01T00:00:00Z"]) == 2
    assert "SchemaError: event.cpe: " in capsys.readouterr().err
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()


@pytest.mark.parametrize("drop_assets", [False, True], ids=["number", "without-assets"])
def test_malformed_snapshot_exits_2(tmp_path, capsys, drop_assets):
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    if drop_assets:
        del doc["snapshots"]["V1"]["assets"]
    else:
        doc["snapshots"]["V1"] = 5
    tl = tmp_path / "timeline.json"
    tl.write_text(json.dumps(doc))
    assert main(["metrics", "--timeline", str(tl), "--epoch", "V1"]) == 2
    assert "SchemaError: snapshots.V1: " in capsys.readouterr().err



def test_event_at_the_last_epoch_mark_exits_2(openplc_files, capsys):
    # V3 is marked at 2021-01-03T01:00:00Z; retiring libc then would change V3.
    cat, tl = openplc_files
    assert main(["event", "--timeline", tl, "--catalog", cat, "--kind", "asset-retired",
                 "--asset", "libc", "--at", "2021-01-03T01:00:00Z"]) == 2
    assert "NonMonotonicTimestamp: event.at: " in capsys.readouterr().err
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()
    assert main(["metrics", "--timeline", tl, "--epoch", "V3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["m1"] == 5


def test_mark_epoch_kind_without_label_exits_2(openplc_files, capsys):
    cat, tl = openplc_files
    assert main(["event", "--timeline", tl, "--catalog", cat, "--kind", "mark-epoch",
                 "--at", "2030-01-01T00:00:00Z"]) == 2
    assert "--mark-epoch LABEL" in capsys.readouterr().err
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()


@pytest.mark.parametrize("option", [
    ["--asset", "libc"], ["--cve", "CVE-2018-11236"], ["--cpe", wstr("gnu", "glibc", "9.99")],
    ["--fixes", "CVE-2018-11236"], ["--dep", "libc:libssl"], ["--top-level"],
])
def test_mark_epoch_kind_with_a_payload_option_exits_2(openplc_files, capsys, option):
    cat, tl = openplc_files
    assert main(["event", "--timeline", tl, "--catalog", cat, "--kind", "mark-epoch",
                 "--mark-epoch", "V4", "--at", "2030-01-01T00:00:00Z", *option]) == 2
    assert f"VulnGraphError: --kind mark-epoch takes no {option[0]}" in capsys.readouterr().err
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()


def test_directory_as_timeline_exits_2(tmp_path, capsys):
    assert main(["metrics", "--timeline", str(tmp_path)]) == 2
    assert "IsADirectoryError" in capsys.readouterr().err


def test_directory_as_out_exits_2(openplc_files, tmp_path, capsys):
    _, tl = openplc_files
    assert main(["metrics", "--timeline", tl, "--out", str(tmp_path)]) == 2
    assert "IsADirectoryError" in capsys.readouterr().err


def test_deeply_nested_timeline_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["metrics", "--timeline", str(deep)]) == 2
    assert "SchemaError: not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("kind,key", [("requirement", "cwe_ids"), ("test_case", "capec_ids")])
def test_non_string_remediation_id_exits_2(openplc_files, tmp_path, capsys, kind, key):
    _, tl = openplc_files
    doc = json.loads(fixtures.openplc_catalog_path().read_text())
    index = next(i for i, entry in enumerate(doc["remediation"]) if entry["kind"] == kind)
    doc["remediation"][index][key].insert(0, 5)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["report", "--timeline", tl, "--catalog", str(bad)]) == 2
    assert f"SchemaError: remediation[{index}].{key}[0]: bad " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["metrics", "--epoch", "V1", "--json"],
    ["report"],
    ["export", "--show-deprecated"],
])
def test_indented_timeline_reads_as_its_compact_form(tmp_path, capsys, argv):
    # Files written before the compact encoding were indented; they read the same.
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    outputs = []
    for text in (json.dumps(doc, indent=2, sort_keys=True) + "\n", canonical_json(doc)):
        path = tmp_path / "timeline.json"
        path.write_text(text)
        extra = ["--catalog", str(fixtures.openplc_catalog_path())] if argv[0] == "report" else []
        assert main([argv[0], "--timeline", str(path), *extra, *argv[1:]]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _active_attachment(snap):
    """An active asset of a snapshot document, a CVE it carries and the edge
    between them."""
    active = {a["node_id"] for a in snap["assets"] if not a["deprecated"]}
    cves = {v["cve_id"]: v for v in snap["vulns"]}
    edge = next(e for e in snap["edges"]
                if e["kind"] == "normal" and e["source"] in active and e["target"] in cves)
    asset = next(a for a in snap["assets"] if a["node_id"] == edge["source"])
    return asset, cves[edge["target"]], edge


_TYPED_DEFECTS = {
    "cvss-string": lambda asset, vuln, edge: vuln.update(cvss="9.8"),
    "order-string": lambda asset, vuln, edge: asset.update(order="x"),
    "cwe-ids-string": lambda asset, vuln, edge: vuln.update(cwe_ids="CWE-119"),
    "deprecated-string": lambda asset, vuln, edge: asset.update(deprecated="no"),
    "kind-number": lambda asset, vuln, edge: edge.update(kind=5),
}


@pytest.mark.parametrize("argv", [["metrics"], ["prioritize"],
                                  ["alerts", "--cvss-at-least", "9.0"]],
                         ids=["metrics", "prioritize", "alerts"])
@pytest.mark.parametrize("defect", sorted(_TYPED_DEFECTS))
def test_wrongly_typed_snapshot_field_exits_2(tmp_path, capsys, defect, argv):
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    _TYPED_DEFECTS[defect](*_active_attachment(doc["snapshots"]["V3"]))
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], "--timeline", str(path), "--epoch", "V3", *argv[1:]]) == 2
    assert "SchemaError: snapshots.V3: malformed embedded snapshot: " in capsys.readouterr().err


_SHAPE_DEFECTS = {
    "assets-object": ("assets", {}),
    "vulns-object": ("vulns", {}),
    "edges-object": ("edges", {}),
    "clusters-object": ("clusters", {}),
    "root-string": ("root", "root"),
    "checked-at-number": ("root", {"cpe": "cpe:2.3:a:v:p:1:*:*:*:*:*:*:*", "checked_at": 5}),
    "epoch-number": ("epoch", 5),
}


@pytest.mark.parametrize("defect", sorted(_SHAPE_DEFECTS))
def test_misshapen_snapshot_exits_2(tmp_path, capsys, defect):
    # An empty object iterates like an empty list, and a number printed as a
    # timestamp or label reads fine: each of these used to exit 0.
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    key, value = _SHAPE_DEFECTS[defect]
    doc["snapshots"]["V3"][key] = value
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(doc))
    assert main(["metrics", "--timeline", str(path), "--epoch", "V3"]) == 2
    assert "SchemaError: snapshots.V3: malformed embedded snapshot: " in capsys.readouterr().err


def test_snapshot_with_a_cluster_exits_2(tmp_path, capsys):
    # A snapshot stores no clusters.  This entry is one the old cluster
    # encoder would write: a vulnerability-free asset moved into the cluster
    # with its edges kept as boundary edges, and those edges redrawn to it.
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    snap = doc["snapshots"]["V1"]
    carriers = {e["source"] for e in snap["edges"] if e["target"].startswith("CVE-")}
    asset = next(a for a in snap["assets"] if a["node_id"] not in carriers)
    boundary = [e for e in snap["edges"] if asset["node_id"] in (e["source"], e["target"])]
    snap["assets"].remove(asset)
    snap["edges"] = [e for e in snap["edges"] if e not in boundary] + [
        {key: "cluster-1" if end == asset["node_id"] else end for key, end in e.items()}
        for e in boundary
    ]
    snap["clusters"] = [{"cluster_id": "cluster-1", "assets": [asset], "vulns": [],
                         "internal_edges": [], "boundary_edges": boundary}]
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(doc))
    assert main(["metrics", "--timeline", str(path), "--epoch", "V1"]) == 2
    assert ("SchemaError: snapshots.V1: malformed embedded snapshot: ValueError: clusters: "
            in capsys.readouterr().err)


def test_build_message_reads_the_snapshot_report(tmp_path, capsys):
    out = tmp_path / "timeline.json"
    assert main(["build", "--sut", "cpe:2.3:a:openplc_project:openplc:1.0:*:*:*:*:*:*:*",
                 "--manifest", str(fixtures.openplc_manifest_path()),
                 "--catalog", str(fixtures.openplc_catalog_path()),
                 "--at", "2021-01-01T00:00:00Z", "--epoch", "V1", "--out", str(out)]) == 0
    rep = metrics.snapshot_report(epoch_snapshot(load_timeline(out), None, "V1"))
    assert (rep.n_assets, rep.m1) == (19, 91)
    assert capsys.readouterr().out == (
        f"built V1: {rep.n_assets} assets, {rep.m1} vulnerabilities -> {out}\n")


def test_event_dep_without_colon_exits_2(openplc_files, capsys):
    cat, tl = openplc_files
    assert main(["event", "--timeline", tl, "--catalog", cat, "--kind", "asset-added",
                 "--asset", "shim", "--cpe", wstr("acme", "shim", "1.0"), "--dep", "shim",
                 "--at", "2030-01-01T00:00:00Z"]) == 2
    assert "VulnGraphError: --dep wants SRC:DST, got 'shim'" in capsys.readouterr().err
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()


def test_event_with_a_field_its_kind_does_not_take_exits_2(openplc_files, capsys):
    cat, tl = openplc_files
    assert main(["event", "--timeline", tl, "--catalog", cat, "--kind", "noop",
                 "--dep", "libc:libssl", "--fixes", "CVE-2018-11236", "--cve", "CVE-2018-11236",
                 "--at", "2030-01-01T00:00:00Z"]) == 2
    assert "SchemaError: event.cve_id: a noop event takes no 'cve_id'" in capsys.readouterr().err
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()


def _update_libc(cat, tl, fixes):
    return main(["event", "--timeline", tl, "--catalog", cat, "--kind", "asset-updated",
                 "--asset", "libc", "--cpe", wstr("gnu", "glibc", "9.99"), "--fixes", fixes,
                 "--at", "2030-01-01T00:00:00Z"])


@pytest.mark.parametrize("fixes,stored", [
    (",,", None),
    (" CVE-2018-11236 ,, CVE-2017-18269,", ["CVE-2018-11236", "CVE-2017-18269"]),
])
def test_event_drops_blank_fix_ids(openplc_files, fixes, stored):
    cat, tl = openplc_files
    assert _update_libc(cat, tl, fixes) == 0
    with open(tl, encoding="utf-8") as fh:
        assert json.load(fh)["events"][-1].get("fixes") == stored


def test_event_with_a_fix_that_is_not_a_cve_id_exits_2(openplc_files, capsys):
    cat, tl = openplc_files
    assert _update_libc(cat, tl, "CVE-2018-11236,libc") == 2
    assert "SchemaError: event.fixes[1]: bad CVE id 'libc'" in capsys.readouterr().err
    with open(tl, "rb") as fh:
        assert fh.read() == fixtures.openplc_timeline_path().read_bytes()


def _openplc_timeline_with(tmp_path, **changes):
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    doc.update(changes)
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_metrics_without_snapshot_or_catalog_exits_2(tmp_path, capsys):
    tl = _openplc_timeline_with(tmp_path, snapshots={})
    assert main(["metrics", "--timeline", tl]) == 2
    assert ("VulnGraphError: no embedded snapshot for 'V3' and no catalog to replay"
            in capsys.readouterr().err)


def test_metrics_on_a_timeline_without_epochs_exits_2(tmp_path, capsys):
    tl = _openplc_timeline_with(tmp_path, epochs=[])
    cat = str(fixtures.openplc_catalog_path())
    assert main(["metrics", "--timeline", tl, "--catalog", cat]) == 2
    assert "timeline has no epochs" in capsys.readouterr().err


@pytest.mark.parametrize("bound,error", [
    ("M0:>=", "VulnGraphError: --metric-bound wants METRIC:CMP:VALUE, got 'M0:>='"),
    ("M0:>=:abc", "ValueError: could not convert string to float: 'abc'"),
])
def test_alerts_with_a_malformed_metric_bound_exits_2(openplc_files, capsys, bound, error):
    _, tl = openplc_files
    assert main(["alerts", "--timeline", tl, "--metric-bound", bound]) == 2
    assert error in capsys.readouterr().err


def test_alerts_names_the_metric_bound_form_for_a_bad_value(openplc_files, capsys):
    _, tl = openplc_files
    assert main(["alerts", "--timeline", tl, "--metric-bound", "M0:>=:abc"]) == 2
    assert ("VulnGraphError: --metric-bound wants METRIC:CMP:VALUE, got 'M0:>=:abc'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_alerts_with_a_non_finite_metric_bound_exits_2(openplc_files, capsys, value):
    # On V1, M0:>=:1 fires; a bound that can never fire must not read "no alerts".
    _, tl = openplc_files
    assert main(["alerts", "--timeline", tl, "--epoch", "V1",
                 "--metric-bound", f"M0:>=:{value}"]) == 2
    captured = capsys.readouterr()
    assert f"ValueError: bound {float(value)!r} for M0 is not a finite number" in captured.err
    assert "no alerts" not in captured.out


def test_report_json_is_the_generated_report(openplc_files, capsys):
    cat, tl = openplc_files
    assert main(["report", "--timeline", tl, "--catalog", cat, "--format", "json"]) == 0
    expected = report.generate_report(load_timeline(tl), load_catalog(cat), "json")
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))


def test_ingest_merges_into_an_existing_catalog(openplc_files, tmp_path, capsys):
    cat, _ = openplc_files
    feed = tmp_path / "feed.json"
    feed.write_text(json.dumps({"CVE_Items": [{
        "cve": {"CVE_data_meta": {"ID": "CVE-2020-0001"}},
        "configurations": {"nodes": [{"cpe_match": [
            {"vulnerable": True, "cpe23Uri": wstr("acme", "widget", "1.0")}]}]},
        "impact": {"baseMetricV2": {"cvssV2": {"baseScore": 7.5}}},
        "publishedDate": "2020-01-01T00:00Z",
    }]}))
    out = tmp_path / "merged.json"
    assert main(["ingest", "--feed", str(feed), "--out", str(out),
                 "--snapshot-date", "2030-01-01", "--merge", cat]) == 0
    assert "wrote 174 records" in capsys.readouterr().out
    base, merged = load_catalog(cat), load_catalog(out)
    assert merged.vulnerabilities.keys() == base.vulnerabilities.keys() | {"CVE-2020-0001"}
    assert merged.weaknesses == base.weaknesses
    assert merged.snapshot_date == "2030-01-01"
    # the feed's record is in the merged catalog now, so a second merge clashes
    assert main(["ingest", "--feed", str(feed), "--out", str(tmp_path / "again.json"),
                 "--merge", str(out)]) == 2
    assert "DuplicateId: CVE-2020-0001" in capsys.readouterr().err


_BAD_IDS = {
    "cwe-without-prefix": ("cwe_ids", ["x"]),
    "cwe-without-number": ("cwe_ids", ["CWE-x"]),
    "cwe-as-capec": ("capec_ids", ["CWE-119"]),
    "capec-without-number": ("capec_ids", ["CAPEC-"]),
    "cve-short-year": ("cve_id", "CVE-12-2333"),
}


@pytest.mark.parametrize("defect", sorted(_BAD_IDS))
def test_snapshot_with_a_malformed_id_exits_2(tmp_path, capsys, defect):
    # `metrics` parses each CWE id's number; an id of another form must be a
    # data error (exit 2), not a crash that a CI gate reads as an alert.
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    vuln = next(v for v in doc["snapshots"]["V1"]["vulns"] if v["cve_id"] == "CVE-2012-2333")
    key, value = _BAD_IDS[defect]
    vuln[key] = value
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(doc))
    assert main(["metrics", "--timeline", str(path), "--epoch", "V1"]) == 2
    assert ("SchemaError: snapshots.V1: malformed embedded snapshot: ValueError: vulns: bad "
            in capsys.readouterr().err)


def test_events_whose_seq_does_not_rise_exit_2(tmp_path, capsys):
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    for event, seq in zip(doc["events"], (7, 3, 3)):
        event["seq"] = seq
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(doc))
    assert main(["metrics", "--timeline", str(path)]) == 2
    assert ("SchemaError: events[1].seq: seq 3 is not greater than the previous event's 7"
            in capsys.readouterr().err)


def test_alerts_without_a_rule_exits_2(openplc_files, capsys):
    # With no rule nothing can fire, so a CI gate on it would always pass.
    _, tl = openplc_files
    assert main(["alerts", "--timeline", tl, "--epoch", "V1"]) == 2
    captured = capsys.readouterr()
    assert "alerts needs --cvss-at-least or --metric-bound" in captured.err
    assert "no alerts" not in captured.out


@pytest.mark.parametrize("argv,error", [
    (["cluster", "--criterion", "no-vulns", "--threshold", "5"],
     "--threshold applies only to cvss-below, not no-vulns"),
    (["export", "--cluster", "none", "--threshold", "5"],
     "--threshold applies only to cvss-below, not none"),
    (["export", "--cluster", "no-vulns", "--threshold", "5"],
     "--threshold applies only to cvss-below, not no-vulns"),
    (["cluster", "--criterion", "cvss-below"], "cvss-below needs --threshold"),
    (["export", "--cluster", "cvss-below"], "cvss-below needs --threshold"),
], ids=["cluster-no-vulns", "export-none", "export-no-vulns", "cluster-cvss-below",
        "export-cvss-below"])
def test_a_threshold_that_does_nothing_or_is_missing_exits_2(openplc_files, capsys, argv,
                                                             error):
    _, tl = openplc_files
    assert main([argv[0], "--timeline", tl, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert f"VulnGraphError: {error}" in captured.err
    assert captured.out == ""
