"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks that criterion red.
"""

import json
import time

import test_properties as props
from dotcheck import parse_dot
from helpers import update_patch_scenario
from vulngraph import catalog as cat_mod
from vulngraph import graph, metrics, report as report_mod, timeline as tl_mod
from vulngraph.graph import ROOT_ID, Edge
from vulngraph.metrics import fmt2
from vulngraph.report import AlertRule, RenderOptions, check_alerts, export_dot


def _line(n: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {n} - {text}")


def test_criterion_1_metrics_reproduction(openplc_timeline, openplc_catalog):
    ok = False
    try:
        start = time.perf_counter()
        snaps = {label: tl_mod.epoch_snapshot(openplc_timeline, openplc_catalog, label)
                 for label in ("V1", "V2", "V3")}
        m0s = [fmt2(metrics.m0(snaps[v])) for v in ("V1", "V2", "V3")]
        m1s = [metrics.m1(snaps[v]) for v in ("V1", "V2", "V3")]
        m7s = [metrics.m7(snaps[v]) for v in ("V1", "V2", "V3")]
        m2 = metrics.m2(openplc_timeline, openplc_catalog)
        m8u = metrics.m8(openplc_timeline, openplc_catalog, "union")
        m4s = [fmt2(metrics.m4(snaps[v], "libssl")) for v in ("V1", "V2")]
        m6s = [metrics.m6(snaps[v], "CWE-119") for v in ("V1", "V2", "V3")]
        freq = metrics.lifecycle_weakness_frequency(openplc_timeline, openplc_catalog)
        elapsed = time.perf_counter() - start

        assert m0s == ["4.79", "3.50", "0.26"]
        assert m1s == [91, 77, 5]
        assert m2 == 173
        assert m7s == [19, 18, 2]
        assert m8u == 22
        assert m4s == ["0.71", "0.82"]
        assert m6s == [15, 11, 4]
        assert freq["CWE-119"] == 30
        assert freq["CWE-200"] == 22
        assert freq["CWE-310"] == 17
        assert elapsed < 1.0, f"metric computation took {elapsed:.3f}s"
        ok = True
    finally:
        _line(1, ok, "metric suite reproduces the three-release study values")


def test_criterion_2_prioritization(openplc_snapshots):
    ok = False
    try:
        rows = metrics.prioritize(openplc_snapshots["V3"], 6.0, 10.0, "by_asset")
        assert [(r.cve_id, r.cvss, r.asset_id) for r in rows] == [
            ("CVE-2018-12886", 6.8, "libgcc_s"),
            ("CVE-2018-11236", 7.5, "libc"),
            ("CVE-2017-18269", 7.5, "libc"),
        ]
        v1 = metrics.prioritize(openplc_snapshots["V1"], 6.0, 10.0, "global")
        rank1 = [r for r in v1 if r.rank == 1]
        assert {(r.cve_id, r.cvss, r.asset_id) for r in rank1} == {
            ("CVE-2016-2842", 10.0, "libssl"),
            ("CVE-2016-0705", 10.0, "libssl"),
            ("CVE-2016-0799", 10.0, "libssl"),
        }
        ok = True
    finally:
        _line(2, ok, "patch queues match the printed tables")


def test_criterion_3_temporal_semantics():
    ok = False
    try:
        tl, cat = update_patch_scenario()
        g2 = tl_mod.epoch_snapshot(tl, cat, "t2")
        assert Edge(source="a2@0", target="CVE-2020-0001") in g2.edges
        assert Edge(source="a2@1", target="CVE-2020-0001") in g2.edges
        assert [e for e in g2.edges if e.kind == "deprecated"] == [
            Edge(source=ROOT_ID, target="a2@0", kind="deprecated")]

        g3 = tl_mod.epoch_snapshot(tl, cat, "t3")
        newest = g3.active_node("a2")
        assert newest.node_id == "a2@2"
        assert graph.active_subgraph(g3).cves_of.get("a2@2", ()) == ()
        assert metrics.m1(g3) == 0
        assert {(e.source, e.target) for e in g3.edges if e.kind == "deprecated"} == {
            (ROOT_ID, "a2@0"), (ROOT_ID, "a2@1"), ("a2@1", "CVE-2020-0001")}
        ok = True
    finally:
        _line(3, ok, "update without fix shares the vulnerability; the fix clears it")


def test_criterion_4_property_suites():
    ok = False
    try:
        assert props.CASES >= 500
        start = time.perf_counter()
        props.test_cpe_parse_bind_roundtrip()
        props.test_cluster_by_leaves_its_input_unchanged()
        props.test_metrics_match_brute_force_oracle()
        props.test_m4_sums_to_one()
        props.test_m8_union_never_exceeds_sum()
        props.test_event_replay_determinism()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"property suites took {elapsed:.1f}s"
        ok = True
    finally:
        _line(4, ok, "six randomized suites at >=500 cases inside the time budget")


def test_criterion_5_ingestion(tmp_path):
    ok = False
    try:
        feed = {
            "CVE_Items": [
                {
                    "cve": {"CVE_data_meta": {"ID": "CVE-2017-16997"},
                            "problemtype": {"problemtype_data": [
                                {"description": [{"lang": "en", "value": "CWE-426"}]}]}},
                    "configurations": {"nodes": [{"cpe_match": [
                        {"vulnerable": True,
                         "cpe23Uri": "cpe:2.3:a:gnu:glibc:2.19:*:*:*:*:*:*:*"}]}]},
                    "impact": {"baseMetricV2": {"cvssV2": {"baseScore": 9.3}}},
                    "publishedDate": "2017-12-17T02:29Z",
                },
                {
                    "cve": {"CVE_data_meta": {"ID": "CVE-2018-0001"},
                            "problemtype": {"problemtype_data": []}},
                    "configurations": {"nodes": []},
                    "impact": {"baseMetricV2": {"cvssV2": {"baseScore": 5.0}}},
                    "publishedDate": "2018-01-01T00:00Z",
                },
                {
                    "cve": {"CVE_data_meta": {"ID": "CVE-2018-0002"},
                            "problemtype": {"problemtype_data": [
                                {"description": [{"lang": "en", "value": "CWE-119"}]}]}},
                    "configurations": {"nodes": []},
                    "impact": {"baseMetricV3": {"cvssV3": {"baseScore": 9.8}},
                               "baseMetricV2": {"cvssV2": {"baseScore": 9.3}}},
                    "publishedDate": "2018-02-01T00:00Z",
                },
            ]
        }
        feed_path = tmp_path / "feed.json"
        feed_path.write_text(json.dumps(feed))

        records, warnings = cat_mod.import_nvd_feed(feed_path)
        assert warnings == []
        by_id = {r.cve_id: r for r in records}
        assert by_id["CVE-2017-16997"].cvss == 9.3
        assert by_id["CVE-2017-16997"].cvss_scheme == "v2"
        assert by_id["CVE-2017-16997"].cwe_ids == ("CWE-426",)
        assert by_id["CVE-2018-0001"].cwe_ids == ("CWE-NULL",)
        assert by_id["CVE-2018-0002"].cvss == 9.8  # v3 preferred
        records_v2, _ = cat_mod.import_nvd_feed(feed_path, prefer_v3=False)
        assert {r.cve_id: r for r in records_v2}["CVE-2018-0002"].cvss == 9.3

        out = tmp_path / "canonical.json"
        cat_mod.save_catalog(cat_mod.records_to_catalog(records, "2020-01-01"), out)
        loaded = cat_mod.load_catalog(out)
        assert set(loaded.vulnerabilities) == set(by_id)
        assert all(loaded.vulnerabilities[c] == by_id[c] for c in by_id)
        out2 = tmp_path / "canonical2.json"
        cat_mod.save_catalog(loaded, out2)
        assert out.read_text() == out2.read_text()
        ok = True
    finally:
        _line(5, ok, "feed import honors precedence and null-weakness rules, idempotent")


def test_criterion_6_reporting_and_alerts(openplc_snapshots, openplc_timeline,
                                          openplc_catalog):
    ok = False
    try:
        for label, g in openplc_snapshots.items():
            for show in (True, False):
                view = g if show else graph.active_subgraph(g)
                nodes, edges = parse_dot(
                    export_dot(g, RenderOptions(show_deprecated=show)))
                assert len(nodes) == 1 + len(view.assets) + len(view.vulns), (label, show)
                assert len(edges) == len(view.edges), (label, show)

        rule = AlertRule.cvss_at_least(10.0)
        assert len(check_alerts(openplc_snapshots["V1"], [rule])) == 3
        assert len(check_alerts(openplc_snapshots["V3"], [rule])) == 0

        payload = report_mod.report_payload(openplc_timeline, openplc_catalog)
        requirements = [e["text"] for e in payload["remediation"]["requirements"]]
        training = [e["text"] for e in payload["remediation"]["training"]]
        cases = payload["remediation"]["test_cases"]
        assert any(t.startswith("Clearly specify which data or resources are valuable")
                   for t in requirements)
        assert "Use languages that perform their own memory management." in requirements
        assert "Secure programming: memory management." in training
        assert "Certificate management." in training
        joined_capecs = {c for e in cases for c in e["capec_ids"]}
        assert {"CAPEC-10", "CAPEC-14", "CAPEC-24", "CAPEC-45", "CAPEC-46",
                "CAPEC-47"} <= joined_capecs
        assert any("environment variables" in e["text"] for e in cases)
        ok = True
    finally:
        _line(6, ok, "graphs parse with matching counts; alert and remediation checks hold")
