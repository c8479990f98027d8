import json

import pytest

from dotcheck import DotSyntaxError, parse_dot
from helpers import make_catalog, manifest, name, record, update_patch_scenario, wstr
from vulngraph import graph, metrics, report as report_mod, timeline as tl_mod
from vulngraph.errors import UnknownMetric
from vulngraph.graph import ClusterRule, build_edg
from vulngraph.report import AlertRule, RenderOptions, check_alerts, export_dot

AT = "2020-06-01T00:00:00Z"


def test_dot_update_scenario_t2():
    tl, cat = update_patch_scenario()
    g = tl_mod.epoch_snapshot(tl, cat, "t2")
    dot = export_dot(g)
    nodes, edges = parse_dot(dot)
    dashed = [(s, t) for s, t, attrs in edges if attrs.get("style") == "dashed"]
    assert dashed == [("root", "a2@0")]
    into_vuln = [(s, t) for s, t, attrs in edges
                 if t == "CVE-2020-0001" and attrs.get("style") != "dashed"]
    assert sorted(into_vuln) == [("a2@0", "CVE-2020-0001"), ("a2@1", "CVE-2020-0001")]
    assert nodes["root"]["shape"] == "box"
    assert nodes["a2@1"]["shape"] == "ellipse"
    assert nodes["CVE-2020-0001"]["shape"] == "invtriangle"


def test_dot_root_only_graph():
    g = build_edg(name("v", "s", "1.0"), manifest([("a", wstr("v", "p", "1.0"))]),
                  make_catalog(), AT)
    g = graph.retire_asset(g, "a")
    dot = export_dot(g, RenderOptions(show_deprecated=False))
    nodes, edges = parse_dot(dot)
    assert list(nodes) == ["root"]
    assert nodes["root"]["shape"] == "box"
    assert edges == []


def test_dot_counts_match_snapshot(openplc_snapshots):
    for label, g in openplc_snapshots.items():
        for show in (True, False):
            view = g if show else graph.active_subgraph(g)
            nodes, edges = parse_dot(export_dot(g, RenderOptions(show_deprecated=show)))
            assert len(nodes) == view.node_count(), (label, show)
            assert len(edges) == len(view.edges), (label, show)


def test_dot_cluster_shapes():
    g = build_edg(name("v", "s", "1.0"),
                  manifest([("a", wstr("v", "p", "1.0")), ("b", wstr("v", "q", "1.0"))]),
                  make_catalog(), AT)
    dot = export_dot(g, RenderOptions(cluster_rule=ClusterRule.no_vulnerabilities()))
    nodes, edges = parse_dot(dot)
    cluster_nodes = [n for n, attrs in nodes.items() if attrs.get("style") == "dashed"]
    assert cluster_nodes == ["cluster-1"]
    assert nodes["cluster-1"]["shape"] == "ellipse"


def test_dot_deterministic(openplc_snapshots):
    g = openplc_snapshots["V2"]
    assert export_dot(g) == export_dot(g)


def test_dot_escapes_label_content():
    g = build_edg(
        name("v", "s", "1.0"),
        manifest([("a", r"cpe:2.3:a:v:p\:q:1.0:*:*:*:*:*:*:*")]),
        make_catalog(),
        AT,
    )
    nodes, _ = parse_dot(export_dot(g))
    assert nodes["a@0"]["label"] == r"cpe:2.3:a:v:p\:q:1.0:*:*:*:*:*:*:*"


def test_dot_full_labels(openplc_snapshots):
    dot = export_dot(openplc_snapshots["V3"], RenderOptions(verbosity="full",
                                                            show_deprecated=False))
    assert "CVSS" in dot
    parse_dot(dot)  # still grammatical


def test_dot_full_labels_list_patched_weaknesses_with_deprecated_edges():
    tl, cat = update_patch_scenario()
    g = tl_mod.epoch_snapshot(tl, cat, "t3")  # a2@1's CVE edge is deprecated
    nodes, _ = parse_dot(export_dot(g, RenderOptions(verbosity="full")))
    assert nodes["a2@1"]["label"].endswith(r"\nCWE-119")
    assert "CWE" not in nodes["a2@2"]["label"]
    assert "a2@1" not in parse_dot(export_dot(
        g, RenderOptions(verbosity="full", show_deprecated=False)))[0]


def test_dot_checker_rejects_garbage():
    with pytest.raises(DotSyntaxError):
        parse_dot("graph g { a -- b }")
    with pytest.raises(DotSyntaxError):
        parse_dot('digraph g {\n"a" -> "b"\n}')  # missing semicolon


def test_alerts_cvss_threshold(openplc_snapshots):
    rule = AlertRule.cvss_at_least(10.0)
    firings = check_alerts(openplc_snapshots["V1"], [rule])
    assert [f.entity for f in firings] == ["CVE-2016-0705", "CVE-2016-0799", "CVE-2016-2842"]
    assert check_alerts(openplc_snapshots["V3"], [rule]) == []


def test_alerts_cvss_threshold_sees_clustered_vulnerabilities():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119", affected=[wstr("v", "high", "1.0")]),
        record("CVE-2020-0002", 3.1, "CWE-200", affected=[wstr("v", "low", "1.0")]),
    ])
    m = manifest([("high", wstr("v", "high", "1.0")), ("low", wstr("v", "low", "1.0"))])
    g = build_edg(name("v", "sut", "1.0"), m, cat, AT)
    clustered = graph.cluster_by(g, ClusterRule.cvss_below(5.0))
    assert [v.cve_id for v in clustered.clusters["cluster-1"].vulns] == ["CVE-2020-0002"]
    rule = AlertRule.cvss_at_least(3.0)
    entities = [f.entity for f in check_alerts(clustered, [rule])]
    assert entities == [f.entity for f in check_alerts(g, [rule])]
    assert entities == ["CVE-2020-0001", "CVE-2020-0002"]
    assert metrics.m1(clustered) == len(entities)


def test_alerts_metric_bound(openplc_snapshots):
    rule = AlertRule.metric_bound("M0", ">=", 1.0)
    assert check_alerts(openplc_snapshots["V3"], [rule]) == []  # M0 = 0.26
    firings = check_alerts(openplc_snapshots["V1"], [rule])  # M0 = 4.79
    assert len(firings) == 1 and firings[0].entity == "M0"


def test_alerts_empty_rule_list(openplc_snapshots):
    assert check_alerts(openplc_snapshots["V1"], []) == []


def test_alert_rule_validation():
    with pytest.raises(ValueError):
        AlertRule.cvss_at_least(11.0)
    with pytest.raises(ValueError):
        AlertRule.metric_bound("M0", "!=", 1.0)
    with pytest.raises(UnknownMetric):
        AlertRule.metric_bound("M99", ">=", 1.0)
    with pytest.raises(UnknownMetric):
        check_alerts(
            build_edg(name("v", "s"), manifest([("a", wstr("v", "p", "1.0"))]),
                      make_catalog(), AT),
            [AlertRule.metric_bound("M8", ">=", 1.0)],  # timeline metric, not snapshot
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_metric_bound_rule_refuses_a_non_finite_bound(openplc_snapshots, value):
    # NaN compares false and no metric reaches an infinite bound: such a rule
    # could never fire.
    with pytest.raises(ValueError) as err:
        AlertRule.metric_bound("M0", ">=", value)
    assert str(err.value) == f"bound {value!r} for M0 is not a finite number"


def test_metric_bound_rule_takes_only_snapshot_scalars(openplc_snapshots):
    # refused when the rule is made, not when it is checked
    for metric in ("M2", "M3", "M8", "M99"):
        with pytest.raises(UnknownMetric):
            AlertRule.metric_bound(metric, ">=", 1)
    rep = metrics.snapshot_report(openplc_snapshots["V1"])
    assert [rep.scalar(m) for m in metrics.SCALAR_METRICS] == [rep.m0, rep.m1, rep.m7]
    with pytest.raises(UnknownMetric):
        rep.scalar("M8")


def test_report_root_causes_ranking(openplc_timeline, openplc_catalog):
    payload = report_mod.report_payload(openplc_timeline, openplc_catalog)
    freq = payload["lifecycle"]["weakness_frequency"]
    ordered = list(freq)
    assert ordered[0] == "CWE-119" and freq["CWE-119"] == 30
    assert freq["CWE-200"] == 22 and freq["CWE-310"] == 17
    assert ordered.index("CWE-200") < ordered.index("CWE-310")


def test_report_remediation_quotes_kb_rows(openplc_timeline, openplc_catalog):
    payload = report_mod.report_payload(openplc_timeline, openplc_catalog)
    requirements = [e["text"] for e in payload["remediation"]["requirements"]]
    training = [e["text"] for e in payload["remediation"]["training"]]
    test_cases = [e["text"] for e in payload["remediation"]["test_cases"]]
    assert any(t.startswith("Clearly specify which data or resources") for t in requirements)
    assert "Secure programming: memory management." in training
    assert any("environment variables" in t for t in test_cases)
    joined = {c for e in payload["remediation"]["test_cases"] for c in e["capec_ids"]}
    assert {"CAPEC-10", "CAPEC-14", "CAPEC-24", "CAPEC-45", "CAPEC-46", "CAPEC-47"} <= joined


def test_report_formats_share_numbers(openplc_timeline, openplc_catalog):
    doc = report_mod.generate_report(openplc_timeline, openplc_catalog, "json")
    text = report_mod.generate_report(openplc_timeline, openplc_catalog, "markdown")
    assert json.loads(json.dumps(doc)) == doc
    # spot numeric payloads in the rendered text
    v1 = doc["epochs"][0]["metrics"]
    assert f"- M1 (vulnerabilities): {v1['m1']}" in text
    assert "4.79" in text
    assert "CWE-119: 30" in text
    with pytest.raises(ValueError):
        report_mod.generate_report(openplc_timeline, openplc_catalog, "html")


def test_report_fixed_issues(openplc_timeline, openplc_catalog):
    payload = report_mod.report_payload(openplc_timeline, openplc_catalog)
    fixed = payload["fixed_issues"]
    assert [f["from"] for f in fixed] == ["V1", "V2"]
    assert len(fixed[0]["fixed_cves"]) == 91
    assert "CVE-2016-2842" in fixed[0]["fixed_cves"]


def test_report_vuln_free_epoch():
    cat = make_catalog()
    tl = tl_mod.Timeline(sut_cpe=name("v", "sut", "1.0"),
                         manifest=manifest([("a", wstr("v", "p", "1.0"))]),
                         built_at=AT)
    tl = tl_mod.mark_epoch(tl, "r1", AT)
    payload = report_mod.report_payload(tl, cat)
    m = payload["epochs"][0]["metrics"]
    assert m["m1"] == 0 and m["m7"] == 0 and m["m0"] == 0.0
    assert payload["epochs"][0]["prioritization"] == []
    assert payload["remediation"]["requirements"] == []
    text = report_mod.render_markdown(payload)
    assert "nothing in the window" in text


def test_epoch_diff(openplc_timeline, openplc_catalog):
    delta = report_mod.epoch_diff(openplc_timeline, openplc_catalog, "V1", "V2")
    assert sorted(delta["assets_added"]) == [
        "glue_generator", "libicuuc", "matiec", "opendnp3", "st_optimizer"]
    assert sorted(delta["assets_removed"]) == ["libcares", "oplc_compiler"]
    assert len(delta["vulns_fixed"]) == 91 and len(delta["vulns_added"]) == 77


def test_epoch_diff_self_is_empty(openplc_timeline, openplc_catalog):
    delta = report_mod.epoch_diff(openplc_timeline, openplc_catalog, "V2", "V2")
    assert delta["assets_added"] == [] and delta["assets_removed"] == []
    assert delta["vulns_added"] == [] and delta["vulns_fixed"] == []
