import pytest

from helpers import make_catalog, manifest, name, record, ts, update_patch_scenario, wstr
from vulngraph import graph, metrics, timeline as tl_mod
from vulngraph.errors import NoAssets, NoVulnerabilities, UnknownAsset, UnknownMetric
from vulngraph.graph import ClusterRule, build_edg, cluster_by
from vulngraph.timeline import Timeline

AT = "2020-06-01T00:00:00Z"


def shared_cve_system():
    """One CVE attached to both assets (union 1, per-asset sum 2)."""
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119",
               affected=[wstr("v", "p1", "1.0"), wstr("v", "p2", "1.0")]),
    ])
    m = manifest([("a1", wstr("v", "p1", "1.0")), ("a2", wstr("v", "p2", "1.0"))])
    return build_edg(name("v", "sut", "1.0"), m, cat, AT)


def test_m1_union_counts_shared_cve_once():
    g = shared_cve_system()
    assert metrics.m1(g) == 1
    assert metrics.m3(g, "a1") == 1 and metrics.m3(g, "a2") == 1
    # per-asset sum exceeds the union; relative frequencies split it
    assert metrics.m4(g, "a1") == pytest.approx(0.5)


def test_m0_examples():
    g = shared_cve_system()
    assert metrics.m0(g) == pytest.approx(0.5)
    empty = build_edg(name("v", "s"), manifest([("a", wstr("v", "p", "1.0"))]),
                      make_catalog(), AT)
    assert metrics.m0(empty) == 0.0
    assert metrics.m1(empty) == 0


def test_m0_requires_assets():
    g = build_edg(name("v", "s"), manifest([("a", wstr("v", "p", "1.0"))]),
                  make_catalog(), AT)
    g = graph.retire_asset(g, "a")
    with pytest.raises(NoAssets):
        metrics.m0(g)


def test_m4_requires_vulnerabilities_and_known_asset():
    g = build_edg(name("v", "s"), manifest([("a", wstr("v", "p", "1.0"))]),
                  make_catalog(), AT)
    with pytest.raises(NoVulnerabilities):
        metrics.m4(g, "a")
    with pytest.raises(UnknownAsset):
        metrics.m4(g, "ghost")
    with pytest.raises(UnknownAsset):
        metrics.m3(g, "ghost")


def test_m4_sole_vulnerable_asset_is_one():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 5.0, "CWE-119", affected=[wstr("v", "p1", "1.0")]),
    ])
    m = manifest([("a1", wstr("v", "p1", "1.0")), ("a2", wstr("v", "p2", "1.0"))])
    g = build_edg(name("v", "s"), m, cat, AT)
    assert metrics.m4(g, "a1") == 1.0


def test_m5_m6_multiplicity():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 5.0, "CWE-119", affected=[wstr("v", "p1", "1.0")]),
        record("CVE-2020-0002", 5.0, "CWE-119", affected=[wstr("v", "p1", "1.0")]),
        record("CVE-2020-0003", 5.0, "CWE-200", affected=[wstr("v", "p1", "1.0")]),
    ])
    g = build_edg(name("v", "s"), manifest([("a1", wstr("v", "p1", "1.0"))]), cat, AT)
    assert metrics.m5(g, "a1", "CWE-119") == 2
    assert metrics.m5(g, "a1", "CWE-200") == 1
    assert metrics.m5(g, "a1", "CWE-777") == 0
    assert metrics.m6(g, "CWE-119") == 2
    assert metrics.m6(g, "CWE-777") == 0
    assert metrics.m7(g) == 2


def test_m6_at_least_max_m5():
    g = shared_cve_system()
    assert metrics.m6(g, "CWE-119") >= max(
        metrics.m5(g, "a1", "CWE-119"), metrics.m5(g, "a2", "CWE-119"))


def test_multi_cwe_record_counts_once_per_weakness():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 5.0, ["CWE-119", "CWE-200"],
               affected=[wstr("v", "p1", "1.0")]),
    ])
    g = build_edg(name("v", "s"), manifest([("a1", wstr("v", "p1", "1.0"))]), cat, AT)
    assert metrics.m1(g) == 1
    assert metrics.m6(g, "CWE-119") == 1 and metrics.m6(g, "CWE-200") == 1
    assert metrics.m7(g) == 2
    # a weakness listed twice on one record is still one distinct weakness
    cat = make_catalog(records=[
        record("CVE-2020-0001", 5.0, ["CWE-119", "CWE-119"],
               affected=[wstr("v", "p1", "1.0")]),
    ])
    g = build_edg(name("v", "s"), manifest([("a1", wstr("v", "p1", "1.0"))]), cat, AT)
    assert metrics.m5(g, "a1", "CWE-119") == 1 and metrics.m6(g, "CWE-119") == 1
    rep = metrics.snapshot_report(g)
    assert rep.m5_by_asset_cwe == {"a1": {"CWE-119": 1}}
    assert rep.m6_by_cwe == {"CWE-119": 1} and rep.m7 == 1


def test_m2_sums_epochs_not_union():
    # the same CVE alive in two epochs is counted in both
    cat = make_catalog(records=[
        record("CVE-2020-0001", 5.0, "CWE-119",
               affected=[(wstr("v", "p", "*"), "1.0", "9.0")]),
    ])
    tl = Timeline(sut_cpe=name("v", "sut", "1.0"),
                  manifest=manifest([("a", wstr("v", "p", "1.0"))]), built_at=ts(1))
    tl = tl_mod.mark_epoch(tl, "r1", ts(1))
    tl = tl_mod.append_event(tl, tl_mod.LifecycleEvent(
        at=ts(2), seq=0, kind="asset_updated", asset_id="a",
        cpe_value=name("v", "p", "2.0")))
    tl = tl_mod.mark_epoch(tl, "r2", ts(2))
    assert metrics.m1(tl_mod.epoch_snapshot(tl, cat, "r1")) == 1
    assert metrics.m1(tl_mod.epoch_snapshot(tl, cat, "r2")) == 1
    assert metrics.m2(tl, cat) == 2
    assert metrics.m8(tl, cat, "union") == 1
    assert metrics.m8(tl, cat, "sum") == 2


def test_m2_single_epoch_equals_m1():
    tl, cat = update_patch_scenario()
    single = Timeline(sut_cpe=tl.sut_cpe, manifest=tl.manifest, built_at=tl.built_at)
    single = tl_mod.mark_epoch(single, "only", tl.built_at)
    assert metrics.m2(single, cat) == metrics.m1(
        tl_mod.epoch_snapshot(single, cat, "only"))


def test_m8_single_epoch_both_modes_equal_m7():
    tl, cat = update_patch_scenario()
    single = Timeline(sut_cpe=tl.sut_cpe, manifest=tl.manifest, built_at=tl.built_at,
                      events=list(tl.events)[:1])
    single = tl_mod.mark_epoch(single, "only", ts(2))
    g = tl_mod.epoch_snapshot(single, cat, "only")
    assert metrics.m8(single, cat, "union") == metrics.m7(g)
    assert metrics.m8(single, cat, "sum") == metrics.m7(g)
    with pytest.raises(ValueError):
        metrics.m8(single, cat, "average")


def test_lifecycle_weakness_frequency_single_epoch_equals_m6():
    tl, cat = update_patch_scenario()
    freq = metrics.lifecycle_weakness_frequency(tl, cat)
    # the scenario's one weakness is present in epochs t1 and t2
    assert freq == {"CWE-119": 2}


def test_lifecycle_weakness_frequency_empty():
    cat = make_catalog()
    tl = Timeline(sut_cpe=name("v", "sut", "1.0"),
                  manifest=manifest([("a", wstr("v", "p", "1.0"))]), built_at=ts(1))
    tl = tl_mod.mark_epoch(tl, "r1", ts(1))
    assert metrics.lifecycle_weakness_frequency(tl, cat) == {}


def test_metrics_ignore_clustering():
    g = shared_cve_system()
    clustered = cluster_by(g, ClusterRule.cvss_below(9.0))
    assert metrics.m1(clustered) == metrics.m1(g)
    assert metrics.m7(clustered) == metrics.m7(g)
    assert metrics.m3(clustered, "a1") == metrics.m3(g, "a1")


def prioritize_system():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 9.0, "CWE-119", affected=[wstr("v", "p1", "1.0")]),
        record("CVE-2020-0002", 9.0, "CWE-119", affected=[wstr("v", "p1", "1.0")],
               exploit=True),
        record("CVE-2020-0003", 7.0, "CWE-200", affected=[wstr("v", "p1", "1.0")]),
        record("CVE-2020-0004", 8.0, "CWE-200", affected=[wstr("v", "p2", "1.0")]),
        record("CVE-2020-0005", 2.0, "CWE-200", affected=[wstr("v", "p2", "1.0")]),
    ])
    m = manifest([("a1", wstr("v", "p1", "1.0")), ("a2", wstr("v", "p2", "1.0"))])
    return build_edg(name("v", "sut", "1.0"), m, cat, AT)


def test_prioritize_by_asset_order_and_ties():
    rows = metrics.prioritize(prioritize_system(), 0.0, 10.0, "by_asset")
    assert [(r.cve_id, r.asset_id) for r in rows] == [
        ("CVE-2020-0002", "a1"),  # exploit wins the 9.0 tie
        ("CVE-2020-0001", "a1"),
        ("CVE-2020-0003", "a1"),
        ("CVE-2020-0004", "a2"),
        ("CVE-2020-0005", "a2"),
    ]
    assert [r.rank for r in rows] == [1, 1, 2, 1, 2]


def test_prioritize_global_and_window():
    rows = metrics.prioritize(prioritize_system(), 6.0, 10.0, "global")
    assert [r.cve_id for r in rows] == [
        "CVE-2020-0002", "CVE-2020-0001", "CVE-2020-0004", "CVE-2020-0003",
    ]
    assert [r.rank for r in rows] == [1, 1, 2, 3]


def test_prioritize_empty_window_and_validation():
    g = build_edg(name("v", "s"), manifest([("a", wstr("v", "p", "1.0"))]),
                  make_catalog(), AT)
    assert metrics.prioritize(g, 0.0, 10.0) == []
    with pytest.raises(ValueError):
        metrics.prioritize(g, 7.0, 3.0)
    with pytest.raises(ValueError):
        metrics.prioritize(g, -1.0, 3.0)
    with pytest.raises(ValueError):
        metrics.prioritize(g, 0.0, 10.0, grouping="sideways")


def test_prioritize_deterministic(openplc_snapshots):
    g = openplc_snapshots["V1"]
    first = metrics.prioritize(g, 6.0, 10.0)
    second = metrics.prioritize(g, 6.0, 10.0)
    assert first == second


def test_iec62443_annotations():
    assert metrics.iec62443_annotations("M0") == {"SR-2", "SR-5", "SM-13", "SVV-4", "DM-3"}
    assert metrics.iec62443_annotations("M2") == {"SR-5", "SM-13"}
    assert metrics.iec62443_annotations("M7") == {"SR-2", "SVV-4", "DM-3"}
    assert metrics.iec62443_annotations("m4") == {"SR-5", "SM-13"}
    with pytest.raises(UnknownMetric):
        metrics.iec62443_annotations("M9")


def test_snapshot_report_consistency(openplc_snapshots):
    rep = metrics.snapshot_report(openplc_snapshots["V1"])
    assert rep.m0 == rep.m1 / rep.n_assets
    assert sum(rep.m4_by_asset.values()) == pytest.approx(1.0, abs=1e-9)
    # column sums: per-asset weakness multiplicities add up to the asset count
    for asset_id, per_cwe in rep.m5_by_asset_cwe.items():
        assert sum(per_cwe.values()) == rep.m3_by_asset[asset_id]
    text = rep.to_text()
    assert "M0" in text and "4.79" in text and "libssl" in text


def test_lifecycle_report_values(openplc_timeline, openplc_catalog):
    life = metrics.lifecycle_report(openplc_timeline, openplc_catalog)
    assert life.m2 == 173
    assert life.m8_union == 22
    assert life.m8_sum == 39
    assert life.m8_union <= life.m8_sum
    assert life.epoch_labels == ["V1", "V2", "V3"]
    assert "M2" in life.to_text()
