import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import make_catalog, manifest, name, record, ts, update_patch_scenario, wstr
from oracles import brute_priorities
from vulngraph import graph, metrics, timeline as tl_mod
from vulngraph.errors import NoAssets, NoVulnerabilities, UnknownAsset, UnknownMetric
from vulngraph.graph import build_edg
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


def tie_doc():
    """A hand-made snapshot: assets ``a`` and ``a-b`` share order 0 (node
    ``a-b@0`` sorts before ``a@0``, asset ``a`` before ``a-b``); CVE 1 and 2
    tie at 9.0 but only 2 has an exploit; CVE 1 lists CWE-79 twice with
    CWE-079 between; CVE 2 and 3 carry CWE-NULL."""
    sut = "cpe:2.3:a:v:sut:1.0:*:*:*:*:*:*:*"

    def asset(asset_id):
        return {"node_id": f"{asset_id}@0", "asset_id": asset_id, "order": 0,
                "cpe": "cpe:2.3:a:v:p:1.0:*:*:*:*:*:*:*", "cpe_previous": None,
                "deprecated": False}

    def vuln(n, cvss, cwe_ids, exploit=False):
        return {"cve_id": f"CVE-2020-000{n}", "cvss": cvss, "cwe_ids": cwe_ids,
                "capec_ids": [], "exploit_available": exploit}

    links = [("root", "a@0"), ("root", "a-b@0"), ("a@0", "CVE-2020-0001"),
             ("a@0", "CVE-2020-0002"), ("a@0", "CVE-2020-0003"),
             ("a-b@0", "CVE-2020-0001"), ("a-b@0", "CVE-2020-0003")]
    return {
        "schema_version": 1,
        "epoch": "e1",
        "root": {"cpe": sut, "checked_at": AT},
        "assets": [asset("a"), asset("a-b")],
        "vulns": [vuln(1, 9.0, ["CWE-79", "CWE-079", "CWE-79"]),
                  vuln(2, 9.0, ["CWE-NULL"], exploit=True),
                  vuln(3, 5.0, ["CWE-20", "CWE-NULL"])],
        "edges": [{"source": s, "target": t, "kind": "normal"} for s, t in links],
        "clusters": [],
    }


def test_prioritize_and_weakness_order_on_ties():
    doc = tie_doc()
    g = graph.edg_from_dict(doc)
    assert [tuple(r) for r in metrics.prioritize(g, 0.0, 10.0, "by_asset")] == [
        ("CVE-2020-0002", 9.0, "a", True, 1),  # the exploit wins the 9.0 tie
        ("CVE-2020-0001", 9.0, "a", False, 1),
        ("CVE-2020-0003", 5.0, "a", False, 2),
        ("CVE-2020-0001", 9.0, "a-b", False, 1),
        ("CVE-2020-0003", 5.0, "a-b", False, 2),
    ]
    # One group: a CVE's rows follow the assets' (order, node id).
    assert [tuple(r) for r in metrics.prioritize(g, 0.0, 10.0, "global")] == [
        ("CVE-2020-0002", 9.0, "a", True, 1),
        ("CVE-2020-0001", 9.0, "a-b", False, 1),
        ("CVE-2020-0001", 9.0, "a", False, 1),
        ("CVE-2020-0003", 5.0, "a-b", False, 2),
        ("CVE-2020-0003", 5.0, "a", False, 2),
    ]
    for lo, hi in ((0.0, 10.0), (5.0, 9.0), (6.0, 10.0), (9.0, 9.0), (0.0, 4.9)):
        for grouping in ("by_asset", "global"):
            rows = [tuple(r) for r in metrics.prioritize(g, lo, hi, grouping)]
            assert rows == brute_priorities(doc, lo, hi, grouping), (lo, hi, grouping)

    # Weaknesses sort by number, CWE-NULL last; CWE-079 and CWE-79 tie and
    # keep the order they were first counted in.
    rep = metrics.snapshot_report(g)
    assert list(rep.m3_by_asset.items()) == [("a-b", 2), ("a", 3)]
    assert [(a, list(m.items())) for a, m in rep.m5_by_asset_cwe.items()] == [
        ("a-b", [("CWE-20", 1), ("CWE-79", 1), ("CWE-079", 1), ("CWE-NULL", 1)]),
        ("a", [("CWE-20", 1), ("CWE-79", 1), ("CWE-079", 1), ("CWE-NULL", 2)]),
    ]
    assert list(rep.m6_by_cwe.items()) == [
        ("CWE-20", 1), ("CWE-79", 1), ("CWE-079", 1), ("CWE-NULL", 2),
    ]
    assert rep.m7 == 4


# Each tie pair comes from two CVEs; in CVE-id order the zero-padded id
# comes first in two pairs and second in the other two.
_CROSS_CVE_TIES = ["CWE-079", "CWE-79", "CWE-20", "CWE-020",
                   "CWE-0119", "CWE-119", "CWE-787", "CWE-00787"]


def cross_cve_tie_doc():
    """A hand-made snapshot: one asset hosts CVE 1..8, each with one weakness
    of :data:`_CROSS_CVE_TIES`, and a second asset hosts CVE 5..8."""
    doc = tie_doc()
    doc["vulns"] = [{"cve_id": f"CVE-2020-000{n}", "cvss": 5.0, "cwe_ids": [cwe_id],
                     "capec_ids": [], "exploit_available": False}
                    for n, cwe_id in enumerate(_CROSS_CVE_TIES, 1)]
    links = [("root", "a@0"), ("root", "a-b@0")]
    links += [("a@0", v["cve_id"]) for v in doc["vulns"]]
    links += [("a-b@0", v["cve_id"]) for v in doc["vulns"][4:]]
    doc["edges"] = [{"source": s, "target": t, "kind": "normal"} for s, t in links]
    return doc


_PRINT_ORDERS = """
import json, sys
from vulngraph import graph, metrics
rep = metrics.snapshot_report(graph.edg_from_dict(json.load(sys.stdin)))
print(json.dumps([list(rep.m6_by_cwe), {a: list(m) for a, m in rep.m5_by_asset_cwe.items()},
                  rep.to_text()]))
"""


def test_weakness_ties_follow_cve_order_under_any_string_hash():
    # The view's vulnerabilities come from a set of edges, whose order
    # follows string hashing: ties must not.
    env = dict(os.environ, PYTHONPATH=str(Path(metrics.__file__).resolve().parents[1]))
    doc = json.dumps(cross_cve_tie_doc())
    outputs = set()
    for seed in range(1, 9):
        run = subprocess.run([sys.executable, "-c", _PRINT_ORDERS], input=doc,
                             capture_output=True, text=True, timeout=120,
                             env=dict(env, PYTHONHASHSEED=str(seed)))
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1
    m6_order, m5_orders, _ = json.loads(outputs.pop())
    by_number = ["CWE-20", "CWE-020", "CWE-079", "CWE-79",
                 "CWE-0119", "CWE-119", "CWE-787", "CWE-00787"]
    assert m6_order == by_number
    assert m5_orders == {"a-b": by_number[4:], "a": by_number}


def test_reports_are_value_records(openplc_timeline, openplc_catalog, openplc_snapshots):
    rep = metrics.snapshot_report(openplc_snapshots["V1"])
    life = metrics.lifecycle_report(openplc_timeline, openplc_catalog)
    fields = {
        metrics.MetricReport: ("epoch", "checked_at", "n_assets", "m0", "m1", "m7",
                               "m3_by_asset", "m4_by_asset", "m5_by_asset_cwe", "m6_by_cwe"),
        metrics.LifecycleReport: ("epoch_labels", "m2", "m8_union", "m8_sum",
                                  "weakness_frequency"),
    }
    for value in (rep, life):
        assert isinstance(value, tuple)
        assert type(value)._fields == fields[type(value)]
        assert not hasattr(value, "__dict__")
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
    assert rep.to_dict() == dict(zip(rep._fields, rep))
    assert list(rep.to_dict()) == list(rep._fields)
    assert not hasattr(life, "per_epoch")


def test_metric_table_folds_assets_without_vulnerabilities_into_others():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119", affected=[wstr("v", "p1", "1.0")]),
    ])
    m = manifest([("a1", wstr("v", "p1", "1.0")), ("a2", wstr("v", "p2", "1.0")),
                  ("a3", wstr("v", "p3", "1.0"))])
    rep = metrics.snapshot_report(build_edg(name("v", "sut", "1.0"), m, cat, AT))
    assert rep.to_text().splitlines() == [
        f"epoch -  checked {AT}",
        "metric      a1    others",
        "n(t)        3",
        "M0          0.33",
        "M1          1",
        "M3          1     0",
        "M4          1.00  0.00",
        "M5 CWE-119  1     -",
        "M6 CWE-119  1",
        "M7          1",
    ]


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
