"""Internal consistency of the bundled study fixtures.

The catalog is constructed from the published per-asset, per-weakness counts;
before the fixture is trusted anywhere else, this module re-derives the
cross-sums from the shipped files: every asset's weakness-multiplicity column
must add up to its vulnerability count, the per-epoch asset counts must add
up to the epoch totals, and the epoch totals to the lifecycle accumulation.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from helpers import timeline_text
from vulngraph import catalog as cat_mod
from vulngraph import metrics, timeline as tl_mod

M5_EXPECTED = {
    "V1": {
        "libgcc_s": {"CWE-119": 1, "CWE-331": 1},
        "libc": {"CWE-17": 1, "CWE-22": 1, "CWE-94": 1, "CWE-119": 5, "CWE-426": 1},
        "libz": {"CWE-189": 4},
        "libcares": {"CWE-200": 1, "CWE-787": 1},
        "nodejs": {"CWE-19": 1, "CWE-20": 3, "CWE-113": 1, "CWE-200": 3, "CWE-787": 1},
        "libssl": {
            "CWE-17": 2, "CWE-20": 5, "CWE-119": 9, "CWE-125": 2, "CWE-189": 2,
            "CWE-190": 1, "CWE-200": 5, "CWE-310": 12, "CWE-362": 4, "CWE-399": 8,
            "CWE-400": 1, "CWE-787": 2, "CWE-NULL": 12,
        },
    },
    "V2": {
        "libgcc_s": {"CWE-119": 1, "CWE-200": 1, "CWE-331": 1},
        "libc": {"CWE-119": 3, "CWE-399": 1, "CWE-426": 1},
        "libz": {"CWE-189": 4},
        "libicuuc": {"CWE-119": 1, "CWE-190": 1},
        "libssl": {
            "CWE-17": 3, "CWE-20": 3, "CWE-119": 6, "CWE-125": 3, "CWE-189": 4,
            "CWE-190": 1, "CWE-200": 12, "CWE-295": 1, "CWE-310": 5, "CWE-311": 2,
            "CWE-320": 3, "CWE-362": 1, "CWE-399": 6, "CWE-400": 1, "CWE-787": 2,
            "CWE-NULL": 10,
        },
    },
    "V3": {
        "libgcc_s": {"CWE-119": 1, "CWE-331": 1},
        "libc": {"CWE-119": 3},
    },
}

M3_EXPECTED = {
    "V1": {"libgcc_s": 2, "libc": 9, "libz": 4, "libcares": 2, "nodejs": 9, "libssl": 65},
    "V2": {"libgcc_s": 3, "libc": 5, "libz": 4, "libicuuc": 2, "libssl": 63},
    "V3": {"libgcc_s": 2, "libc": 3},
}

M1_EXPECTED = {"V1": 91, "V2": 77, "V3": 5}

M6_EXPECTED_V1 = {
    "CWE-17": 3, "CWE-19": 1, "CWE-20": 8, "CWE-22": 1, "CWE-94": 1, "CWE-113": 1,
    "CWE-119": 15, "CWE-125": 2, "CWE-189": 6, "CWE-190": 1, "CWE-200": 9,
    "CWE-310": 12, "CWE-331": 1, "CWE-362": 4, "CWE-399": 8, "CWE-400": 1,
    "CWE-426": 1, "CWE-787": 4, "CWE-NULL": 12,
}

LIFETIME_EXPECTED = {
    "CWE-17": 6, "CWE-19": 1, "CWE-20": 11, "CWE-22": 1, "CWE-94": 1, "CWE-113": 1,
    "CWE-119": 30, "CWE-125": 5, "CWE-189": 14, "CWE-190": 3, "CWE-200": 22,
    "CWE-295": 1, "CWE-310": 17, "CWE-311": 2, "CWE-320": 3, "CWE-331": 3,
    "CWE-362": 5, "CWE-399": 15, "CWE-400": 2, "CWE-426": 2, "CWE-787": 6,
    "CWE-NULL": 22,
}


def test_m5_columns_sum_to_m3():
    # e.g. libssl in V1: 2+5+9+2+2+1+5+12+4+8+1+2+12 = 65
    for epoch, per_asset in M5_EXPECTED.items():
        for asset_id, buckets in per_asset.items():
            assert sum(buckets.values()) == M3_EXPECTED[epoch][asset_id], (epoch, asset_id)


def test_m3_rows_sum_to_m1():
    for epoch, per_asset in M3_EXPECTED.items():
        assert sum(per_asset.values()) == M1_EXPECTED[epoch], epoch


def test_epoch_totals_sum_to_lifecycle():
    assert sum(M1_EXPECTED.values()) == 173


def test_fixture_m5_blocks(openplc_snapshots):
    for epoch, per_asset in M5_EXPECTED.items():
        g = openplc_snapshots[epoch]
        for asset_id, buckets in per_asset.items():
            for cwe_id, count in buckets.items():
                assert metrics.m5(g, asset_id, cwe_id) == count, (epoch, asset_id, cwe_id)


def test_fixture_m3_values(openplc_snapshots):
    for epoch, per_asset in M3_EXPECTED.items():
        g = openplc_snapshots[epoch]
        for asset_id, count in per_asset.items():
            assert metrics.m3(g, asset_id) == count, (epoch, asset_id)
        # every other active asset is vulnerability free
        for asset in g.active_assets():
            if asset.asset_id not in per_asset:
                assert metrics.m3(g, asset.asset_id) == 0, (epoch, asset.asset_id)


def test_fixture_m6_v1(openplc_snapshots):
    g = openplc_snapshots["V1"]
    report = metrics.snapshot_report(g)
    assert report.m6_by_cwe == M6_EXPECTED_V1


def test_fixture_lifetime_frequency(openplc_timeline, openplc_catalog):
    freq = metrics.lifecycle_weakness_frequency(openplc_timeline, openplc_catalog)
    assert freq == LIFETIME_EXPECTED
    # the headline root causes, in rank order
    top = list(freq)
    assert top[0] == "CWE-119"
    assert top.index("CWE-200") < top.index("CWE-310")


def test_fixture_no_shared_cves(openplc_snapshots):
    # per-epoch records target exactly one asset version, so the per-asset
    # sum equals the union in every epoch
    for epoch, g in openplc_snapshots.items():
        rep = metrics.snapshot_report(g)
        assert sum(rep.m3_by_asset.values()) == rep.m1, epoch


def test_fixture_sub_window_scores_stay_below_six(openplc_catalog):
    # synthetic fillers must not leak into the reported 6.0-10.0 window
    for record in openplc_catalog.vulnerabilities.values():
        if record.cve_id.split("-")[2].startswith("9") and len(record.cve_id) >= 14:
            assert record.cvss < 6.0, record.cve_id


def test_fixture_exploit_flags(openplc_catalog):
    flagged = {r.cve_id for r in openplc_catalog.vulnerabilities.values()
               if r.exploit_available}
    assert flagged == {"CVE-2016-2842", "CVE-2018-11236"}


@pytest.mark.parametrize("epoch,expected", [("V1", 19), ("V2", 18), ("V3", 2)])
def test_fixture_m7(openplc_snapshots, epoch, expected):
    assert metrics.m7(openplc_snapshots[epoch]) == expected


def test_fixture_tool_rebuilds_the_bundled_files():
    # the tool's own steps and checks, in memory; nothing is written
    path = Path(__file__).parent.parent / "tools" / "build_openplc_fixture.py"
    spec = importlib.util.spec_from_file_location("build_openplc_fixture", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.check_tables()
    catalog = cat_mod.catalog_from_dict(tool.build_catalog_doc())
    assert not catalog.warnings
    tl = tool.build_timeline(catalog)
    tool.check_result(catalog, tl)
    built = {
        "openplc_catalog.json": cat_mod.catalog_to_dict(catalog),
        "openplc_manifest.json": tl_mod.manifest_to_dict(tl.manifest),
        "openplc_timeline.json": tl_mod.timeline_to_dict(tl),
    }
    for name, doc in built.items():
        written = (timeline_text(doc) if name == "openplc_timeline.json"
                   else tl_mod.canonical_json(doc))
        assert written == (tool.DATA / name).read_text(encoding="utf-8"), name
        assert json.loads(written) == doc, name
