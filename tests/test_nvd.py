import json

import pytest

from vulngraph import catalog as cat_mod
from vulngraph.catalog import CWE_NULL
from vulngraph.errors import FeedParseError


def _item(cve_id, v2=None, v3=None, cwe=None, cpe_match=(), published="2017-12-17T02:29Z"):
    item = {
        "cve": {
            "CVE_data_meta": {"ID": cve_id},
            "problemtype": {"problemtype_data": [{"description": []}]},
        },
        "configurations": {"CVE_data_version": "4.0",
                           "nodes": [{"operator": "OR", "cpe_match": list(cpe_match)}]},
        "impact": {},
        "publishedDate": published,
    }
    if cwe is not None:
        item["cve"]["problemtype"]["problemtype_data"][0]["description"].append(
            {"lang": "en", "value": cwe}
        )
    if v2 is not None:
        item["impact"]["baseMetricV2"] = {"cvssV2": {"baseScore": v2}}
    if v3 is not None:
        item["impact"]["baseMetricV3"] = {"cvssV3": {"baseScore": v3}}
    return item


FEED = {
    "CVE_data_type": "CVE",
    "CVE_data_format": "MITRE",
    "CVE_data_version": "4.0",
    "CVE_Items": [
        _item(
            "CVE-2017-16997",
            v2=9.3,
            cwe="CWE-426",
            cpe_match=[
                {
                    "vulnerable": True,
                    "cpe23Uri": "cpe:2.3:a:gnu:glibc:*:*:*:*:*:*:*:*",
                    "versionStartIncluding": "2.19",
                    "versionEndExcluding": "2.27",
                }
            ],
        ),
        _item(
            "CVE-2017-20001",
            v2=5.0,
            cpe_match=[{"vulnerable": True,
                        "cpe23Uri": "cpe:2.3:a:acme:widget:1.0:*:*:*:*:*:*:*"}],
        ),
        _item(
            "CVE-2017-20002",
            v2=9.3,
            v3=9.8,
            cwe="CWE-119",
            cpe_match=[{"vulnerable": True,
                        "cpe23Uri": "cpe:2.3:a:acme:widget:2.0:*:*:*:*:*:*:*"}],
        ),
    ],
}


@pytest.fixture()
def feed_path(tmp_path):
    path = tmp_path / "nvd.json"
    path.write_text(json.dumps(FEED))
    return path


def test_import_v2_score_and_cwe(feed_path):
    records, warnings = cat_mod.import_nvd_feed(feed_path)
    assert warnings == []
    by_id = {r.cve_id: r for r in records}
    r = by_id["CVE-2017-16997"]
    assert r.cvss == 9.3 and r.cvss_scheme == "v2"
    assert r.cwe_ids == ("CWE-426",)
    assert r.published == "2017-12-17"
    rng = r.affected[0].versions
    assert rng.minimum == "2.19" and rng.min_inclusive
    assert rng.maximum == "2.27" and not rng.max_inclusive


def test_import_missing_problemtype_maps_to_null(feed_path):
    records, _ = cat_mod.import_nvd_feed(feed_path)
    by_id = {r.cve_id: r for r in records}
    assert by_id["CVE-2017-20001"].cwe_ids == (CWE_NULL,)


def test_import_scheme_precedence(feed_path):
    records, _ = cat_mod.import_nvd_feed(feed_path)
    by_id = {r.cve_id: r for r in records}
    assert by_id["CVE-2017-20002"].cvss == 9.8
    assert by_id["CVE-2017-20002"].cvss_scheme == "v3"

    records, _ = cat_mod.import_nvd_feed(feed_path, prefer_v3=False)
    by_id = {r.cve_id: r for r in records}
    assert by_id["CVE-2017-20002"].cvss == 9.3
    assert by_id["CVE-2017-20002"].cvss_scheme == "v2"


def test_import_serialize_load_idempotent(feed_path, tmp_path):
    records, _ = cat_mod.import_nvd_feed(feed_path)
    cat = cat_mod.records_to_catalog(records, snapshot_date="2020-01-01")
    out = tmp_path / "canonical.json"
    cat_mod.save_catalog(cat, out)
    loaded = cat_mod.load_catalog(out)
    assert loaded.vulnerabilities == cat.vulnerabilities
    # a second round trip changes nothing
    out2 = tmp_path / "canonical2.json"
    cat_mod.save_catalog(loaded, out2)
    assert out.read_text() == out2.read_text()


def test_import_nested_children_flattened(tmp_path):
    feed = {
        "CVE_Items": [
            {
                "cve": {"CVE_data_meta": {"ID": "CVE-2019-0001"},
                        "problemtype": {"problemtype_data": []}},
                "configurations": {
                    "nodes": [
                        {
                            "operator": "AND",
                            "children": [
                                {"cpe_match": [
                                    {"vulnerable": True,
                                     "cpe23Uri": "cpe:2.3:o:acme:os:1.0:*:*:*:*:*:*:*"},
                                    {"vulnerable": False,
                                     "cpe23Uri": "cpe:2.3:h:acme:board:-:*:*:*:*:*:*:*"},
                                ]}
                            ],
                        }
                    ]
                },
                "impact": {"baseMetricV2": {"cvssV2": {"baseScore": 4.0}}},
                "publishedDate": "2019-03-01T00:00Z",
            }
        ]
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(feed))
    records, warnings = cat_mod.import_nvd_feed(path)
    assert len(records) == 1
    # only the vulnerable match survives flattening
    assert len(records[0].affected) == 1
    assert records[0].affected[0].pattern.part == "o"


def test_import_entry_without_score_warns_and_skips(tmp_path):
    feed = {"CVE_Items": [_item("CVE-2019-0002")]}
    path = tmp_path / "noscore.json"
    path.write_text(json.dumps(feed))
    records, warnings = cat_mod.import_nvd_feed(path)
    assert records == []
    assert any("no CVSS" in w for w in warnings)


def test_import_entry_with_score_out_of_range_warns_and_skips(tmp_path):
    # a record the canonical loader would reject never reaches the catalog
    feed = {"CVE_Items": [_item("CVE-2019-0003", v3=11.5), _item("CVE-2019-0004", v2=7.5)]}
    path = tmp_path / "outofrange.json"
    path.write_text(json.dumps(feed))
    records, warnings = cat_mod.import_nvd_feed(path)
    assert [r.cve_id for r in records] == ["CVE-2019-0004"]
    assert warnings == ["CVE_Items[0]: CVE-2019-0003: CVSS base score 11.5 outside [0.0, 10.0]"]


def test_import_rejects_non_feed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"hello\": 1}")
    with pytest.raises(FeedParseError):
        cat_mod.import_nvd_feed(path)
    path.write_text("not json at all")
    with pytest.raises(FeedParseError):
        cat_mod.import_nvd_feed(path)


def test_noinfo_cwe_maps_to_null(tmp_path):
    feed = {"CVE_Items": [_item("CVE-2019-0003", v2=5.0, cwe="NVD-CWE-noinfo")]}
    path = tmp_path / "noinfo.json"
    path.write_text(json.dumps(feed))
    records, _ = cat_mod.import_nvd_feed(path)
    assert records[0].cwe_ids == (CWE_NULL,)
