import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_properties import CASES
from vulngraph import catalog as cat_mod
from vulngraph import cpe
from vulngraph.catalog import CWE_NULL
from vulngraph.cli import main
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
    assert warnings == ["CVE_Items[0].cvss: missing required field"]


def test_import_entry_with_score_out_of_range_warns_and_skips(tmp_path):
    # a record the canonical loader would reject never reaches the catalog
    feed = {"CVE_Items": [_item("CVE-2019-0003", v3=11.5), _item("CVE-2019-0004", v2=7.5)]}
    path = tmp_path / "outofrange.json"
    path.write_text(json.dumps(feed))
    records, warnings = cat_mod.import_nvd_feed(path)
    assert [r.cve_id for r in records] == ["CVE-2019-0004"]
    assert warnings == ["CVE_Items[0].cvss: cvss 11.5 outside [0.0, 10.0]"]


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


def test_unparsable_cpe_skips_only_its_match(tmp_path):
    good = "cpe:2.3:a:acme:widget:1.0:*:*:*:*:*:*:*"
    matches = [{"vulnerable": True, "cpe23Uri": uri}
               for uri in ("cpe:2.3:z:acme:widget:1.0:*:*:*:*:*:*:*", 5, good)]
    path = tmp_path / "badcpe.json"
    path.write_text(json.dumps({"CVE_Items": [_item("CVE-2019-0005", v2=5.0, cpe_match=matches)]}))
    records, warnings = cat_mod.import_nvd_feed(path)
    assert [cpe.bind_formatted(a.pattern) for r in records for a in r.affected] == [good]
    assert warnings == [
        "CVE-2019-0005: skipped unparsable cpe 'cpe:2.3:z:acme:widget:1.0:*:*:*:*:*:*:*': "
        "illegal part 'z' (offset 8)",
        "CVE-2019-0005: skipped unparsable cpe 5: expected a string, got int (offset 0)",
    ]


def test_import_parses_each_distinct_cpe_once(tmp_path, monkeypatch):
    uri = "cpe:2.3:a:acme:widget:1.0:*:*:*:*:*:*:*"
    match = {"vulnerable": True, "cpe23Uri": uri}
    feed = {"CVE_Items": [_item(f"CVE-2019-000{i}", v2=5.0, cpe_match=[match]) for i in (6, 7)]}
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(feed))
    calls = []
    parse = cpe.parse_formatted
    monkeypatch.setattr(cpe, "parse_formatted", lambda s: calls.append(s) or parse(s))
    records, _ = cat_mod.import_nvd_feed(path)
    assert len(records) == 2
    assert calls == [uri]


def _first_item(**fields):
    item = copy.deepcopy(FEED["CVE_Items"][0])
    item.update(fields)
    return item


def _with_bound(value):
    item = _first_item()
    item["configurations"]["nodes"][0]["cpe_match"][0]["versionEndExcluding"] = value
    return item


# Feeds that made `ingest` crash or write a catalog `load_catalog` rejects:
# (feed document or raw text, exit code, warnings or the start of the error).
MALFORMED_FEEDS = [
    pytest.param({"CVE_Items": [5]}, 0, ["CVE_Items[0].cve_id: missing required field"],
                 id="entry-not-an-object"),
    pytest.param({"CVE_Items": [_first_item(cve=[])]}, 0,
                 ["CVE_Items[0].cve_id: missing required field"], id="cve-a-list"),
    pytest.param({"CVE_Items": [_first_item(cve={"CVE_data_meta": {"ID": 5}})]}, 0,
                 ["CVE_Items[0].cve_id: expected str, got int"], id="integer-id"),
    pytest.param({"CVE_Items": [_first_item(publishedDate=20171217)]}, 0, [],
                 id="integer-date"),
    pytest.param({"CVE_Items": {"0": _first_item()}}, 2,
                 "FeedParseError: no CVE_Items list", id="items-an-object"),
    pytest.param("[" * 100_000, 2, "FeedParseError: not valid JSON", id="deeply-nested"),
    pytest.param({"CVE_Items": [_with_bound(2.27)]}, 0,
                 ["CVE_Items[0].affected[0].versions.max: expected str, got float"],
                 id="numeric-version-bound"),
    pytest.param({"CVE_Items": [_first_item(impact={"baseMetricV2": {"cvssV2": {"baseScore": "9.3"}}})]},
                 0, ["CVE_Items[0].cvss: expected int or float, got str"], id="string-score"),
]


@pytest.mark.parametrize("feed,code,expected", MALFORMED_FEEDS)
def test_ingest_of_malformed_feed_exits_cleanly(tmp_path, capsys, feed, code, expected):
    path = tmp_path / "feed.json"
    path.write_text(feed if isinstance(feed, str) else json.dumps(feed))
    out = tmp_path / "catalog.json"
    assert main(["ingest", "--feed", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith(f"error: {expected}")
        assert not out.exists()
    else:
        assert err == "".join(f"warning: {line}\n" for line in expected)
        # a single-entry feed keeps its record exactly when nothing was wrong
        assert len(cat_mod.load_catalog(out).vulnerabilities) == (0 if expected else 1)


def _node_paths(node, path=()):
    """The path of every value in a JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Keys and strings of the feed format, so random objects reach the fields read.
_FEED_KEYS = sorted({key for path in _node_paths(FEED) for key in path if isinstance(key, str)})
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(["CVE-2020-0001", "CWE-79", "NVD-CWE-Other", "2020-01-01T00:00Z", "5.0",
                       "cpe:2.3:a:acme:widget:1.0:*:*:*:*:*:*:*", "cpe:2.3:a:acme:widget"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FEED_KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=CASES, deadline=None)
@given(st.sampled_from(list(_node_paths(FEED))), _json_value)
def test_import_of_mutated_feed_returns_loadable_records_or_rejects_the_feed(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        feed_path = Path(tmp) / "feed.json"
        feed_path.write_text(json.dumps(_replaced(FEED, path, value)))
        try:
            records, _ = cat_mod.import_nvd_feed(feed_path)
        except FeedParseError:
            records = None
        out = Path(tmp) / "catalog.json"
        code = main(["ingest", "--feed", str(feed_path), "--out", str(out)])
        assert code == (2 if records is None or len({r.cve_id for r in records}) < len(records) else 0)
        if code == 0:
            # ingest wrote records_to_catalog(records) with save_catalog
            cat = cat_mod.records_to_catalog(records, "2020-01-01")
            assert cat_mod.load_catalog(out).vulnerabilities == cat.vulnerabilities
