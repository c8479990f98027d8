import json
import random

import pytest

from gen import random_catalog
from helpers import make_catalog, name, record, wstr
from vulngraph import catalog as cat_mod
from vulngraph import cpe, fixtures, graph, metrics, report
from vulngraph import timeline as tl_mod
from vulngraph.catalog import CWE_NULL, VersionRange
from vulngraph.errors import DuplicateId, SchemaError


def test_fixture_catalog_has_all_records(openplc_catalog):
    # one record per vulnerability instance across the three release epochs
    assert len(openplc_catalog.vulnerabilities) == 173
    assert not openplc_catalog.warnings


def test_empty_catalog(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema_version": 1, "vulnerabilities": []}))
    cat = cat_mod.load_catalog(path)
    assert cat.vulnerabilities == {}
    assert cat.lookup_vulnerabilities(name("any", "thing", "1.0"), "2030-01-01") == []


def test_duplicate_cve_rejected():
    dup = record("CVE-2020-0001", 5.0, "CWE-119", affected=[wstr("v", "p", "1.0")])
    with pytest.raises(DuplicateId) as err:
        make_catalog(records=[dup, dup])
    assert "CVE-2020-0001" in str(err.value)


def test_schema_error_reports_path():
    with pytest.raises(SchemaError) as err:
        make_catalog(records=[record("CVE-2020-0001", 11.0)])
    assert err.value.path == "vulnerabilities[0].cvss"
    with pytest.raises(SchemaError) as err:
        make_catalog(records=[{"cvss": 5.0}])
    assert err.value.path == "vulnerabilities[0].cve_id"
    with pytest.raises(SchemaError) as err:
        make_catalog(records=[5])
    assert err.value.path == "vulnerabilities[0]"


def test_cvss_too_large_for_a_float_or_not_a_number_is_a_schema_error():
    with pytest.raises(SchemaError) as err:
        make_catalog(records=[record("CVE-2020-0001", 10**400)])
    assert err.value.path == "vulnerabilities[0].cvss"
    with pytest.raises(SchemaError) as err:
        make_catalog(records=[record("CVE-2020-0001", "5.0")])
    assert str(err.value) == "vulnerabilities[0].cvss: expected int or float, got str"


def test_bool_cvss_is_a_schema_error():
    # bool is a subclass of int, so `true` used to load as CVSS 1.0
    with pytest.raises(SchemaError) as err:
        make_catalog(records=[record("CVE-2020-0001", True)])
    assert str(err.value) == "vulnerabilities[0].cvss: expected int or float, got bool"


def test_bool_schema_version_is_a_schema_error():
    with pytest.raises(SchemaError) as err:
        cat_mod.catalog_from_dict({"schema_version": True, "vulnerabilities": []})
    assert str(err.value) == "schema_version: expected int, got bool"


def test_bad_cve_id_rejected():
    with pytest.raises(SchemaError):
        make_catalog(records=[record("NOT-A-CVE", 5.0)])


def test_empty_cwe_list_becomes_null_sentinel():
    cat = make_catalog(records=[record("CVE-2020-0001", 5.0, None,
                                       affected=[wstr("v", "p", "1.0")])])
    assert cat.vulnerabilities["CVE-2020-0001"].cwe_ids == (CWE_NULL,)


def test_dangling_capec_reference_is_warning_not_error():
    cat = make_catalog(
        weaknesses=[{"cwe_id": "CWE-1", "name": "w", "related_capec_ids": ["CAPEC-999"]}]
    )
    assert any("CAPEC-999" in w for w in cat.warnings)


def test_lookup_openplc_libssl_v1(openplc_catalog):
    # the bulk of the first release's findings sit on the TLS library
    hits = openplc_catalog.lookup_vulnerabilities(
        name("openssl", "openssl", "1.0.1f"), "2021-01-01T00:00:00Z"
    )
    assert len(hits) == 65


def test_lookup_empty_catalog():
    cat = make_catalog()
    assert cat.lookup_vulnerabilities(name("a", "b", "1.0"), "2030-01-01") == []


MINI = [
    record("CVE-2020-0001", 5.0, "CWE-1", affected=[(wstr("v", "p", "*"), "1.0", "2.0")]),
    record("CVE-2020-0002", 5.0, "CWE-1", affected=[(wstr("v", "p", "*"), "2.0", "3.0")]),
    record("CVE-2020-0003", 5.0, "CWE-1", affected=[(wstr("v", "p", "*"), "1.5", "1.7")]),
    record("CVE-2020-0004", 5.0, "CWE-1", affected=[wstr("v", "p", "1.6")]),
    record("CVE-2020-0005", 5.0, "CWE-1", affected=[wstr("v", "other", "9.9")]),
]


def test_lookup_version_ranges_mini_catalog():
    # Hand-computed range arithmetic over a five-record catalog:
    #   1.6 lies in [1.0,2.0) and [1.5,1.7) and matches the exact 1.6 pattern.
    #   9.9 matches neither range and only the other product's record.
    cat = make_catalog(records=MINI)
    at = "2030-01-01"
    hits = [r.cve_id for r in cat.lookup_vulnerabilities(name("v", "p", "1.6"), at)]
    assert hits == ["CVE-2020-0001", "CVE-2020-0003", "CVE-2020-0004"]
    assert cat.lookup_vulnerabilities(name("v", "p", "9.9"), at) == []
    hits = [r.cve_id for r in cat.lookup_vulnerabilities(name("v", "p", "2.0"), at)]
    assert hits == ["CVE-2020-0002"]  # upper bound exclusive, lower inclusive


def test_lookup_respects_published_date():
    cat = make_catalog(
        records=[record("CVE-2020-0001", 5.0, "CWE-1",
                        affected=[wstr("v", "p", "1.0")], published="2020-06-01")]
    )
    assert cat.lookup_vulnerabilities(name("v", "p", "1.0"), "2020-01-01") == []
    assert len(cat.lookup_vulnerabilities(name("v", "p", "1.0"), "2020-06-01")) == 1
    assert len(cat.lookup_vulnerabilities(name("v", "p", "1.0"), "2021-01-01")) == 1


def test_lookup_monotone_in_time():
    cat = make_catalog(
        records=[
            record(f"CVE-2020-{1000 + i}", 5.0, "CWE-1",
                   affected=[wstr("v", "p", "1.0")],
                   published=f"2020-0{i + 1}-01")
            for i in range(5)
        ]
    )
    dates = [f"2020-0{i}-15" for i in range(1, 7)]
    previous: set = set()
    for at in dates:
        current = {r.cve_id for r in cat.lookup_vulnerabilities(name("v", "p", "1.0"), at)}
        assert previous <= current
        previous = current


def test_any_version_name_fails_range_records():
    # A range cannot be shown to contain an unspecified version.
    cat = make_catalog(records=[MINI[0]])
    assert cat.lookup_vulnerabilities(name("v", "p", "*"), "2030-01-01") == []


def test_version_range_bounds():
    def contains(rng, version):
        return rng.contains_key(cpe.version_key(version))

    rng = VersionRange(minimum="1.0", maximum="2.0", min_inclusive=True, max_inclusive=False)
    assert contains(rng, "1.0") and contains(rng, "1.9.9") and not contains(rng, "2.0")
    rng = VersionRange(minimum="1.0", min_inclusive=False)
    assert not contains(rng, "1.0") and contains(rng, "1.0.1")


def test_capec_ids_for_cwes(openplc_catalog):
    assert openplc_catalog.capec_ids_for_cwes(["CWE-119"]) == (
        "CAPEC-10", "CAPEC-14", "CAPEC-24", "CAPEC-45", "CAPEC-46", "CAPEC-47")


def test_capec_ids_for_null_weakness(openplc_catalog):
    assert openplc_catalog.capec_ids_for_cwes([CWE_NULL]) == ()


def test_capec_ids_skip_unknown_weakness(openplc_catalog):
    assert openplc_catalog.capec_ids_for_cwes(["CWE-77777"]) == ()
    assert openplc_catalog.capec_ids_for_cwes(["CWE-77777", "CWE-119"]) == \
        openplc_catalog.capec_ids_for_cwes(["CWE-119"])


def test_capec_ids_singleton():
    cat = make_catalog(
        weaknesses=[{"cwe_id": "CWE-1", "name": "w", "related_capec_ids": ["CAPEC-7"]}],
        attack_patterns=[{"capec_id": "CAPEC-7", "name": "p",
                          "likelihood": "low", "impact": "high"}],
    )
    assert cat.capec_ids_for_cwes(["CWE-1"]) == ("CAPEC-7",)


def test_attack_pattern_scale_enforced():
    with pytest.raises(SchemaError):
        make_catalog(attack_patterns=[{"capec_id": "CAPEC-1", "name": "p",
                                       "likelihood": "sometimes", "impact": "high"}])


def test_remediation_crypto_requirement(openplc_catalog):
    groups = openplc_catalog.remediation_for_weaknesses(
        {"CWE-310", "CWE-311", "CWE-320", "CWE-331"}
    )
    texts = [e.text for e in groups["requirement"]]
    assert any(t.startswith("Clearly specify which data or resources are valuable") for t in texts)


def test_remediation_empty_query(openplc_catalog):
    groups = openplc_catalog.remediation_for_weaknesses(set())
    assert groups == {"requirement": [], "training": [], "test_case": []}


def test_remediation_memory_training(openplc_catalog):
    groups = openplc_catalog.remediation_for_weaknesses({"CWE-119"})
    texts = [e.text for e in groups["training"]]
    assert "Secure programming: memory management." in texts


def test_remediation_deduplicates():
    entry = {"kind": "training", "cwe_ids": ["CWE-1", "CWE-2"], "capec_ids": [],
             "text": "shared entry"}
    cat = make_catalog(remediation=[entry])
    groups = cat.remediation_for_weaknesses({"CWE-1", "CWE-2"})
    assert len(groups["training"]) == 1


def test_remediation_test_case_needs_capec():
    with pytest.raises(SchemaError):
        make_catalog(remediation=[{"kind": "test_case", "cwe_ids": ["CWE-1"],
                                   "capec_ids": [], "text": "t"}])


@pytest.mark.parametrize("seed", [None, *range(100)])
def test_catalog_roundtrip(seed):
    # The bundled catalog, or a tests/gen.py catalog; either way the round
    # trip gives the input document byte for byte.
    if seed is None:
        text = fixtures.openplc_catalog_path().read_text()
    else:
        text = cat_mod.canonical_json(cat_mod.catalog_to_dict(random_catalog(random.Random(seed))))
    again = cat_mod.catalog_from_dict(json.loads(text))
    assert cat_mod.canonical_json(cat_mod.catalog_to_dict(again)) == text


def test_record_fields_and_defaults_match_the_record_document():
    doc = cat_mod.catalog_to_dict(make_catalog(records=[
        record("CVE-2020-0001", 5.0, affected=[(wstr("v", "p", "*"), "1.0", "2.0")])]))
    vuln = doc["vulnerabilities"][0]
    assert cat_mod.VulnerabilityRecord._fields == tuple(vuln)
    assert cat_mod.AffectedProduct._fields == ("pattern", "versions")
    assert [*vuln["affected"][0]] == ["cpe", "versions"]
    # A record document that gives only the required fields loads as the
    # record type's defaults.
    loaded = make_catalog(records=[{"cve_id": "CVE-2020-0002", "cvss": 1.0,
                                    "affected": [{"cpe": wstr("v", "p", "1.0")}]}])
    got = loaded.vulnerabilities["CVE-2020-0002"]
    assert got == cat_mod.VulnerabilityRecord(
        "CVE-2020-0002", 1.0, affected=(cat_mod.AffectedProduct(name("v", "p", "1.0")),))
    assert cat_mod.VulnerabilityRecord._field_defaults == {
        "cvss_scheme": "v2", "cwe_ids": (CWE_NULL,), "affected": (),
        "exploit_available": False, "published": "1999-01-01"}
    assert cat_mod.AffectedProduct._field_defaults == {"versions": None}


# Each value record type: its fields in order and their defaults, as they
# were when the records were frozen dataclasses.
RECORD_FIELDS = {
    graph.RootNode: ("sut_cpe checked_at", {}),
    graph.AssetNode: ("node_id asset_id order cpe_current cpe_previous deprecated",
                      {"cpe_previous": None, "deprecated": False}),
    graph.VulnNode: ("cve_id cvss cwe_ids capec_ids exploit_available",
                     {"capec_ids": (), "exploit_available": False}),
    graph.ManifestEntry: ("asset_id cpe", {}),
    graph.Manifest: ("entries dependencies", {"dependencies": ()}),
    graph.ClusterRule: ("kind threshold", {"threshold": 0.0}),
    cat_mod.VersionRange: ("minimum maximum min_inclusive max_inclusive",
                           {"minimum": None, "maximum": None, "min_inclusive": True,
                            "max_inclusive": False}),
    cat_mod.WeaknessRecord: ("cwe_id name description related_capec_ids",
                             {"name": "", "description": "", "related_capec_ids": ()}),
    cat_mod.AttackPatternRecord: ("capec_id name likelihood impact",
                                  {"name": "", "likelihood": "medium", "impact": "medium"}),
    cat_mod.RemediationEntry: ("kind cwe_ids text capec_ids", {"capec_ids": ()}),
    metrics.PrioritizedVulnerability: ("cve_id cvss asset_id exploit_available rank", {}),
    report.RenderOptions: ("cluster_rule cluster_scope show_deprecated verbosity",
                           {"cluster_rule": None, "cluster_scope": None,
                            "show_deprecated": True, "verbosity": "id"}),
    report.AlertRule: ("kind severity threshold metric comparator value",
                       {"severity": "warning", "threshold": 10.0, "metric": "M0",
                        "comparator": ">=", "value": 0.0}),
    report.AlertFiring: ("rule entity value message", {}),
    tl_mod.LifecycleEvent: ("at seq kind asset_id cve_id cpe_value dependencies top_level fixes",
                            {"asset_id": None, "cve_id": None, "cpe_value": None,
                             "dependencies": (), "top_level": False, "fixes": ()}),
    tl_mod.EpochMark: ("label at", {}),
}


def test_records_are_immutable_and_hashable(openplc_catalog, openplc_timeline,
                                            openplc_snapshots):
    records = list(openplc_catalog.vulnerabilities.values())
    entries = [entry for r in records for entry in r.affected]
    ranges = [entry.versions for entry in entries if entry.versions is not None]
    assert ranges
    for value, field in [(records[0], "cvss"), (entries[0], "versions")]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert not hasattr(value, "__dict__")
    assert len(set(records)) == len(records)
    assert all(hash(value) == hash(tuple(value)) for value in [*records, *entries])

    g = openplc_snapshots["V3"]
    rule = report.AlertRule.metric_bound("M1", ">=", 1)
    values = [
        g.root, *g.assets.values(), *g.vulns.values(), openplc_timeline.manifest,
        *openplc_timeline.manifest.entries, graph.ClusterRule.cvss_below(5.0), *ranges,
        *openplc_catalog.weaknesses.values(), *openplc_catalog.attack_patterns.values(),
        *openplc_catalog.remediation, *metrics.prioritize(g), report.RenderOptions(), rule,
        *report.check_alerts(g, [rule]), *openplc_timeline.events, *openplc_timeline.epochs,
    ]
    assert {type(value) for value in values} == set(RECORD_FIELDS)
    for value in values:
        kind = type(value)
        fields, defaults = RECORD_FIELDS[kind]
        assert kind._fields == tuple(fields.split()), kind
        assert kind._field_defaults == defaults, kind
        # A version range alone keeps its bounds' keys in a __dict__.
        assert hasattr(value, "__dict__") == (kind is cat_mod.VersionRange), kind
        with pytest.raises(AttributeError):
            setattr(value, kind._fields[0], None)
        assert hash(value) == hash(tuple(value)), kind
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(kind._fields, value))
        assert repr(value) == f"{kind.__name__}({shown})", kind


def test_version_range_keys_are_kept_apart_from_its_value(tmp_path):
    path = tmp_path / "catalog.json"
    cat_mod.save_catalog(make_catalog(records=[
        record("CVE-2020-0001", 5.0, affected=[(wstr("v", "p", "*"), "1.0", "2.0")])]), path)
    cat = cat_mod.load_catalog(path)
    (entry,) = cat.vulnerabilities["CVE-2020-0001"].affected
    rng, fresh = entry.versions, VersionRange("1.0", "2.0")
    assert vars(rng) == {}  # a load computes no key
    text, key = repr(rng), hash(rng)
    assert cat.lookup_vulnerabilities(name("v", "p", "1.5"), "2030-01-01")
    assert set(vars(rng)) == {"_min_key", "_max_key"}
    assert rng == fresh and hash(rng) == key == hash(fresh) == hash(("1.0", "2.0", True, False))
    assert repr(rng) == text == repr(fresh) == (
        "VersionRange(minimum='1.0', maximum='2.0', min_inclusive=True, max_inclusive=False)")


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_two_loads_of_one_catalog_give_equal_records(tmp_path, seed):
    if seed is None:
        path = fixtures.openplc_catalog_path()
    else:
        path = tmp_path / "catalog.json"
        cat_mod.save_catalog(random_catalog(random.Random(seed)), path)
    first, second = cat_mod.load_catalog(path), cat_mod.load_catalog(path)
    assert first.vulnerabilities == second.vulnerabilities
    assert all(first.vulnerabilities[k] is not r and hash(first.vulnerabilities[k]) == hash(r)
               for k, r in second.vulnerabilities.items())


def test_merge_catalogs_duplicate_rejected():
    a = make_catalog(records=[record("CVE-2020-0001", 5.0, "CWE-1",
                                     affected=[wstr("v", "p", "1.0")])])
    b = make_catalog(records=[record("CVE-2020-0001", 6.0, "CWE-2",
                                     affected=[wstr("v", "p", "2.0")])])
    with pytest.raises(DuplicateId):
        cat_mod.merge_catalogs(a, b)


def test_merge_catalogs_disjoint():
    a = make_catalog(records=[record("CVE-2020-0001", 5.0, "CWE-1",
                                     affected=[wstr("v", "p", "1.0")])])
    b = make_catalog(records=[record("CVE-2020-0002", 6.0, "CWE-2",
                                     affected=[wstr("v", "p", "2.0")])])
    merged = cat_mod.merge_catalogs(a, b)
    assert set(merged.vulnerabilities) == {"CVE-2020-0001", "CVE-2020-0002"}


def _merge_by_round_trip(base, extra):
    """The merge as a dict round trip: both catalogs to documents, joined, reloaded."""
    doc = cat_mod.catalog_to_dict(base)
    other = cat_mod.catalog_to_dict(extra)
    doc["vulnerabilities"] += other["vulnerabilities"]
    seen = {w["cwe_id"] for w in doc["weaknesses"]}
    doc["weaknesses"] += [w for w in other["weaknesses"] if w["cwe_id"] not in seen]
    seen = {p["capec_id"] for p in doc["attack_patterns"]}
    doc["attack_patterns"] += [p for p in other["attack_patterns"] if p["capec_id"] not in seen]
    doc["remediation"] += [e for e in other["remediation"] if e not in doc["remediation"]]
    doc["snapshot_date"] = max(base.snapshot_date, extra.snapshot_date)
    return cat_mod.catalog_from_dict(doc)


@pytest.mark.parametrize("overlap", [False, True], ids=["disjoint", "overlapping"])
def test_merge_matches_round_trip(openplc_catalog, overlap):
    base = cat_mod.catalog_to_dict(openplc_catalog)
    weaknesses = [{"cwe_id": "CWE-9001", "name": "new", "related_capec_ids": ["CAPEC-9001"]},
                  {"cwe_id": "CWE-9002", "related_capec_ids": ["CAPEC-9999"]}]
    attack_patterns = [{"capec_id": "CAPEC-9001", "likelihood": "high"}]
    remediation = [{"kind": "training", "cwe_ids": ["CWE-9001"], "text": "new"}]
    if overlap:
        # same ids as the base with other content, and a remediation entry it has
        weaknesses.append(dict(base["weaknesses"][1], name="renamed", related_capec_ids=[]))
        attack_patterns.append(dict(base["attack_patterns"][0], name="renamed"))
        remediation.append(base["remediation"][0])
    extra = make_catalog(
        records=[record("CVE-2030-0001", 7.5, "CWE-9001", affected=[wstr("v", "p", "1.0")])],
        weaknesses=weaknesses, attack_patterns=attack_patterns, remediation=remediation,
        snapshot_date="2030-01-01")
    merged = cat_mod.merge_catalogs(openplc_catalog, extra)
    expected = _merge_by_round_trip(openplc_catalog, extra)
    assert cat_mod.catalog_to_dict(merged) == cat_mod.catalog_to_dict(expected)
    assert merged.warnings == expected.warnings == [
        "CWE-9002 references unknown attack pattern CAPEC-9999"]
    assert merged.snapshot_date == "2030-01-01"
    cwe_id = base["weaknesses"][1]["cwe_id"]
    assert merged.weaknesses[cwe_id] == openplc_catalog.weaknesses[cwe_id]
    assert len(merged.remediation) == len(openplc_catalog.remediation) + 1


def test_csv_side_tables_load(openplc_catalog):
    from vulngraph import fixtures
    mapping = cat_mod.import_cwe_capec_csv(fixtures.cwe_capec_csv_path())
    assert mapping["CWE-119"][0] == "CAPEC-10"
    entries = cat_mod.import_remediation_csv(fixtures.remediation_csv_path())
    kinds = {e.kind for e in entries}
    assert kinds == {"requirement", "training", "test_case"}
    assert len(entries) == len(openplc_catalog.remediation)


# Each id list the loader checks, with the kind of id its elements must be.
@pytest.mark.parametrize("section,key,kind", [
    ("vulnerabilities", "cwe_ids", "CWE"),
    ("weaknesses", "related_capec_ids", "CAPEC"),
    ("remediation", "cwe_ids", "CWE"),
    ("remediation", "capec_ids", "CAPEC"),
])
@pytest.mark.parametrize("bad", [5, "bogus"])
def test_id_lists_are_checked(section, key, kind, bad):
    doc = json.loads(fixtures.openplc_catalog_path().read_text())
    index = next(i for i, entry in enumerate(doc[section]) if entry[key])
    doc[section][index][key].insert(1, bad)
    with pytest.raises(SchemaError) as err:
        cat_mod.catalog_from_dict(doc)
    assert str(err.value) == f"{section}[{index}].{key}[1]: bad {kind} id {bad!r}"


@pytest.mark.parametrize("row,error", [
    ("training,CWE-119;CWE 20,,input", "row 2.cwe_ids[1]: bad CWE id 'CWE 20'"),
    ("test_case,CWE-119", "row 2.capec_ids: test_case entries need at least one CAPEC id"),
])
def test_remediation_csv_rows_are_checked(tmp_path, row, error):
    path = tmp_path / "remediation.csv"
    path.write_text(f"kind,cwe_ids,capec_ids,text\nrequirement,CWE-119,,bounds\n{row}\n")
    with pytest.raises(SchemaError) as err:
        cat_mod.import_remediation_csv(path)
    assert str(err.value) == error


@pytest.mark.parametrize("row,error", [
    ("CWE-119,CAPEC 10;bogus", "row 2.capec_ids[0]: bad CAPEC id 'CAPEC 10'"),
    ("CWE 119,CAPEC-10", "row 2.cwe_id: bad CWE id 'CWE 119'"),
])
def test_cwe_capec_csv_rows_are_checked(tmp_path, row, error):
    path = tmp_path / "cwe_capec.csv"
    path.write_text(f"cwe_id,capec_ids\nCWE-20,CAPEC-10\n{row}\n")
    with pytest.raises(SchemaError) as err:
        cat_mod.import_cwe_capec_csv(path)
    assert str(err.value) == error


def test_cwe_capec_csv_short_row_maps_to_no_attack_patterns(tmp_path):
    path = tmp_path / "cwe_capec.csv"
    path.write_text("cwe_id,capec_ids\nCWE-20,CAPEC-10; CAPEC-14\nCWE-119\n")
    assert cat_mod.import_cwe_capec_csv(path) == {
        "CWE-20": ("CAPEC-10", "CAPEC-14"), "CWE-119": ()}


def test_cwe_capec_csv_without_a_column_is_a_schema_error(tmp_path):
    path = tmp_path / "cwe_capec.csv"
    path.write_text("cwe_id\nCWE-119\n")
    with pytest.raises(SchemaError) as err:
        cat_mod.import_cwe_capec_csv(path)
    assert str(err.value) == "header: missing column 'capec_ids'"


def test_remediation_csv_without_a_column_is_a_schema_error(tmp_path):
    path = tmp_path / "remediation.csv"
    path.write_text("kind,cwe_ids,text\nrequirement,CWE-119,bounds\n")
    with pytest.raises(SchemaError) as err:
        cat_mod.import_remediation_csv(path)
    assert str(err.value) == "header: missing column 'capec_ids'"


def _with(**parts) -> dict:
    doc = {"schema_version": 1, "vulnerabilities": [], "weaknesses": [],
           "attack_patterns": [], "remediation": []}
    doc.update(parts)
    return doc


_CWE_119 = {"cwe_id": "CWE-119", "related_capec_ids": []}
_CAPEC_10 = {"capec_id": "CAPEC-10"}
_RECORD = record("CVE-2020-0001", 5.0, "CWE-119", affected=[wstr("v", "p", "1.0")])


# Each rejected catalog input -> the error and the text it carries.
@pytest.mark.parametrize(
    "build,error,text",
    [
        pytest.param(lambda: cat_mod.catalog_from_dict([]), SchemaError,
                     "catalog document must be an object", id="not-an-object"),
        pytest.param(lambda: cat_mod.catalog_from_dict(_with(schema_version=2)), SchemaError,
                     "schema_version: unsupported schema_version 2", id="schema-version-2"),
        pytest.param(lambda: cat_mod.catalog_from_dict(_with(weaknesses=[_CWE_119, _CWE_119])),
                     DuplicateId, "weaknesses[1].cwe_id: CWE-119", id="duplicate-cwe"),
        pytest.param(lambda: cat_mod.catalog_from_dict(
            _with(attack_patterns=[_CAPEC_10, _CAPEC_10])),
            DuplicateId, "attack_patterns[1].capec_id: CAPEC-10", id="duplicate-capec"),
        pytest.param(lambda: cat_mod.catalog_from_dict(_with(weaknesses=[
            {"cwe_id": CWE_NULL, "related_capec_ids": ["CAPEC-10"]}])), SchemaError,
            "weaknesses[0]: the null weakness may not reference attack patterns",
            id="null-weakness-with-capecs"),
        pytest.param(lambda: cat_mod.catalog_from_dict(_with(remediation=[
            {"kind": "prayer", "cwe_ids": ["CWE-119"], "text": "hope"}])), SchemaError,
            "remediation[0].kind: unknown remediation kind 'prayer'",
            id="remediation-unknown-kind"),
        pytest.param(lambda: cat_mod.catalog_from_dict(_with(remediation=[
            {"kind": "requirement", "cwe_ids": [], "text": "bounds"}])), SchemaError,
            "remediation[0].cwe_ids: remediation entry needs at least one weakness",
            id="remediation-without-weakness"),
        pytest.param(lambda: cat_mod.records_to_catalog(
            [make_catalog(records=[_RECORD]).vulnerabilities["CVE-2020-0001"]] * 2,
            snapshot_date="2020-01-01"),
            DuplicateId, "CVE-2020-0001", id="records-duplicate-cve"),
        *(pytest.param(lambda date=date: cat_mod.catalog_from_dict(_with(snapshot_date=date)),
                       SchemaError, f"snapshot_date: bad date {date!r}", id=f"snapshot-date-{key}")
          for key, date in (("word", "yesterday"), ("fullwidth", "\uff12\uff10\uff12\uff11-01-01"),
                            ("unpadded", "2021-1-1"))),
    ],
)
def test_rejected_catalog_inputs(build, error, text):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == text


def test_an_interrupted_save_leaves_the_old_catalog_and_nothing_else(
        tmp_path, monkeypatch, openplc_catalog):
    path = tmp_path / "catalog.json"
    path.write_bytes(fixtures.openplc_catalog_path().read_bytes())
    before = path.read_bytes()

    def interrupted(catalog):
        raise KeyboardInterrupt

    monkeypatch.setattr(cat_mod, "catalog_to_dict", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cat_mod.save_catalog(openplc_catalog, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["catalog.json"]
