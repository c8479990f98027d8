"""Randomized property suites.

Nine suites, each at least 500 cases: CPE round-trip, CPE parsing of
hostile strings, clustering leaving its input unchanged, metric equivalence
against a naive set-enumeration oracle on small graphs, relative-frequency
normalization, the lifecycle-weakness inequality, event-replay determinism,
indexed catalog lookup against a linear scan, and version ranges tested by
cached keys against a comparison of the version strings.
"""

import random
import string
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_cluster_case, random_graph, random_timeline
from helpers import lineage_cpes, make_catalog, record, wstr
from oracles import brute_metrics, brute_priorities
from vulngraph import cpe, graph, metrics, timeline as tl_mod
from vulngraph.catalog import VersionRange
from vulngraph.cpe import ANY, NA, WellFormedName
from vulngraph.errors import MalformedCpe
from vulngraph.graph import cluster_by

CASES = 500

_LITERAL_ALPHABET = (
    string.ascii_lowercase + string.digits + "._-" + "!\"#$%&'()*+,/:;<=>?@[\\]^`{|}~"
)

_literal = st.text(alphabet=_LITERAL_ALPHABET, min_size=1, max_size=12)
_value = st.one_of(st.just(ANY), st.just(NA), _literal)
_wfn = st.builds(
    WellFormedName,
    part=st.sampled_from(["a", "o", "h", ANY]),
    vendor=_value,
    product=_value,
    version=_value,
    update=_value,
    edition=_value,
    language=_value,
    sw_edition=_value,
    target_sw=_value,
    target_hw=_value,
    other=_value,
)


@settings(max_examples=1000, deadline=None)
@given(_wfn)
def test_cpe_parse_bind_roundtrip(w):
    bound = cpe.bind_formatted(w)
    assert cpe.parse_formatted(bound) == w
    # binding is canonical: case differences vanish on re-parse
    assert cpe.parse_formatted(bound.upper()) == w


_HOSTILE_ALPHABET = (
    string.ascii_letters + string.digits + string.punctuation + "\\\\::"
    + " \t\n" + "\u00e9\u00c9\u0130\u212a\u00df\u4e2d"
)
# Valid fields (mixed case, escaped punctuation) and fields drawn from the
# whole alphabet; a name is ten valid fields or a mix of both, of any count.
_valid_field = st.one_of(
    st.sampled_from(["*", "-"]),
    st.lists(st.sampled_from(list("aZ09._-") + ["\\" + c for c in string.punctuation]),
             min_size=1, max_size=6).map("".join),
)
_hostile_field = st.text(alphabet=_HOSTILE_ALPHABET, max_size=6)
_hostile_name = st.one_of(
    st.text(alphabet=_HOSTILE_ALPHABET, max_size=40),
    st.builds(
        lambda prefix, part, fields: prefix + ":".join([part] + fields),
        st.sampled_from(["cpe:2.3:", "CPE:2.3:", "cpe:2.2:", "cpe:2.3\\:"]),
        st.one_of(st.sampled_from(["a", "o", "h", "A", "*", "-"]), _hostile_field),
        st.one_of(st.lists(_valid_field, min_size=10, max_size=10),
                  st.lists(st.one_of(_valid_field, _hostile_field), min_size=8, max_size=12)),
    ),
)


@settings(max_examples=CASES, deadline=None)
@given(_hostile_name)
def test_cpe_parse_accepts_or_rejects_cleanly(text):
    # Any string either parses to a name that re-binds and re-parses equal,
    # or raises MalformedCpe; never another exception.
    try:
        w = cpe.parse_formatted(text)
    except MalformedCpe:
        return
    assert cpe.parse_formatted(cpe.bind_formatted(w)) == w


@settings(max_examples=CASES, deadline=None)
@given(st.lists(st.text(alphabet=string.ascii_lowercase + string.digits + ".-",
                        max_size=8), min_size=3, max_size=3))
def test_compare_versions_total_order(triple):
    a, b, c = triple
    # antisymmetry
    assert cpe.compare_versions(a, b) == -cpe.compare_versions(b, a)
    assert cpe.compare_versions(a, a) == 0
    # transitivity over the sorted triple
    lo, mid, hi = sorted(triple, key=cpe.version_key)
    assert cpe.compare_versions(lo, mid) <= 0
    assert cpe.compare_versions(mid, hi) <= 0
    assert cpe.compare_versions(lo, hi) <= 0


def test_cluster_by_leaves_its_input_unchanged():
    for seed in range(CASES):
        g, rule, scope = random_cluster_case(seed)
        before = graph.edg_to_dict(g)
        cluster_of = cluster_by(g, rule, scope=scope)
        assert graph.edg_to_dict(g) == before, seed
        assert not g.clusters, seed
        assert all(type(k) is str and type(v) is str for k, v in cluster_of.items()), seed


def test_metrics_match_brute_force_oracle():
    checked_nonempty = 0
    for seed in range(CASES):
        g, _ = random_graph(random.Random(seed))
        doc = graph.edg_to_dict(g)
        assert 1 + len(doc["assets"]) + len(doc["vulns"]) <= 24  # small graphs
        expected = brute_metrics(doc)
        assert metrics.snapshot_report(g).n_assets == expected["n"], seed
        assert metrics.m1(g) == expected["m1"], seed
        assert metrics.m7(g) == expected["m7"], seed
        if expected["n"]:
            assert metrics.m0(g) == pytest.approx(expected["m0"]), seed
        for asset_id, count in expected["m3"].items():
            assert metrics.m3(g, asset_id) == count, seed
        total = sum(expected["m3"].values())
        if total:
            checked_nonempty += 1
            for asset_id, share in expected["m4"].items():
                assert metrics.m4(g, asset_id) == pytest.approx(share), seed
        for asset_id, per_cwe in expected["m5"].items():
            for cwe_id, count in per_cwe.items():
                assert metrics.m5(g, asset_id, cwe_id) == count, seed
        for cwe_id, count in expected["m6"].items():
            assert metrics.m6(g, cwe_id) == count, seed
    assert checked_nonempty >= 100  # the suite must exercise vulnerable graphs


_score = st.integers(0, 100).map(lambda tenths: tenths / 10)


@settings(max_examples=CASES, deadline=None)
@given(st.integers(0, 2**32), _score, _score)
def test_prioritize_matches_brute_force_oracle(seed, a, b):
    # Scores are tenths, like the generated CVSS values, so windows often
    # start or end on a score.
    lo, hi = min(a, b), max(a, b)
    g, _ = random_graph(random.Random(seed))
    doc = graph.edg_to_dict(g)
    for grouping in ("by_asset", "global"):
        rows = [tuple(r) for r in metrics.prioritize(g, lo, hi, grouping)]
        assert rows == brute_priorities(doc, lo, hi, grouping)


def test_m4_sums_to_one():
    checked = 0
    for seed in range(CASES):
        g, _ = random_graph(random.Random(seed + 10_000))
        rep = metrics.snapshot_report(g)
        if sum(rep.m3_by_asset.values()) == 0:
            continue
        checked += 1
        assert abs(sum(rep.m4_by_asset.values()) - 1.0) <= 1e-9, seed
    assert checked >= 100


def test_m8_union_never_exceeds_sum():
    for seed in range(CASES):
        tl, cat = random_timeline(random.Random(seed + 20_000))
        union = metrics.m8(tl, cat, "union")
        total = metrics.m8(tl, cat, "sum")
        assert union <= total, seed
        assert metrics.m2(tl, cat) == sum(
            metrics.m1(g) for g in tl_mod.epoch_snapshots(tl, cat)), seed
        # the accumulated metrics fold the oracle's per-epoch values
        per_epoch = [brute_metrics(graph.edg_to_dict(g))
                     for g in tl_mod.epoch_snapshots(tl, cat)]
        assert metrics.m2(tl, cat) == sum(e["m1"] for e in per_epoch), seed
        assert union == len({cwe for e in per_epoch for cwe in e["m6"]}), seed
        assert total == sum(e["m7"] for e in per_epoch), seed
        frequency: dict[str, int] = {}
        for e in per_epoch:
            for cwe, count in e["m6"].items():
                frequency[cwe] = frequency.get(cwe, 0) + count
        got = metrics.lifecycle_weakness_frequency(tl, cat)
        assert got == frequency, seed
        assert list(got.values()) == sorted(got.values(), reverse=True), seed


def test_event_replay_determinism():
    for seed in range(CASES):
        tl, cat = random_timeline(random.Random(seed + 30_000))
        first = [tl_mod.canonical_json(graph.edg_to_dict(g))
                 for _, g in tl_mod.replay(tl, cat)]
        second = [tl_mod.canonical_json(graph.edg_to_dict(g))
                  for _, g in tl_mod.replay(tl, cat)]
        assert first == second, seed
        # persisting and reloading the log changes nothing either
        reloaded = tl_mod.timeline_from_dict(tl_mod.timeline_to_dict(tl))
        third = [tl_mod.canonical_json(graph.edg_to_dict(g))
                 for _, g in tl_mod.replay(reloaded, cat)]
        assert first == third, seed


def test_lineage_length_tracks_updates():
    for seed in range(100):
        rng = random.Random(seed + 40_000)
        tl, cat = random_timeline(rng)
        last = None
        for _, last in tl_mod.replay(tl, cat):
            pass
        updates: dict[str, int] = {}
        for event in tl.events:
            if event.kind == "asset_updated":
                updates[event.asset_id] = updates.get(event.asset_id, 0) + 1
        for asset_id, k in updates.items():
            assert len(lineage_cpes(last, asset_id)) == k + 1, seed


# Catalogs over a few products whose patterns mix literals, ANY and NA in
# part, vendor and product; several entries per record, some with a version
# range, and publication dates on both sides of the query times.
_pattern = st.builds(
    WellFormedName,
    part=st.sampled_from(["a", "o", ANY]),
    vendor=st.sampled_from(["v", "w", ANY, NA]),
    product=st.sampled_from(["p", "q", ANY, NA]),
    version=st.sampled_from(["1.0", "2.0", ANY, NA]),
)
_entry = st.one_of(
    _pattern.map(cpe.bind_formatted),
    _pattern.map(lambda w: (cpe.bind_formatted(w), "1.0", "2.0")),
)
_record = st.tuples(st.lists(_entry, max_size=3),
                    st.sampled_from(["2019-06-01", "2020-01-01", "2020-06-01"]))
_name = st.builds(
    WellFormedName,
    part=st.sampled_from(["a", "o", ANY, NA]),
    vendor=st.sampled_from(["v", "w", "z", ANY, NA]),
    product=st.sampled_from(["p", "q", "z", ANY, NA]),
    version=st.sampled_from(["1.0", "1.5", "2.0", ANY, NA]),
)
_at = st.sampled_from(["2019-01-01T00:00:00Z", "2020-01-01T00:00:00Z", "2021-01-01T00:00:00Z"])


@settings(max_examples=CASES, deadline=None)
@given(st.lists(_record, max_size=12), st.data())
def test_indexed_lookup_matches_linear_scan(records, data):
    cat = make_catalog(records=[
        record(f"CVE-2020-{i:04d}", 5.0, affected=entries, published=published)
        for i, (entries, published) in enumerate(records)
    ])
    patterns = [e.pattern for r in cat.vulnerabilities.values() for e in r.affected]
    for _ in range(data.draw(st.integers(1, 5))):
        name = data.draw(_name)
        if patterns and data.draw(st.booleans()):
            # agree with one pattern's part, vendor and product where they are not ANY
            pattern = data.draw(st.sampled_from(patterns))
            name = name._replace(**{
                attr: getattr(pattern, attr) for attr in ("part", "vendor", "product")
                if getattr(pattern, attr) is not ANY})
        at = data.draw(_at)
        key = cpe.version_key(name.version) if isinstance(name.version, str) else None
        expected = sorted(
            [r for r in cat.vulnerabilities.values() if r.applies_to(name, at, key)],
            key=lambda r: r.cve_id)
        assert cat.lookup_vulnerabilities(name, at) == expected


def _contains_by_compare(rng: VersionRange, version: str) -> bool:
    """Range membership from ``cpe.compare_versions`` on the strings: the
    reference for the keys a range and a lookup compute once and reuse."""
    if rng.minimum is not None:
        c = cpe.compare_versions(version, rng.minimum)
        if c < 0 or (c == 0 and not rng.min_inclusive):
            return False
    if rng.maximum is not None:
        c = cpe.compare_versions(version, rng.maximum)
        if c > 0 or (c == 0 and not rng.max_inclusive):
            return False
    return True


# A small alphabet, so that equal keys (and so both inclusivities) come up often.
_version = st.text(alphabet="0129abzAZ.-_+:", max_size=8)
_version_range = st.builds(
    VersionRange,
    minimum=st.one_of(st.none(), _version),
    maximum=st.one_of(st.none(), _version),
    min_inclusive=st.booleans(),
    max_inclusive=st.booleans(),
)


@settings(max_examples=CASES, deadline=None)
@given(_version_range, st.lists(st.one_of(_version, st.just(ANY), st.just(NA)),
                                min_size=1, max_size=6))
def test_version_range_keys_match_compare_versions(rng, versions):
    for version in versions:
        if isinstance(version, str):
            assert (rng.contains_key(cpe.version_key(version))
                    == _contains_by_compare(rng, version)), version
    if rng.minimum is None and rng.maximum is None:
        return  # a catalog range needs a bound
    bounds = {"min": rng.minimum, "max": rng.maximum,
              "min_inclusive": rng.min_inclusive, "max_inclusive": rng.max_inclusive}
    cat = make_catalog(records=[{
        "cve_id": "CVE-2020-0001", "cvss": 5.0,
        "affected": [{"cpe": wstr("v", "p"),
                      "versions": {k: v for k, v in bounds.items() if v is not None}}],
    }])
    # Several lookups against one catalog: later ones reuse the bound keys.
    for version in versions:
        name = WellFormedName(part="a", vendor="v", product="p", version=version)
        hit = bool(cat.lookup_vulnerabilities(name, "2030-01-01T00:00:00Z"))
        # ANY and NA versions are never shown to lie inside a range
        assert hit == (isinstance(version, str) and _contains_by_compare(rng, version)), version


# Records whose entries mix the shapes a lookup treats apart: a literal or
# NA version (found under that version), and an ANY version with or without
# a range, next to literal versions with a range.  Patterns and names also
# vary the update and edition fields after the version.
_tail = st.sampled_from(["x", "y", ANY, NA])
_head = dict(part=st.sampled_from(["a", ANY]), vendor=st.sampled_from(["v", "w", ANY, NA]),
             product=st.sampled_from(["p", "q", ANY]))
_keyed_entry = st.builds(WellFormedName, **_head,
                         version=st.sampled_from(["1.0", "1.5", "2.0"])).map(cpe.bind_formatted)
_ranged_entry = st.builds(WellFormedName, **_head, version=st.sampled_from([ANY, "1.0"]),
                          update=_tail, edition=_tail).map(
    lambda w: (cpe.bind_formatted(w), "1.0", "2.0"))
_other_entry = st.builds(WellFormedName, **_head,
                         version=st.sampled_from(["1.0", "2.0", ANY, NA]),
                         update=_tail, edition=_tail).map(cpe.bind_formatted)
_mixed_record = st.tuples(
    st.lists(st.one_of(_keyed_entry, _ranged_entry, _other_entry), min_size=1, max_size=4),
    st.sampled_from(["2019-06-01", "2020-01-01", "2020-06-01"]))
_tailed_name = st.builds(
    WellFormedName,
    part=st.sampled_from(["a", "o"]),
    vendor=st.sampled_from(["v", "w", "z", NA]),
    product=st.sampled_from(["p", "q", "z"]),
    version=st.sampled_from(["1.0", "1.5", "2.0", "3.0", ANY, NA]),
    update=_tail,
    edition=_tail,
)


def _applies_by_scan(record, name: WellFormedName, at: str) -> bool:
    """A record's applicability from ``cpe.matches`` on every field and the
    range compared on version strings: the reference for indexed lookup."""
    if record.published > at[:10]:
        return False
    return any(cpe.matches(name, entry.pattern)
               and (entry.versions is None
                    or (isinstance(name.version, str)
                        and _contains_by_compare(entry.versions, name.version)))
               for entry in record.affected)


@settings(max_examples=CASES, deadline=None)
@given(st.lists(_mixed_record, max_size=12), st.data())
def test_lookup_by_version_key_matches_brute_force(records, data):
    cat = make_catalog(records=[
        record(f"CVE-2020-{i:04d}", 5.0, affected=entries, published=published)
        for i, (entries, published) in enumerate(records)
    ])
    patterns = [e.pattern for r in cat.vulnerabilities.values() for e in r.affected]
    for _ in range(data.draw(st.integers(1, 5))):
        name = data.draw(_tailed_name)
        if patterns and data.draw(st.booleans()):
            # agree with one pattern wherever it is not ANY
            pattern = data.draw(st.sampled_from(patterns))
            name = name._replace(**{attr: getattr(pattern, attr) for attr in WellFormedName._fields
                                     if getattr(pattern, attr) is not ANY})
        at = data.draw(_at)
        expected = sorted((r for r in cat.vulnerabilities.values()
                           if _applies_by_scan(r, name, at)), key=lambda r: r.cve_id)
        assert cat.lookup_vulnerabilities(name, at) == expected
