"""The fast loaders against the field walks they replaced.

``cpe.parse_formatted`` matches a whole name with one pattern, and the
catalog's record parser tests each field inline.  The walks below are the
earlier implementations, kept as references: on any input the fast code must
return what they return, or raise the same error with the same message.
The catalog reference includes two intended changes: a bool is not a
number (``_ref_expect``), and a repeated id names its place
(``vulnerabilities[3].cve_id: CVE-2020-1001``, ``_ref_records``).
"""

import copy
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from test_properties import _hostile_name
from vulngraph import catalog as cat_mod, cpe
from vulngraph.catalog import (
    CWE_NULL,
    AffectedProduct,
    VersionRange,
    VulnerabilityRecord,
)
from vulngraph.cpe import ANY, NA, WellFormedName
from vulngraph.errors import DuplicateId, MalformedCpe, SchemaError

# ---------------------------------------------------------------------------
# CPE names: the field walk

_REF_LITERAL = re.compile(r"(?:[a-z0-9._\-]|\\[!-/:-@\[-`{-~])*")
_REF_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_REF_FIELD = re.compile(r"[^\\:]*(?:\\.[^\\:]*)*\\?", re.DOTALL)


def _ref_split_fields(s):
    out = []
    start = 0
    while True:
        end = _REF_FIELD.match(s, start).end()
        out.append((start, s[start:end]))
        if end == len(s):
            return out
        start = end + 1


def _ref_decode_field(raw, offset):
    if raw == "*":
        return ANY
    if raw == "-":
        return NA
    if raw == "":
        raise MalformedCpe("empty attribute field", offset)
    lowered = raw.lower()
    end = _REF_LITERAL.match(lowered).end()
    if end == len(lowered):
        return _REF_ESCAPE.sub(r"\1", lowered) if "\\" in lowered else lowered
    bad = lowered[end]
    if bad != "\\":
        raise MalformedCpe(f"unescaped character {bad!r}", offset + end)
    if end + 1 == len(lowered):
        raise MalformedCpe("dangling escape", offset + end)
    raise MalformedCpe(f"illegal escape '\\{lowered[end + 1]}'", offset + end)


def _ref_parse_formatted(s):
    pieces = _ref_split_fields(s)
    if len(pieces) != 13:
        raise MalformedCpe(f"expected 13 colon-separated fields, got {len(pieces)}", 0)
    if pieces[0][1].lower() != "cpe":
        raise MalformedCpe("missing 'cpe' prefix", 0)
    if pieces[1][1] != "2.3":
        raise MalformedCpe(f"unsupported CPE version {pieces[1][1]!r}", pieces[1][0])
    values = [_ref_decode_field(raw, offset) for offset, raw in pieces[2:]]
    part = values[0]
    if part is NA or (isinstance(part, str) and part not in ("a", "o", "h")):
        raise MalformedCpe(f"illegal part {pieces[2][1]!r}", pieces[2][0])
    return WellFormedName(*values)


def _outcome(parse, text):
    try:
        return parse(text)
    except MalformedCpe as exc:
        return ("MalformedCpe", str(exc), exc.offset)


@settings(max_examples=3000, deadline=None)
@given(_hostile_name)
def test_parse_formatted_matches_the_field_walk(text):
    assert _outcome(cpe.parse_formatted, text) == _outcome(_ref_parse_formatted, text)


def test_parse_formatted_matches_the_field_walk_on_case_and_escape_edges():
    # Lower-casing that lengthens a character or yields ASCII, escapes of
    # colons and hyphens, a final sigma, which lower-cases by context, and
    # fields made only of escapes or starting with one, legal or not.
    names = [
        "cpe:2.3:a:v:\u0130x:*:*:*:*:*:*:*:*",
        "cpe:2.3:a:\u212aey:p:*:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:p\\:q:\\-:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:p:-:\\*:*:*:*:*:*:*",
        "cpe:2.3:a:v:a\u03a3:*:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:\u03a3:b:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:p:1:*:*:*:*:*:*:*\\",
        "CPE:2.3:H:V:P:*:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:\\!\\::1:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:\\.p\\!q:1:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:p:\\-\\-1:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:\\a:1:*:*:*:*:*:*:*",
        "cpe:2.3:a:v:\\!\\:*:*:*:*:*:*:*:*",
    ]
    for text in names:
        assert _outcome(cpe.parse_formatted, text) == _outcome(_ref_parse_formatted, text)


# ---------------------------------------------------------------------------
# catalog records: one helper call per field

_REQUIRED = object()


def _ref_expect(doc, key, types, path, default=_REQUIRED):
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object, got {type(doc).__name__}", path)
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError("missing required field", f"{path}.{key}" if path else key)
        return default
    value = doc[key]
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (type(value) is bool and bool not in types):
        expected = " or ".join(t.__name__ for t in types)
        raise SchemaError(f"expected {expected}, got {type(value).__name__}",
                          f"{path}.{key}" if path else key)
    return value


def _ref_id(doc, key, pattern, kind, path):
    value = _ref_expect(doc, key, str, path)
    if not pattern.fullmatch(value):
        raise SchemaError(f"bad {kind} id {value!r}", f"{path}.{key}")
    return value


def _ref_ids(doc, key, pattern, kind, path, default=_REQUIRED):
    ids = tuple(_ref_expect(doc, key, list, path, default))
    for i, value in enumerate(ids):
        if not isinstance(value, str) or not pattern.fullmatch(value):
            raise SchemaError(f"bad {kind} id {value!r}", f"{path}.{key}[{i}]")
    return ids


def _ref_parse_range(doc, path):
    rng = VersionRange(
        minimum=_ref_expect(doc, "min", str, path, None),
        maximum=_ref_expect(doc, "max", str, path, None),
        min_inclusive=_ref_expect(doc, "min_inclusive", bool, path, True),
        max_inclusive=_ref_expect(doc, "max_inclusive", bool, path, False),
    )
    if rng.minimum is None and rng.maximum is None:
        raise SchemaError("version range needs at least one bound", path)
    return rng


def _ref_parse_affected(doc, path, patterns):
    raw = _ref_expect(doc, "cpe", str, path)
    try:
        pattern = patterns[raw]
    except MalformedCpe as exc:
        raise SchemaError(str(exc), f"{path}.cpe") from exc
    versions = None
    if doc.get("versions") is not None:
        versions = _ref_parse_range(_ref_expect(doc, "versions", dict, path),
                                    f"{path}.versions")
    return AffectedProduct(pattern=pattern, versions=versions)


_CVE_RE = re.compile(r"CVE-\d{4}-\d{4,}")
_CWE_RE = re.compile(r"CWE-(\d+|NULL)")
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}")


def _ref_parse_vulnerability(doc, path, patterns):
    cve_id = _ref_id(doc, "cve_id", _CVE_RE, "CVE", path)
    cvss = _ref_expect(doc, "cvss", (int, float), path)
    if not 0.0 <= cvss <= 10.0:
        raise SchemaError(f"cvss {cvss} outside [0.0, 10.0]", f"{path}.cvss")
    scheme = _ref_expect(doc, "cvss_scheme", str, path, "v2")
    if scheme not in ("v2", "v3"):
        raise SchemaError(f"unknown cvss scheme {scheme!r}", f"{path}.cvss_scheme")
    cwe_ids = _ref_ids(doc, "cwe_ids", _CWE_RE, "CWE", path, [])
    if not cwe_ids:
        cwe_ids = (CWE_NULL,)
    affected = tuple(
        _ref_parse_affected(entry, f"{path}.affected[{i}]", patterns)
        for i, entry in enumerate(_ref_expect(doc, "affected", list, path, []))
    )
    published = _ref_expect(doc, "published", str, path, "1999-01-01")
    if not _DATE_RE.fullmatch(published):
        raise SchemaError(f"bad date {published!r}", f"{path}.published")
    return VulnerabilityRecord(
        cve_id=cve_id,
        cvss=float(cvss),
        cvss_scheme=scheme,
        cwe_ids=cwe_ids,
        affected=affected,
        exploit_available=bool(_ref_expect(doc, "exploit_available", bool, path, False)),
        published=published,
    )


def _ref_records(docs):
    patterns = cpe.ParseTable()
    records = {}
    for i, doc in enumerate(docs):
        record = _ref_parse_vulnerability(doc, f"vulnerabilities[{i}]", patterns)
        if record.cve_id in records:
            raise DuplicateId(f"vulnerabilities[{i}].cve_id: {record.cve_id}")
        records[record.cve_id] = record
    return records


def _load_outcome(load, docs):
    try:
        return load(docs)
    except (SchemaError, DuplicateId) as exc:
        return (type(exc).__name__, str(exc))


_PATTERNS = [
    "cpe:2.3:a:acme:widget:*:*:*:*:*:*:*:*",
    "cpe:2.3:a:acme:widget:1.0:*:*:*:*:*:*:*",
    "cpe:2.3:o:linux:linux_kernel:-:*:*:*:*:*:*:*",
    "cpe:2.3:*:acme:*:*:*:*:*:*:*:*:*",
    "CPE:2.3:H:Acme:Box\\:2:*:*:*:*:*:*:*",
]
_BAD_PATTERNS = ["cpe:2.3:a:acme", "cpe:2.3:x:acme:widget:*:*:*:*:*:*:*:*",
                 "cpe:2.3:a:acme:wid get:*:*:*:*:*:*:*:*"]

_range = st.fixed_dictionaries({}, optional={
    "min": st.sampled_from(["1.0", "2.5"]),
    "max": st.sampled_from(["3.0", "10.1rc1"]),
    "min_inclusive": st.booleans(),
    "max_inclusive": st.booleans(),
})
_entry = st.fixed_dictionaries(
    {"cpe": st.sampled_from(_PATTERNS)},
    optional={"versions": st.one_of(st.none(), _range)},
)
_record = st.fixed_dictionaries(
    {
        "cve_id": st.integers(1000, 1009).map(lambda n: f"CVE-2020-{n}"),
        "cvss": st.one_of(st.integers(0, 10), st.floats(0.0, 10.0)),
    },
    optional={
        "cvss_scheme": st.sampled_from(["v2", "v3"]),
        "cwe_ids": st.lists(st.sampled_from(["CWE-79", "CWE-119", "CWE-NULL"]), max_size=2),
        "affected": st.lists(_entry, max_size=3),
        "exploit_available": st.booleans(),
        "published": st.sampled_from(["2019-05-01", "2021-01-31"]),
    },
)

# Replacement values: nulls (a null bound is an error, not an open end),
# bools where numbers go, wrong containers, bad ids and bad CPE names.
_SPECIAL = [None, True, False, 0, 11, 10**400, 5.5, float("nan"), "", "x", [], {}, [5],
            ["CWE-79", 5], {"min": None}, {"max": "2.0"}, "v4", "2020-13", "CVE-2020-1000",
            "CWE-79", _PATTERNS[3], *_BAD_PATTERNS]
_DROP = object()  # delete the key or element instead
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 20),
              st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
# The fields of a record, an affected entry and a version range, by their
# depth in the list of records.
_FIELDS = {
    1: ("cve_id", "cvss", "cvss_scheme", "cwe_ids", "affected", "exploit_available",
        "published"),
    3: ("cpe", "versions"),
    4: ("min", "max", "min_inclusive", "max_inclusive"),
}
_BASE = [
    {"cve_id": "CVE-2020-1000", "cvss": 7.5, "cvss_scheme": "v3",
     "cwe_ids": ["CWE-79", "CWE-119"],
     "affected": [
         {"cpe": _PATTERNS[1], "versions": None},
         {"cpe": _PATTERNS[0], "versions": {"min": "1.0", "max": "3.0",
                                            "min_inclusive": True, "max_inclusive": False}},
         {"cpe": _PATTERNS[4], "versions": {"max": "2.0"}},
     ],
     "exploit_available": True, "published": "2020-02-02"},
    {"cve_id": "CVE-2020-1001", "cvss": 5},
]


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _slots(docs):
    """``(container path, key)`` of every value an edit may set or drop,
    including the known fields that an object lacks."""
    stack = [()]
    while stack:
        path = stack.pop()
        node = _at(docs, path)
        keys = (sorted(set(node) | set(_FIELDS.get(len(path), ()))) if isinstance(node, dict)
                else range(len(node)))
        for key in keys:
            yield path, key
            if isinstance(node, list) or key in node:
                if isinstance(node[key], (dict, list)):
                    stack.append(path + (key,))


def _edit(docs, path, key, value):
    parent = _at(docs, path)
    if value is not _DROP:
        parent[key] = value
    elif isinstance(parent, list) or key in parent:
        del parent[key]


def _same_outcome(docs):
    fast = _load_outcome(
        lambda d: cat_mod.catalog_from_dict({"vulnerabilities": d}).vulnerabilities, docs)
    assert fast == _load_outcome(_ref_records, docs)


def test_catalog_load_matches_the_per_field_reference_on_every_edit():
    slots = list(_slots(_BASE))
    assert len(slots) > 30
    for path, key in slots:
        for value in _SPECIAL + [_DROP]:
            docs = copy.deepcopy(_BASE)
            _edit(docs, path, key, value)
            _same_outcome(docs)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_record, min_size=1, max_size=3), st.data())
def test_catalog_load_matches_the_per_field_reference(docs, data):
    # One random node of random records is set to a random JSON value or dropped.
    path, key = data.draw(st.sampled_from(list(_slots(docs))))
    _edit(docs, path, key, data.draw(st.one_of(st.sampled_from(_SPECIAL + [_DROP]), _json)))
    _same_outcome(docs)
