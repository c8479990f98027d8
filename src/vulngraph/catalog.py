"""Catalogs of the standards universes: CVE records, CWE weaknesses, CAPEC
attack patterns, plus the remediation knowledge base used for root-cause
reports.

A catalog is loaded from one canonical JSON document::

    {
      "schema_version": 1,
      "snapshot_date": "2021-01-01",
      "vulnerabilities": [...],
      "weaknesses": [...],
      "attack_patterns": [...],
      "remediation": [...]
    }

:func:`import_nvd_feed` maps external feeds (NVD JSON 1.1) onto the same
record documents and checks them as a load does.  Catalogs are immutable
after load; all lookups are read-only.  The first lookup indexes the records
by product, so changing ``vulnerabilities`` after it is unsupported.

A :class:`VulnerabilityRecord` and an :class:`AffectedProduct` are tuples of
their fields, in the order of the record document, so a load builds each one
with a single ``tuple.__new__`` call, and hashing and equality run in tuple's
C code.  A record compares as its plain tuple; the package only ever
compares records with records.  The hot loops (the product index, the
lookup, ``applies_to`` and ``matches``) read their fields by
position, because Python 3.11 does not specialize attribute reads on a
tuple; the rest of the code reads them by name.  The other records are
frozen dataclasses, and a :class:`VersionRange` keeps the version keys of
its bounds once a lookup has computed them.
"""

from __future__ import annotations

import json
import os
import re
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

from . import cpe
from .cpe import WellFormedName
from .errors import DuplicateId, FeedParseError, MalformedCpe, SchemaError, UnknownWeakness

#: Sentinel weakness id for CVEs with no assigned CWE.
CWE_NULL = "CWE-NULL"

ORDINAL_SCALE = ("very_low", "low", "medium", "high", "very_high")

REMEDIATION_KINDS = ("requirement", "training", "test_case")

_CVE_RE = re.compile(r"CVE-\d{4}-\d{4,}")
_CWE_RE = re.compile(r"CWE-(\d+|NULL)")
_CAPEC_RE = re.compile(r"CAPEC-\d+")
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}")

#: Default of :func:`_expect` for a required field.
_REQUIRED = object()

# Builds a record from a tuple in one C call, without the generated
# ``__new__``'s Python frame.
_new = tuple.__new__


@dataclass(frozen=True)
class VersionRange:
    """Version interval with per-end inclusivity; either end may be open.

    The :func:`cpe.version_key` of each bound is computed on first use and
    kept with the range, so repeated tests do not re-tokenise the bounds.
    """

    minimum: str | None = None
    maximum: str | None = None
    min_inclusive: bool = True
    max_inclusive: bool = False

    @cached_property
    def _min_key(self) -> tuple | None:
        return None if self.minimum is None else cpe.version_key(self.minimum)

    @cached_property
    def _max_key(self) -> tuple | None:
        return None if self.maximum is None else cpe.version_key(self.maximum)

    def contains(self, version: str) -> bool:
        return self.contains_key(cpe.version_key(version))

    def contains_key(self, key: tuple) -> bool:
        """:meth:`contains` for a version given by its :func:`cpe.version_key`."""
        lo = self._min_key
        if lo is not None and (key < lo or (key == lo and not self.min_inclusive)):
            return False
        hi = self._max_key
        if hi is not None and (key > hi or (key == hi and not self.max_inclusive)):
            return False
        return True


class AffectedProduct(namedtuple("AffectedProduct", ["pattern", "versions"], defaults=[None])):
    """A CPE ``pattern`` and the optional :class:`VersionRange` of the
    versions it affects, as the tuple ``(pattern, versions)``."""

    __slots__ = ()

    def matches(self, name: WellFormedName, version_key: tuple | None = None) -> bool:
        """True when ``name`` matches the pattern and its version lies in the
        range.  ``version_key`` is ``cpe.version_key(name.version)`` when the
        caller has it already."""
        # By position: self[0] is the pattern, self[1] the range, name[3]
        # the version.
        if not cpe.matches(name, self[0]):
            return False
        versions = self[1]
        if versions is None:
            return True
        # A range needs a literal version to test against; ANY/NA cannot be
        # shown to lie inside the interval.
        version = name[3]
        if not isinstance(version, str):
            return False
        if version_key is None:
            version_key = cpe.version_key(version)
        return versions.contains_key(version_key)


class VulnerabilityRecord(namedtuple(
        "VulnerabilityRecord",
        ["cve_id", "cvss", "cvss_scheme", "cwe_ids", "affected", "exploit_available", "published"],
        defaults=["v2", (CWE_NULL,), (), False, "1999-01-01"])):
    """One CVE: its id, CVSS base score and scheme, CWE ids, affected
    products (:class:`AffectedProduct`), whether an exploit is known and its
    publication date, as a tuple in that order."""

    __slots__ = ()

    def applies_to(self, name: WellFormedName, at: str | None = None,
                   version_key: tuple | None = None) -> bool:
        # By position: self[6] is the publication date, self[4] the entries.
        if at is not None and self[6] > at[:10]:
            return False
        for entry in self[4]:
            if entry.matches(name, version_key):
                return True
        return False


@dataclass(frozen=True)
class WeaknessRecord:
    cwe_id: str
    name: str = ""
    description: str = ""
    related_capec_ids: tuple[str, ...] = ()


_NULL_WEAKNESS = WeaknessRecord(cwe_id=CWE_NULL, name="no assigned weakness")


@dataclass(frozen=True)
class AttackPatternRecord:
    capec_id: str
    name: str = ""
    likelihood: str = "medium"
    impact: str = "medium"


@dataclass(frozen=True)
class RemediationEntry:
    kind: str
    cwe_ids: tuple[str, ...]
    text: str
    capec_ids: tuple[str, ...] = ()


@dataclass
class Catalog:
    """Indexed, immutable-after-load collections of the four record types."""

    snapshot_date: str = "1999-01-01"
    vulnerabilities: dict[str, VulnerabilityRecord] = field(default_factory=dict)
    weaknesses: dict[str, WeaknessRecord] = field(default_factory=dict)
    attack_patterns: dict[str, AttackPatternRecord] = field(default_factory=dict)
    remediation: list[RemediationEntry] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    # Built by the first lookup (see _product_index).
    _index: tuple[dict, dict] | None = field(default=None, init=False, compare=False, repr=False)

    def lookup_vulnerabilities(self, name: WellFormedName, at: str) -> list[VulnerabilityRecord]:
        """Records whose affected pattern matches ``name`` and that were
        published on or before ``at``, ordered by CVE id.

        Only the records indexed under the name's ``(part, vendor, product)``
        and those with ``ANY`` in one of those fields are tested, and of
        these only the ones with an ``ANY`` version pattern or one equal to
        the name's version.  Every candidate goes through
        :meth:`VulnerabilityRecord.applies_to`, and the name's version key is
        computed once for all of them.
        """
        if self._index is None:
            self._index = _product_index(self.vulnerabilities.values())
        by_product, wildcard = self._index
        candidates: dict[str, VulnerabilityRecord] = {}
        # By position: name[:3] is (part, vendor, product), name[3] the
        # version, and a record's [0] its CVE id.
        version = name[3]
        for keyed, rest in (by_product.get(name[:3], _NO_BUCKET), wildcard):
            for record in keyed.get(version, ()):
                candidates[record[0]] = record
            candidates.update(rest)
        key = cpe.version_key(version) if isinstance(version, str) else None
        hits = [r for r in candidates.values() if r.applies_to(name, at, key)]
        # Ordered by CVE id: the ids are unique, so the tuples' own order is it.
        hits.sort()
        return hits

    def capecs_for_weakness(self, cwe_id: str) -> list[AttackPatternRecord]:
        """Attack patterns linked to a weakness; empty for the null sentinel."""
        if cwe_id == CWE_NULL:
            return []
        weakness = self.weaknesses.get(cwe_id)
        if weakness is None:
            raise UnknownWeakness(cwe_id)
        out = [
            self.attack_patterns[c]
            for c in weakness.related_capec_ids
            if c in self.attack_patterns
        ]
        out.sort(key=lambda p: _id_sort_key(p.capec_id))
        return out

    def capec_ids_for_cwes(self, cwe_ids) -> tuple[str, ...]:
        """Union of linked CAPEC ids over several weaknesses (unknowns skipped)."""
        ids: set[str] = set()
        for cwe_id in cwe_ids:
            weakness = self.weaknesses.get(cwe_id)
            if weakness is not None:
                ids.update(c for c in weakness.related_capec_ids if c in self.attack_patterns)
        return tuple(sorted(ids, key=_id_sort_key))

    def remediation_for_weaknesses(self, cwe_ids) -> dict[str, list[RemediationEntry]]:
        """Entries whose weakness list intersects the query, grouped by kind.

        Order is the catalog's (stable); entries shared by several query
        weaknesses appear once.
        """
        query = set(cwe_ids)
        groups: dict[str, list[RemediationEntry]] = {k: [] for k in REMEDIATION_KINDS}
        for entry in self.remediation:
            if query.intersection(entry.cwe_ids) and entry not in groups[entry.kind]:
                groups[entry.kind].append(entry)
        return groups


#: The ``(keyed, rest)`` bucket of a product no pattern names.
_NO_BUCKET: tuple[dict, dict] = ({}, {})


def _product_index(records) -> tuple[dict, tuple[dict, dict]]:
    """Records by the ``(part, vendor, product)`` of their affected patterns,
    then by version.

    A pattern literal or ``NA`` in a field matches only a name with the equal
    value there.  So a pattern with ``ANY`` in one of part, vendor and product
    files its record in the wildcard bucket, and any other in the bucket of
    its three values.  A bucket is a pair ``(keyed, rest)``: a pattern with
    ``ANY`` as version files its record in ``rest``, which maps CVE id to
    record, and any other appends it to the list ``keyed`` holds for its
    version.  A record with several entries may be filed more than once.
    """
    by_product: dict[tuple, tuple[dict, dict]] = {}
    wildcard: tuple[dict, dict] = ({}, {})
    # By position: a record's [0] is its CVE id and [4] its entries, an
    # entry's [0] its pattern.
    for record in records:
        for entry in record[4]:
            pattern = entry[0]
            key, version = pattern[:3], pattern[3]
            keyed, rest = wildcard if cpe.ANY in key else by_product.setdefault(key, ({}, {}))
            if version is cpe.ANY:
                rest[record[0]] = record
            else:
                keyed.setdefault(version, []).append(record)
    return by_product, wildcard


def _id_sort_key(item_id: str):
    """Order ids such as ``CWE-79`` and ``CAPEC-66`` by their number, with a
    non-numeric tail such as ``CWE-NULL`` last."""
    try:
        return (0, int(item_id.rsplit("-", 1)[1]))
    except (IndexError, ValueError):
        return (1, 0)


# ---------------------------------------------------------------------------
# canonical JSON document


def _check_object(doc, path) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object, got {type(doc).__name__}", path)


def _expect(doc, key, types, path, default=_REQUIRED):
    """``doc[key]``, an instance of ``types``, or ``default`` when the key is
    absent.  A bool is not taken for a number unless ``bool`` is asked for."""
    _check_object(doc, path)
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError("missing required field", f"{path}.{key}" if path else key)
        return default
    value = doc[key]
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (type(value) is bool and bool not in types):
        raise SchemaError(
            f"expected {' or '.join(t.__name__ for t in types)}, got {type(value).__name__}",
            f"{path}.{key}" if path else key,
        )
    return value


def _id(doc, key, pattern, kind, path) -> str:
    """The id at ``doc[key]``: a string matching ``pattern``."""
    value = _expect(doc, key, str, path)
    if not pattern.fullmatch(value):
        raise SchemaError(f"bad {kind} id {value!r}", f"{path}.{key}")
    return value


def _ids(doc, key, pattern, kind, path, default=_REQUIRED) -> tuple[str, ...]:
    """The id list at ``doc[key]``; each element is a string matching ``pattern``."""
    ids = tuple(_expect(doc, key, list, path, default))
    for i, value in enumerate(ids):
        if not isinstance(value, str) or not pattern.fullmatch(value):
            raise SchemaError(f"bad {kind} id {value!r}", f"{path}.{key}[{i}]")
    return ids


# The record parsers below read each field with ``get`` and test it inline.
# Only a value that fails the cheap test goes through ``_expect`` or ``_id``,
# which raise the field's error or accept what the test was too strict for
# (a subclass of the wanted type), so a load checks no less than those do.


def _parse_range(doc: dict, path) -> VersionRange:
    lo, hi = doc.get("min"), doc.get("max")
    lo_inclusive = doc.get("min_inclusive", True)
    hi_inclusive = doc.get("max_inclusive", False)
    # A bound given as null is an error, not an open end.
    if type(lo) is not str and (lo is not None or "min" in doc):
        lo = _expect(doc, "min", str, path)
    if type(hi) is not str and (hi is not None or "max" in doc):
        hi = _expect(doc, "max", str, path)
    if type(lo_inclusive) is not bool:
        lo_inclusive = _expect(doc, "min_inclusive", bool, path)
    if type(hi_inclusive) is not bool:
        hi_inclusive = _expect(doc, "max_inclusive", bool, path)
    if lo is None and hi is None:
        raise SchemaError("version range needs at least one bound", path)
    return VersionRange(lo, hi, lo_inclusive, hi_inclusive)


def _parse_affected(entries: list, path, patterns: cpe.ParseTable) -> tuple[AffectedProduct, ...]:
    """The affected entries of the record at ``path``."""
    out = []
    for i, doc in enumerate(entries):
        raw = doc.get("cpe") if type(doc) is dict else None
        if type(raw) is not str:
            raw = _expect(doc, "cpe", str, f"{path}.affected[{i}]")
        try:
            pattern = patterns[raw]
        except MalformedCpe as exc:
            raise SchemaError(str(exc), f"{path}.affected[{i}].cpe") from exc
        versions = doc.get("versions")
        if versions is not None:
            if type(versions) is not dict:
                versions = _expect(doc, "versions", dict, f"{path}.affected[{i}]")
            versions = _parse_range(versions, f"{path}.affected[{i}].versions")
        out.append(_new(AffectedProduct, (pattern, versions)))
    return tuple(out)


def _parse_vulnerability(doc, path, patterns: cpe.ParseTable) -> VulnerabilityRecord:
    if type(doc) is not dict:
        _check_object(doc, path)
    get = doc.get
    cve_id = get("cve_id")
    if type(cve_id) is not str or not _CVE_RE.fullmatch(cve_id):
        cve_id = _id(doc, "cve_id", _CVE_RE, "CVE", path)
    cvss = get("cvss")
    if type(cvss) is not float and type(cvss) is not int:
        cvss = _expect(doc, "cvss", (int, float), path)
    if not 0.0 <= cvss <= 10.0:
        raise SchemaError(f"cvss {cvss} outside [0.0, 10.0]", f"{path}.cvss")
    scheme = get("cvss_scheme", "v2")
    if type(scheme) is not str:
        scheme = _expect(doc, "cvss_scheme", str, path)
    if scheme != "v2" and scheme != "v3":
        raise SchemaError(f"unknown cvss scheme {scheme!r}", f"{path}.cvss_scheme")
    cwe_ids = get("cwe_ids", [])
    if type(cwe_ids) is list:
        for c in cwe_ids:
            if type(c) is not str or not _CWE_RE.fullmatch(c):
                cwe_ids = None  # _ids below checks the list again
                break
    if type(cwe_ids) is not list:
        cwe_ids = _ids(doc, "cwe_ids", _CWE_RE, "CWE", path, [])
    entries = get("affected", [])
    if type(entries) is not list:
        entries = _expect(doc, "affected", list, path)
    affected = _parse_affected(entries, path, patterns)
    published = get("published", "1999-01-01")
    if type(published) is not str:
        published = _expect(doc, "published", str, path)
    if not _DATE_RE.fullmatch(published):
        raise SchemaError(f"bad date {published!r}", f"{path}.published")
    exploit = get("exploit_available", False)
    if type(exploit) is not bool:
        exploit = _expect(doc, "exploit_available", bool, path)
    return _new(VulnerabilityRecord, (cve_id, float(cvss), scheme, tuple(cwe_ids) or (CWE_NULL,),
                                      affected, exploit, published))


def _parse_weakness(doc, path) -> WeaknessRecord:
    cwe_id = _id(doc, "cwe_id", _CWE_RE, "CWE", path)
    related = _ids(doc, "related_capec_ids", _CAPEC_RE, "CAPEC", path, [])
    if cwe_id == CWE_NULL and related:
        raise SchemaError("the null weakness may not reference attack patterns", path)
    return WeaknessRecord(
        cwe_id=cwe_id,
        name=_expect(doc, "name", str, path, ""),
        description=_expect(doc, "description", str, path, ""),
        related_capec_ids=related,
    )


def _parse_attack_pattern(doc, path) -> AttackPatternRecord:
    capec_id = _id(doc, "capec_id", _CAPEC_RE, "CAPEC", path)
    likelihood = _expect(doc, "likelihood", str, path, "medium")
    impact = _expect(doc, "impact", str, path, "medium")
    for label, value in (("likelihood", likelihood), ("impact", impact)):
        if value not in ORDINAL_SCALE:
            raise SchemaError(f"{label} {value!r} not on the five-step scale", path)
    return AttackPatternRecord(
        capec_id=capec_id,
        name=_expect(doc, "name", str, path, ""),
        likelihood=likelihood,
        impact=impact,
    )


def _parse_remediation(doc, path) -> RemediationEntry:
    kind = _expect(doc, "kind", str, path)
    if kind not in REMEDIATION_KINDS:
        raise SchemaError(f"unknown remediation kind {kind!r}", f"{path}.kind")
    cwe_ids = _ids(doc, "cwe_ids", _CWE_RE, "CWE", path)
    if not cwe_ids:
        raise SchemaError("remediation entry needs at least one weakness", f"{path}.cwe_ids")
    capec_ids = _ids(doc, "capec_ids", _CAPEC_RE, "CAPEC", path, [])
    if kind == "test_case" and not capec_ids:
        raise SchemaError("test_case entries need at least one CAPEC id", f"{path}.capec_ids")
    return RemediationEntry(
        kind=kind,
        cwe_ids=cwe_ids,
        capec_ids=capec_ids,
        text=_expect(doc, "text", str, path),
    )


def catalog_from_dict(doc: dict) -> Catalog:
    """Build and index a catalog from a canonical document (see module doc)."""
    if not isinstance(doc, dict):
        raise SchemaError("catalog document must be an object")
    version = _expect(doc, "schema_version", int, "", 1)
    if version != 1:
        raise SchemaError(f"unsupported schema_version {version}", "schema_version")

    catalog = Catalog(snapshot_date=_expect(doc, "snapshot_date", str, "", "1999-01-01"))

    patterns = cpe.ParseTable()
    for i, raw in enumerate(_expect(doc, "vulnerabilities", list, "", [])):
        record = _parse_vulnerability(raw, f"vulnerabilities[{i}]", patterns)
        if record.cve_id in catalog.vulnerabilities:
            raise DuplicateId(record.cve_id)
        catalog.vulnerabilities[record.cve_id] = record

    for i, raw in enumerate(_expect(doc, "weaknesses", list, "", [])):
        record = _parse_weakness(raw, f"weaknesses[{i}]")
        if record.cwe_id in catalog.weaknesses:
            raise DuplicateId(record.cwe_id)
        catalog.weaknesses[record.cwe_id] = record
    catalog.weaknesses.setdefault(CWE_NULL, _NULL_WEAKNESS)

    for i, raw in enumerate(_expect(doc, "attack_patterns", list, "", [])):
        record = _parse_attack_pattern(raw, f"attack_patterns[{i}]")
        if record.capec_id in catalog.attack_patterns:
            raise DuplicateId(record.capec_id)
        catalog.attack_patterns[record.capec_id] = record

    for i, raw in enumerate(_expect(doc, "remediation", list, "", [])):
        catalog.remediation.append(_parse_remediation(raw, f"remediation[{i}]"))

    catalog.warnings = _dangling_references(catalog)
    return catalog


def _dangling_references(catalog: Catalog) -> list[str]:
    """Warnings for weakness references to unknown attack patterns (not fatal)."""
    return [
        f"{weakness.cwe_id} references unknown attack pattern {capec_id}"
        for weakness in catalog.weaknesses.values()
        for capec_id in weakness.related_capec_ids
        if capec_id not in catalog.attack_patterns
    ]


def canonical_json(doc) -> str:
    """The one serialization of every document this package writes: compact,
    keys sorted, one trailing newline, so equal documents give equal bytes.
    ``json.dumps`` without ``indent`` runs CPython's C encoder; files written
    with an indent load the same, and ``python -m json.tool`` pretty-prints."""
    return canonical_text(doc) + "\n"


def canonical_text(value) -> str:
    """:func:`canonical_json` without its newline: the text of a value as it
    stands inside a written document."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def load_json(path):
    """The JSON document in the file at ``path``.

    Text that is not JSON, or that nests too deeply for the decoder, is a
    :class:`SchemaError`; a path that cannot be read raises its ``OSError``.
    """
    return parse_json(read_text(path))


def read_text(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 are a
    :class:`SchemaError`, as in :func:`load_json`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except ValueError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc


@contextmanager
def open_replacing(path):
    """A new text file beside ``path``, renamed onto it when the block ends;
    a block that raises, ``KeyboardInterrupt`` too, removes the file and
    leaves ``path`` as it was.  No fsync; the file takes the umask's mode."""
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def parse_json(text: str):
    """:func:`load_json` of a text already read."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("not valid JSON: nested too deeply to decode") from exc


def load_catalog(path) -> Catalog:
    """Load the canonical catalog JSON file at ``path``."""
    return catalog_from_dict(load_json(path))


def catalog_to_dict(catalog: Catalog) -> dict:
    """Canonical serialization; ``catalog_from_dict`` round-trips it."""

    def range_dict(rng: VersionRange):
        out = {"min_inclusive": rng.min_inclusive, "max_inclusive": rng.max_inclusive}
        if rng.minimum is not None:
            out["min"] = rng.minimum
        if rng.maximum is not None:
            out["max"] = rng.maximum
        return out

    return {
        "schema_version": 1,
        "snapshot_date": catalog.snapshot_date,
        "vulnerabilities": [
            {
                "cve_id": r.cve_id,
                "cvss": r.cvss,
                "cvss_scheme": r.cvss_scheme,
                "cwe_ids": list(r.cwe_ids),
                "affected": [
                    {
                        "cpe": cpe.bind_formatted(a.pattern),
                        "versions": range_dict(a.versions) if a.versions else None,
                    }
                    for a in r.affected
                ],
                "exploit_available": r.exploit_available,
                "published": r.published,
            }
            for r in sorted(catalog.vulnerabilities.values(), key=lambda r: r.cve_id)
        ],
        "weaknesses": [
            {
                "cwe_id": w.cwe_id,
                "name": w.name,
                "description": w.description,
                "related_capec_ids": list(w.related_capec_ids),
            }
            for w in sorted(catalog.weaknesses.values(), key=lambda w: w.cwe_id)
        ],
        "attack_patterns": [
            {
                "capec_id": p.capec_id,
                "name": p.name,
                "likelihood": p.likelihood,
                "impact": p.impact,
            }
            for p in sorted(catalog.attack_patterns.values(), key=lambda p: _id_sort_key(p.capec_id))
        ],
        "remediation": [
            {
                "kind": e.kind,
                "cwe_ids": list(e.cwe_ids),
                "capec_ids": list(e.capec_ids),
                "text": e.text,
            }
            for e in catalog.remediation
        ],
    }


def save_catalog(catalog: Catalog, path) -> None:
    with open_replacing(path) as fh:
        fh.write(canonical_json(catalog_to_dict(catalog)))


def merge_catalogs(base: Catalog, extra: Catalog) -> Catalog:
    """Merge two catalogs into a new one.

    A CVE id in both raises :class:`DuplicateId`.  For a weakness or attack
    pattern in both, the base's record is kept; ``extra``'s remediation
    entries already in ``base`` are dropped; the later snapshot date is kept.
    """
    merged = Catalog(snapshot_date=max(base.snapshot_date, extra.snapshot_date))
    for source in (base, extra):
        for cve_id in sorted(source.vulnerabilities):
            if cve_id in merged.vulnerabilities:
                raise DuplicateId(cve_id)
            merged.vulnerabilities[cve_id] = source.vulnerabilities[cve_id]
        for cwe_id in sorted(source.weaknesses):
            merged.weaknesses.setdefault(cwe_id, source.weaknesses[cwe_id])
        for capec_id in sorted(source.attack_patterns, key=_id_sort_key):
            merged.attack_patterns.setdefault(capec_id, source.attack_patterns[capec_id])
    merged.weaknesses.setdefault(CWE_NULL, _NULL_WEAKNESS)
    merged.remediation = base.remediation + [e for e in extra.remediation if e not in base.remediation]
    merged.warnings = _dangling_references(merged)
    return merged


# ---------------------------------------------------------------------------
# NVD JSON feed (schema 1.1) import


def import_nvd_feed(path, prefer_v3: bool = True):
    """Convert an NVD 1.1 feed file into canonical vulnerability records.

    Returns ``(records, warnings)``.  The v3 base score is preferred (v2 as
    fallback) unless ``prefer_v3`` is false; the first listed CWE is kept and
    a missing/`NVD-CWE-*` problem type maps to ``CWE-NULL``; configuration
    nodes are flattened to (cpe pattern, version range) pairs.  Each entry is
    checked as :func:`load_catalog` checks a record; one that fails is skipped
    with the error as its warning."""
    try:
        doc = load_json(path)
    except SchemaError as exc:
        raise FeedParseError(str(exc)) from exc
    if not isinstance(_dig(doc, "CVE_Items"), list):
        raise FeedParseError("no CVE_Items list; not an NVD 1.1 feed")
    patterns = cpe.ParseTable()
    records: list[VulnerabilityRecord] = []
    warnings: list[str] = []
    for i, item in enumerate(doc["CVE_Items"]):
        try:
            record_doc = _nvd_record(item, prefer_v3, patterns, warnings)
            records.append(_parse_vulnerability(record_doc, f"CVE_Items[{i}]", patterns))
        except SchemaError as exc:
            warnings.append(str(exc))
    return records, warnings


def _dig(doc, *keys, default=None):
    """``doc[keys[0]][keys[1]]...``, or ``default`` where a level is missing or not
    an object, or where ``default`` is given and the value is of another type."""
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            return default
        doc = doc[key]
    return doc if default is None or isinstance(doc, type(default)) else default


def _without_none(doc: dict) -> dict:
    return {key: value for key, value in doc.items() if value is not None}


def _nvd_record(item, prefer_v3, patterns: cpe.ParseTable, warnings) -> dict:
    """The canonical record document of one ``CVE_Items`` entry, unchecked.  A field
    the entry lacks is left out, so the loader reports it or supplies its default
    (``CWE-NULL`` without a real CWE, 1999-01-01 without a date)."""
    cve_id = _dig(item, "cve", "CVE_data_meta", "ID")
    scores = {"v3": _dig(item, "impact", "baseMetricV3", "cvssV3", "baseScore"),
              "v2": _dig(item, "impact", "baseMetricV2", "cvssV2", "baseScore")}
    scheme = "v3" if scores["v3"] is not None and (prefer_v3 or scores["v2"] is None) else "v2"
    problem_types = [
        _dig(desc, "value", default="")
        for ptype in _dig(item, "cve", "problemtype", "problemtype_data", default=[])
        for desc in _dig(ptype, "description", default=[])
    ]
    nodes = _dig(item, "configurations", "nodes", default=[])
    published = _dig(item, "publishedDate", default="")[:10]
    return _without_none({
        "cve_id": cve_id,
        "cvss": scores[scheme],
        "cvss_scheme": scheme,
        "cwe_ids": [v for v in problem_types if _CWE_RE.fullmatch(v) and v != CWE_NULL][:1],
        "affected": _nvd_affected(nodes, cve_id, patterns, warnings),
        "published": published if _DATE_RE.fullmatch(published) else None,
    })


def _nvd_affected(nodes, cve_id, patterns: cpe.ParseTable, warnings) -> list[dict]:
    """Affected-entry documents of the vulnerable matches in ``nodes`` and their
    children; a match whose CPE does not parse is skipped with a warning."""
    out = []
    for node in nodes:
        for match in _dig(node, "cpe_match", default=[]):
            uri = _dig(match, "cpe23Uri")
            if not _dig(match, "vulnerable", default=True) or not uri:
                continue
            try:
                if not isinstance(uri, str):
                    raise MalformedCpe(f"expected a string, got {type(uri).__name__}")
                patterns[uri]  # parsed here, so a bad name drops only this match
            except MalformedCpe as exc:
                warnings.append(f"{cve_id}: skipped unparsable cpe {uri!r}: {exc}")
                continue
            versions = _without_none({
                "min": _dig(match, "versionStartIncluding") or _dig(match, "versionStartExcluding"),
                "max": _dig(match, "versionEndIncluding") or _dig(match, "versionEndExcluding"),
                "min_inclusive": "versionStartExcluding" not in match,
                "max_inclusive": "versionEndIncluding" in match,
            })
            has_bound = "min" in versions or "max" in versions
            out.append({"cpe": uri, "versions": versions if has_bound else None})
        out += _nvd_affected(_dig(node, "children", default=[]), cve_id, patterns, warnings)
    return out


def records_to_catalog(records, snapshot_date: str) -> Catalog:
    """Wrap imported records in a catalog (duplicate ids rejected)."""
    catalog = Catalog(snapshot_date=snapshot_date)
    for record in records:
        if record.cve_id in catalog.vulnerabilities:
            raise DuplicateId(record.cve_id)
        catalog.vulnerabilities[record.cve_id] = record
    catalog.weaknesses[CWE_NULL] = _NULL_WEAKNESS
    return catalog


# ---------------------------------------------------------------------------
# CSV side-tables (weakness->attack pattern mapping, remediation KB)


def _csv_ids(cell: str) -> list[str]:
    """The ids of one semicolon-separated CSV cell, blanks dropped."""
    return [c.strip() for c in cell.split(";") if c.strip()]


def _csv_rows(fh, columns: tuple[str, ...]):
    """The rows of a CSV file as dicts, blanks for the cells a short row
    lacks; a header without one of ``columns`` is a :class:`SchemaError`."""
    import csv

    reader = csv.DictReader(fh, restval="")
    for column in columns:
        if reader.fieldnames is not None and column not in reader.fieldnames:
            raise SchemaError(f"missing column {column!r}", "header")
    return reader


def import_cwe_capec_csv(path) -> dict[str, tuple[str, ...]]:
    """Read the weakness-to-attack-pattern mapping.

    Columns: ``cwe_id,capec_ids`` with the CAPEC list semicolon separated.
    Each row's ids are checked as a catalog's weakness ids are.
    """
    mapping: dict[str, tuple[str, ...]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(_csv_rows(fh, ("cwe_id", "capec_ids"))):
            doc = {"cwe_id": row["cwe_id"].strip(), "capec_ids": _csv_ids(row["capec_ids"])}
            row_path = f"row {i + 1}"
            mapping[_id(doc, "cwe_id", _CWE_RE, "CWE", row_path)] = _ids(
                doc, "capec_ids", _CAPEC_RE, "CAPEC", row_path)
    return mapping


def import_remediation_csv(path) -> list[RemediationEntry]:
    """Read the remediation knowledge base.

    Columns: ``kind,cwe_ids,capec_ids,text`` with id lists semicolon
    separated.  Each row is checked as a catalog's remediation entry is.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            _parse_remediation(
                {
                    "kind": row["kind"].strip(),
                    "cwe_ids": _csv_ids(row["cwe_ids"]),
                    "capec_ids": _csv_ids(row["capec_ids"]),
                    "text": row["text"].strip(),
                },
                f"row {i + 1}",
            )
            for i, row in enumerate(_csv_rows(fh, ("kind", "cwe_ids", "capec_ids", "text")))
        ]
