"""Shared builders for the test suite: tiny catalogs, manifests and the
four-step update/patch reference scenario."""

from __future__ import annotations

from vulngraph import cpe, timeline as tl_mod
from vulngraph.catalog import Catalog, canonical_json, canonical_text, catalog_from_dict
from vulngraph.graph import Manifest, ManifestEntry
from vulngraph.timeline import LifecycleEvent, Timeline


def wstr(vendor: str, product: str, version: str = "*", part: str = "a") -> str:
    return f"cpe:2.3:{part}:{vendor}:{product}:{version}:*:*:*:*:*:*:*"


def name(vendor: str, product: str, version: str = "*"):
    return cpe.parse_formatted(wstr(vendor, product, version))


def record(
    cve_id: str,
    cvss: float,
    cwe: str | list | None = None,
    affected=(),
    exploit: bool = False,
    published: str = "2010-01-01",
    scheme: str = "v2",
) -> dict:
    """Vulnerability record in canonical-document form.

    ``affected`` entries are either a cpe string (exact pattern) or a
    ``(cpe string, min, max)`` triple for a half-open version range.
    """
    if cwe is None:
        cwe_ids = []
    elif isinstance(cwe, str):
        cwe_ids = [cwe]
    else:
        cwe_ids = list(cwe)
    entries = []
    for item in affected:
        if isinstance(item, str):
            entries.append({"cpe": item, "versions": None})
        else:
            pattern, lo, hi = item
            entries.append(
                {
                    "cpe": pattern,
                    "versions": {
                        "min": lo,
                        "max": hi,
                        "min_inclusive": True,
                        "max_inclusive": False,
                    },
                }
            )
    return {
        "cve_id": cve_id,
        "cvss": cvss,
        "cvss_scheme": scheme,
        "cwe_ids": cwe_ids,
        "affected": entries,
        "exploit_available": exploit,
        "published": published,
    }


def make_catalog(records=(), weaknesses=(), attack_patterns=(), remediation=(),
                 snapshot_date="2020-01-01") -> Catalog:
    return catalog_from_dict(
        {
            "schema_version": 1,
            "snapshot_date": snapshot_date,
            "vulnerabilities": list(records),
            "weaknesses": list(weaknesses),
            "attack_patterns": list(attack_patterns),
            "remediation": list(remediation),
        }
    )


def manifest(assets, dependencies=()) -> Manifest:
    """``assets`` maps asset id -> cpe string."""
    return Manifest(
        entries=tuple(
            ManifestEntry(asset_id=a, cpe=cpe.parse_formatted(c)) for a, c in assets
        ),
        dependencies=tuple(dependencies),
    )


def lineage_cpes(g, asset_id: str) -> list:
    """The CPE names of an asset's versions in ``g``, oldest first
    (``Edg.lineage``), after checking that each version's ``cpe_previous``
    is the name of the version before it and the first one's is None."""
    nodes = g.lineage(asset_id)
    cpes = [node.cpe_current for node in nodes]
    assert [node.cpe_previous for node in nodes] == [None] + cpes[:-1], asset_id
    return cpes


def ts(day: int, hour: int = 0) -> str:
    return f"2020-01-{day:02d}T{hour:02d}:00:00Z"


def update_patch_scenario():
    """The four-step reference lifecycle.

    t0: two assets, no known vulnerabilities.  t1: a vulnerability is found
    on the second asset.  t2: that asset is updated without correcting it, so
    both versions carry it.  t3: the next update corrects it.

    Returns ``(timeline, catalog)``; epochs t0..t3 mark the four states.
    """
    cat = make_catalog(
        records=[
            record(
                "CVE-2020-0001",
                7.5,
                "CWE-119",
                affected=[wstr("acme", "widget", "1.0")],
                published="2020-01-02",
            )
        ],
        weaknesses=[{"cwe_id": "CWE-119", "name": "buffer", "related_capec_ids": []}],
    )
    tl = Timeline(
        sut_cpe=name("acme", "box", "1.0"),
        manifest=manifest(
            [("a1", wstr("acme", "gadget", "1.0")), ("a2", wstr("acme", "widget", "1.0"))]
        ),
        built_at=ts(1),
    )
    tl = tl_mod.mark_epoch(tl, "t0", ts(1))
    tl = tl_mod.append_event(
        tl,
        LifecycleEvent(at=ts(2), seq=0, kind="vuln_discovered", asset_id="a2",
                       cve_id="CVE-2020-0001"),
    )
    tl = tl_mod.mark_epoch(tl, "t1", ts(2))
    tl = tl_mod.append_event(
        tl,
        LifecycleEvent(at=ts(3), seq=0, kind="asset_updated", asset_id="a2",
                       cpe_value=name("acme", "widget", "2.0")),
    )
    tl = tl_mod.mark_epoch(tl, "t2", ts(3))
    tl = tl_mod.append_event(
        tl,
        LifecycleEvent(at=ts(4), seq=0, kind="asset_updated", asset_id="a2",
                       cpe_value=name("acme", "widget", "3.0"),
                       fixes=("CVE-2020-0001",)),
    )
    tl = tl_mod.mark_epoch(tl, "t3", ts(4))
    return tl, cat


def renamed(snap: dict, old: str, new: str) -> dict:
    """The snapshot document ``snap``, edited in place, with the asset node
    ``old`` renamed ``new`` in its node and its edges."""
    for node in snap["assets"]:
        if node["node_id"] == old:
            node["node_id"] = new
    for edge in snap["edges"]:
        for end in ("source", "target"):
            if edge[end] == old:
                edge[end] = new
    return snap


def timeline_text(doc: dict) -> str:
    """The text ``timeline.save_timeline`` writes for the timeline document
    ``doc``: its canonical JSON, except that each snapshot stands on a line
    of its own as ``"<label>":<canonical text>``, with a comma ending every
    such line but the last."""
    snapshots = doc["snapshots"]
    text = canonical_json({**doc, "snapshots": {}})
    if not snapshots:
        return text
    lines = ",\n".join(canonical_text(label) + ":" + canonical_text(snap)
                       for label, snap in sorted(snapshots.items()))
    return text.replace('"snapshots":{}', '"snapshots":{\n' + lines + "\n}", 1)
