"""Seeded inputs for the benchmark workloads.

A workload's inputs are a catalog, a manifest and a base timeline (with
embedded epoch snapshots) written as files into a work directory; the CLI
under test only ever sees those files.  ``random.Random`` seeded from the
workload name and ``--seed`` drives every choice, so one seed always yields
byte-identical files.

``openplc`` re-embeds the bundled OpenPLC study unchanged.  The synthetic
shapes are described in ``SHAPES``; the timeline is evolved through the
library's own lifecycle operations so every generated event is valid.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

from vulngraph import catalog as catalog_mod
from vulngraph import cpe, graph, timeline as timeline_mod
from vulngraph.fixtures import (
    openplc_catalog_path,
    openplc_manifest_path,
    openplc_timeline_path,
)
from vulngraph.timeline import LifecycleEvent, Timeline

BUILT_AT = "2021-01-01T00:00:00Z"
SUT = "cpe:2.3:a:bench:system:1.0:*:*:*:*:*:*:*"

# Synthetic shapes.  catalog-scan: wide and sparse (records >> assets), so the
# catalog lookup dominates writes.  graph-dense: many assets with dependencies
# against a small catalog, so the active view dominates reads and replay depth
# dominates writes.
SHAPES = {
    "catalog-scan": dict(products=80, versions=50, assets=50, deps_per_asset=1,
                         records=5000, events=12, epochs=3),
    "graph-dense": dict(products=10, versions=20, assets=400, deps_per_asset=2,
                        records=300, events=40, epochs=5),
}

EVENT_MIX = (("asset_updated", 40), ("vuln_patched", 20), ("asset_retired", 10),
             ("asset_added", 15), ("vuln_discovered", 15))

CWE_POOL = tuple(f"CWE-{n}" for n in (
    20, 22, 74, 78, 79, 89, 94, 119, 120, 125, 190, 200, 264, 287, 310, 352,
    362, 399, 400, 416, 434, 476, 502, 611, 668, 787, 798, 862, 863, 918))
CAPEC_POOL = tuple(f"CAPEC-{n}" for n in (
    10, 14, 24, 45, 46, 47, 59, 63, 66, 88, 97, 100, 112, 115, 126, 137,
    153, 242, 248, 475))
SCALE = ("very_low", "low", "medium", "high", "very_high")


def _ts(days: int) -> str:
    base = datetime(2021, 1, 1, tzinfo=timezone.utc)
    return (base + timedelta(days=days)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _cpe(part: str, vendor: str, product: str, version: str) -> str:
    return f"cpe:2.3:{part}:{vendor}:{product}:{version}:*:*:*:*:*:*:*"


def _version(rng: random.Random) -> str:
    return f"{rng.randint(1, 5)}.{rng.randint(0, 9)}.{rng.randint(0, 9)}"


def _products(rng: random.Random, n: int, n_versions: int) -> list[tuple]:
    """``(part, vendor, product, versions)``; assets and exact-version records
    draw from ``versions``, so the version count sets how often they meet."""
    parts = ("a",) * 8 + ("o", "h")
    out = []
    for i in range(n):
        versions = set()
        while len(versions) < n_versions:
            versions.add(_version(rng))
        out.append((parts[i % len(parts)], f"vendor{i % max(1, n // 4)}", f"product{i}",
                    sorted(versions, key=cpe.version_key)))
    return out


def _affected(rng: random.Random, kind: str, product) -> dict:
    part, vendor, name, versions = product
    if kind == "exact":
        return {"cpe": _cpe(part, vendor, name, rng.choice(versions))}
    if kind == "any":
        return {"cpe": _cpe(part, vendor, name, "*")}
    # A range over a fixed share of the product's versions.
    width = max(1, len(versions) * 3 // 10)
    lo = rng.randrange(len(versions) - width)
    return {"cpe": _cpe(part, vendor, name, "*"),
            "versions": {"min": versions[lo], "max": versions[lo + width],
                         "min_inclusive": rng.random() < 0.7,
                         "max_inclusive": rng.random() < 0.3}}


def _catalog_doc(rng: random.Random, products, n_records: int) -> dict:
    # Records and assets go round-robin over the products, and the pattern
    # kinds, second affected entries and late publications follow the record
    # index, so the number of matches varies little between seeds.
    kinds = ("exact",) * 10 + ("range",) * 9 + ("any",)
    vulns = []
    for i in range(n_records):
        product = products[i % len(products)]
        k = i // len(products)  # the record's rank within its product
        affected = [_affected(rng, kinds[k % len(kinds)], product)]
        if k % 7 == 3:
            affected.append(_affected(rng, "exact", product))
        roll = rng.random()
        if roll < 0.05:
            cwes = []
        elif roll < 0.85:
            cwes = [rng.choice(CWE_POOL)]
        else:
            cwes = sorted(rng.sample(CWE_POOL, 2))
        # One record in ten is published after the build, so only lookups
        # made by later events can find it.
        if k % 10 == 9:
            year, month = 2021, rng.randint(1, 3)
        else:
            year, month = rng.choice((2019, 2020)), rng.randint(1, 12)
        vulns.append({
            "cve_id": f"CVE-{year}-{10000 + i}",
            "cvss": round(rng.uniform(0.0, 10.0), 1),
            "cvss_scheme": rng.choice(("v2", "v3")),
            "cwe_ids": cwes,
            "affected": affected,
            "exploit_available": rng.random() < 0.2,
            "published": f"{year}-{month:02d}-{rng.randint(1, 28):02d}",
        })
    weaknesses = [{"cwe_id": c, "name": f"weakness {c}", "description": "",
                   "related_capec_ids": sorted(rng.sample(CAPEC_POOL, rng.randint(0, 3)))}
                  for c in CWE_POOL]
    patterns = [{"capec_id": c, "name": f"pattern {c}",
                 "likelihood": rng.choice(SCALE), "impact": rng.choice(SCALE)}
                for c in CAPEC_POOL]
    remediation = []
    for i, kind in enumerate(("requirement", "training", "test_case") * 5):
        remediation.append({
            "kind": kind,
            "cwe_ids": sorted(rng.sample(CWE_POOL, rng.randint(1, 4))),
            "capec_ids": sorted(rng.sample(CAPEC_POOL, rng.randint(1, 2)))
            if kind == "test_case" else [],
            "text": f"{kind} {i}",
        })
    return {"schema_version": 1, "snapshot_date": "2021-03-31",
            "vulnerabilities": vulns, "weaknesses": weaknesses,
            "attack_patterns": patterns, "remediation": remediation}


def _manifest_doc(rng: random.Random, products, n_assets: int, deps_per_asset: int) -> dict:
    assets = []
    for i in range(n_assets):
        part, vendor, product, versions = products[i % len(products)]
        assets.append({"id": f"a{i:04d}", "cpe": _cpe(part, vendor, product,
                                                     rng.choice(versions))})
    deps = set()
    # A DAG: each asset depends on earlier ones only.
    for i in range(1, n_assets):
        for _ in range(deps_per_asset):
            deps.add((f"a{i:04d}", f"a{rng.randrange(i):04d}"))
    return {"assets": assets, "dependencies": [list(p) for p in sorted(deps)]}


def _event_kinds(rng: random.Random, n: int) -> list[str]:
    """``n`` event kinds in the ``EVENT_MIX`` proportions, in seeded order.
    Fixed counts keep the work per run alike across seeds."""
    kinds = []
    for kind, percent in EVENT_MIX:
        kinds += [kind] * round(n * percent / 100)
    kinds = (kinds + [EVENT_MIX[0][0]] * n)[:n]
    rng.shuffle(kinds)
    return kinds


def _next_event(rng, kind, g, catalog, chains, at, products, versions_of):
    """One valid lifecycle event of ``kind`` (or a stand-in when the snapshot
    cannot take it) for the current snapshot ``g``."""
    active = g.active_assets()
    if kind == "asset_retired" and len(active) <= 2:
        kind = "asset_added"
    if kind == "vuln_patched":
        for node in rng.sample(active, len(active)):
            cves = g.active_cves_of(node.node_id)
            if cves:
                return LifecycleEvent(at=at, seq=0, kind=kind, asset_id=node.asset_id,
                                      cve_id=rng.choice(cves))
        kind = "vuln_discovered"
    if kind == "asset_updated":
        node = rng.choice(active)
        old = node.cpe_current
        chain = chains[node.asset_id]
        fresh = [v for v in versions_of[old.product] if v not in chain]
        version = rng.choice(fresh) if fresh else f"6.{len(chain)}.0"
        chain.add(version)
        fixes = tuple(c for c in g.active_cves_of(node.node_id) if rng.random() < 0.5)
        return LifecycleEvent(
            at=at, seq=0, kind=kind, asset_id=node.asset_id, fixes=fixes,
            cpe_value=cpe.parse_formatted(_cpe(old.part, old.vendor, old.product, version)))
    if kind == "asset_retired":
        return LifecycleEvent(at=at, seq=0, kind=kind, asset_id=rng.choice(active).asset_id)
    if kind == "asset_added":
        asset_id = f"n{len(chains):04d}"
        part, vendor, product, versions = products[len(chains) % len(products)]
        version = rng.choice(versions)
        chains[asset_id] = {version}
        targets = rng.sample(active, min(len(active), rng.randint(1, 2)))
        return LifecycleEvent(
            at=at, seq=0, kind=kind, asset_id=asset_id, top_level=True,
            cpe_value=cpe.parse_formatted(_cpe(part, vendor, product, version)),
            dependencies=tuple((asset_id, t.asset_id) for t in targets))
    node = rng.choice(active)
    have = set(g.active_cves_of(node.node_id))
    cve_ids = sorted(catalog.vulnerabilities)
    while True:
        cve_id = rng.choice(cve_ids)
        if cve_id not in have:
            return LifecycleEvent(at=at, seq=0, kind=kind, asset_id=node.asset_id,
                                  cve_id=cve_id)


def _synthetic(rng: random.Random, shape: dict, work: Path):
    products = _products(rng, shape["products"], shape["versions"])
    cat_doc = _catalog_doc(rng, products, shape["records"])
    man_doc = _manifest_doc(rng, products, shape["assets"], shape["deps_per_asset"])
    catalog = catalog_mod.catalog_from_dict(cat_doc)
    manifest = timeline_mod.manifest_from_dict(man_doc)

    tl = Timeline(sut_cpe=cpe.parse_formatted(SUT), manifest=manifest, built_at=BUILT_AT)
    tl = timeline_mod.mark_epoch(tl, "E0", BUILT_AT)
    g = graph.build_edg(tl.sut_cpe, manifest, catalog, BUILT_AT)
    chains = {a["id"]: {a["cpe"].split(":")[5]} for a in man_doc["assets"]}
    versions_of = {p[2]: p[3] for p in products}
    n_events, n_epochs = shape["events"], shape["epochs"]
    marks = {round(k * n_events / (n_epochs - 1)) - 1: f"E{k}" for k in range(1, n_epochs)}
    for i, kind in enumerate(_event_kinds(rng, n_events)):
        at = _ts(i + 1)
        event = _next_event(rng, kind, g, catalog, chains, at, products, versions_of)
        g = timeline_mod.apply_event(g, event, catalog)
        tl = timeline_mod.append_event(tl, event)
        if i in marks:
            tl = timeline_mod.mark_epoch(tl, marks[i], at)
    tl = timeline_mod.embed_snapshots(tl, catalog)

    _write_json(work / "catalog.json", cat_doc)
    _write_json(work / "manifest.json", man_doc)
    timeline_mod.save_timeline(tl, work / "timeline.json")
    return tl, catalog


def _openplc(work: Path):
    catalog = catalog_mod.load_catalog(openplc_catalog_path())
    tl = timeline_mod.embed_snapshots(
        timeline_mod.load_timeline(openplc_timeline_path()), catalog)
    (work / "catalog.json").write_bytes(openplc_catalog_path().read_bytes())
    (work / "manifest.json").write_bytes(openplc_manifest_path().read_bytes())
    timeline_mod.save_timeline(tl, work / "timeline.json")
    return tl, catalog


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write ``catalog.json``, ``manifest.json`` and ``timeline.json`` into
    ``work`` and return the facts the command mix needs (the SUT, epochs,
    the ``event`` and ``impact`` arguments) plus the produced shape."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "openplc":
        tl, catalog = _openplc(work)
    else:
        tl, catalog = _synthetic(rng, SHAPES[workload], work)

    last = tl.epochs[-1].label
    final = graph.edg_from_dict(tl.snapshots[last])
    active = final.active_assets()

    # event: update one active asset to a version it never had, fixing about
    # half of what it carries, one day after the last event.
    node = rng.choice(active)
    version = f"99.{rng.randint(0, 99)}"
    old = node.cpe_current
    fixes = [c for c in final.active_cves_of(node.node_id) if rng.random() < 0.5]
    last_at = tl.events[-1].at if tl.events else tl.built_at
    event_at = (datetime.strptime(last_at, "%Y-%m-%dT%H:%M:%SZ")
                + timedelta(days=1)).strftime("%Y-%m-%dT%H:%M:%SZ")

    # impact: a CVE attached to an asset that other active assets depend on.
    depended = {e.target for e in final.normal_edges()
                if e.target in final.assets and e.source in final.assets}
    candidates = sorted({c for a in active if a.node_id in depended
                         for c in final.active_cves_of(a.node_id)})
    if not candidates:
        candidates = sorted(final.active_vulns())
    impact_cve = rng.choice(candidates)

    return {
        "sut": cpe.bind_formatted(tl.sut_cpe),
        "built_at": tl.built_at,
        "first_epoch": tl.epochs[0].label,
        "last_epoch": last,
        "event": {
            "asset": node.asset_id,
            "cpe": _cpe(old.part, old.vendor, old.product, version),
            "fixes": fixes,
            "at": event_at,
        },
        "impact_cve": impact_cve,
        "shape": {
            "assets": len(tl.manifest.entries),
            "records": len(catalog.vulnerabilities),
            "events": len(tl.events),
            "epochs": len(tl.epochs),
            "final_asset_nodes": len(final.assets),
            "final_cves": len(final.vulns),
            "edges": len(final.edges),
        },
    }
