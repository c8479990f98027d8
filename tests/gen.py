"""Seeded random generators for the property suites.

Everything is driven by a ``random.Random`` instance, so a seed fully
determines the system: catalog, manifest, event log and epoch marks.  Sizes
are kept small (snapshots stay under twenty nodes) because the suites run
hundreds of cases.
"""

from __future__ import annotations

import random

from helpers import make_catalog, record, wstr
from vulngraph import cpe, graph, timeline as tl_mod
from vulngraph.graph import Manifest, ManifestEntry
from vulngraph.timeline import LifecycleEvent, Timeline

PRODUCTS = [("acme", "alpha"), ("acme", "bravo"), ("initech", "charlie"),
            ("initech", "delta"), ("umbrella", "echo")]
CWES = ["CWE-100", "CWE-101", "CWE-102", "CWE-103", None]


def _version(rng: random.Random) -> str:
    return f"{rng.randint(1, 4)}.{rng.randint(0, 3)}"


def _day(i: int) -> str:
    return f"2020-01-{i:02d}T00:00:00Z"


def random_catalog(rng: random.Random):
    records = []
    for i in range(rng.randint(0, 8)):
        vendor, product = rng.choice(PRODUCTS)
        if rng.random() < 0.5:
            affected = [wstr(vendor, product, _version(rng))]
        else:
            lo = rng.randint(1, 3)
            affected = [(wstr(vendor, product, "*"), f"{lo}.0", f"{lo + rng.randint(1, 2)}.0")]
        records.append(
            record(
                f"CVE-2020-{1000 + i}",
                round(rng.uniform(0.0, 10.0), 1),
                rng.choice(CWES),
                affected=affected,
                exploit=rng.random() < 0.3,
                published=f"2020-01-{rng.randint(1, 15):02d}",
            )
        )
    return make_catalog(records=records)


def random_system(rng: random.Random):
    """A buildable manifest plus catalog; build date is day 10."""
    catalog = random_catalog(rng)
    n = rng.randint(1, 4)
    entries = []
    for i in range(n):
        vendor, product = rng.choice(PRODUCTS)
        entries.append((f"a{i}", wstr(vendor, product, _version(rng))))
    ids = [e[0] for e in entries]
    deps = set()
    for _ in range(rng.randint(0, 2 * n)):
        src, dst = rng.sample(ids, 2) if n > 1 else (None, None)
        if src is not None:
            deps.add((src, dst))
    manifest = Manifest(
        entries=tuple(ManifestEntry(a, cpe.parse_formatted(c)) for a, c in entries),
        dependencies=tuple(sorted(deps)),
    )
    return manifest, catalog


def random_timeline(rng: random.Random, max_events: int = 5):
    """A valid timeline with 1..3 epoch marks, replay-checked as generated."""
    manifest, catalog = random_system(rng)
    tl = Timeline(sut_cpe=cpe.parse_formatted(wstr("sut", "box", "1.0")),
                  manifest=manifest, built_at=_day(10))
    tl = tl_mod.mark_epoch(tl, "E0", _day(10))
    g = graph.build_edg(tl.sut_cpe, manifest, catalog, tl.built_at)

    version_bump = {e.asset_id: 1 for e in manifest.entries}
    added = 0
    epoch_count = 1
    for step in range(rng.randint(0, max_events)):
        at = _day(11 + step)
        active = [a.asset_id for a in g.active_assets()]
        choices = ["noop", "asset_added"]
        if active:
            choices += ["asset_updated", "asset_retired", "vuln_discovered"]
        cves = graph.active_subgraph(g).cves_of
        attached = [
            (a.asset_id, cve)
            for a in g.active_assets()
            for cve in cves.get(a.node_id, ())
        ]
        if attached:
            choices.append("vuln_patched")
        kind = rng.choice(choices)
        event = None
        if kind == "noop":
            event = LifecycleEvent(at=at, seq=0, kind="noop")
        elif kind == "asset_added":
            added += 1
            asset_id = f"x{added}"
            vendor, product = rng.choice(PRODUCTS)
            deps = []
            if active and rng.random() < 0.7:
                deps.append((asset_id, rng.choice(active)))
            event = LifecycleEvent(
                at=at, seq=0, kind="asset_added", asset_id=asset_id,
                cpe_value=cpe.parse_formatted(wstr(vendor, product, _version(rng))),
                dependencies=tuple(deps), top_level=not deps or rng.random() < 0.5,
            )
            version_bump[asset_id] = 1
        elif kind == "asset_updated":
            asset_id = rng.choice(active)
            node = g.active_node(asset_id)
            bump = version_bump[asset_id] = version_bump.get(asset_id, 0) + 1
            vendor = node.cpe_current.vendor
            product = node.cpe_current.product
            fixes = tuple(cve for cve in cves.get(node.node_id, ()) if rng.random() < 0.5)
            event = LifecycleEvent(
                at=at, seq=0, kind="asset_updated", asset_id=asset_id,
                cpe_value=cpe.parse_formatted(wstr(vendor, product, f"9.{bump}")),
                fixes=fixes,
            )
        elif kind == "asset_retired":
            event = LifecycleEvent(at=at, seq=0, kind="asset_retired",
                                   asset_id=rng.choice(active))
        elif kind == "vuln_discovered":
            if not catalog.vulnerabilities:
                event = LifecycleEvent(at=at, seq=0, kind="noop")
            else:
                event = LifecycleEvent(
                    at=at, seq=0, kind="vuln_discovered",
                    asset_id=rng.choice(active),
                    cve_id=rng.choice(sorted(catalog.vulnerabilities)),
                )
        elif kind == "vuln_patched":
            asset_id, cve = rng.choice(attached)
            event = LifecycleEvent(at=at, seq=0, kind="vuln_patched",
                                   asset_id=asset_id, cve_id=cve)
        g = tl_mod.apply_event(g, event, catalog)
        tl = tl_mod.append_event(tl, event)
        if rng.random() < 0.4 and epoch_count < 3:
            tl = tl_mod.mark_epoch(tl, f"E{epoch_count}", at)
            epoch_count += 1
    return tl, catalog


def split_before_last_event(rng: random.Random, max_events: int = 8):
    """A random timeline with at least one event, cut before its last event.

    Returns ``(prefix, last, label, whole, catalog)``: ``prefix`` is ``whole``
    without its last event (``last``) and without the epoch mark made at that
    event, if any, whose label is ``label`` (else None).  Appending ``last``
    to ``prefix`` and marking ``label`` at its time gives ``whole`` back.
    """
    while True:
        whole, catalog = random_timeline(rng, max_events)
        if whole.events:
            break
    last = whole.events[-1]
    prefix = whole.replace(events=whole.events[:-1],
                           epochs=[mark for mark in whole.epochs if mark.at < last.at])
    marked = [mark.label for mark in whole.epochs if mark.at >= last.at]
    return prefix, last, (marked[0] if marked else None), whole, catalog


def random_graph(rng: random.Random):
    """Final snapshot of a random timeline."""
    tl, catalog = random_timeline(rng)
    last = None
    for _, g in tl_mod.replay(tl, catalog):
        last = g
    return last, catalog


def random_cluster_case(seed: int):
    """A random final snapshot with a cluster rule and, sometimes, a scope."""
    rng = random.Random(seed)
    g, _ = random_graph(rng)
    if rng.random() < 0.5:
        rule = graph.ClusterRule.no_vulnerabilities()
    else:
        rule = graph.ClusterRule.cvss_below(round(rng.uniform(0.0, 10.0), 1))
    scope = None
    active_ids = [a.asset_id for a in g.active_assets()]
    if active_ids and rng.random() < 0.3:
        scope = set(rng.sample(active_ids, rng.randint(1, len(active_ids))))
    return g, rule, scope
