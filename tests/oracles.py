"""Naive re-computation of every metric and of the patch queue straight from
a serialized snapshot.

Works on the JSON form only, by literal set enumeration, sharing no code
with the metrics module; property tests compare the two implementations.
"""

from __future__ import annotations


def brute_metrics(doc: dict) -> dict:
    """Compute n, m0, m1, m3..m7 from an ``edg_to_dict`` document."""
    active_assets = [a for a in doc["assets"] if not a["deprecated"]]
    vuln_ids = {v["cve_id"] for v in doc["vulns"]}
    cwes_of = {v["cve_id"]: set(v["cwe_ids"]) for v in doc["vulns"]}
    normal = [
        (e["source"], e["target"]) for e in doc["edges"] if e["kind"] == "normal"
    ]

    per_asset: dict[str, set[str]] = {}
    for asset in active_assets:
        per_asset[asset["asset_id"]] = {
            t for (s, t) in normal if s == asset["node_id"] and t in vuln_ids
        }

    union: set[str] = set()
    for cves in per_asset.values():
        union |= cves
    all_cwes: set[str] = set()
    for cve in union:
        all_cwes |= cwes_of[cve]

    n = len(active_assets)
    total = sum(len(c) for c in per_asset.values())
    m3 = {a: len(c) for a, c in per_asset.items()}
    m4 = {a: (len(c) / total if total else None) for a, c in per_asset.items()}
    m5 = {
        a: {
            cwe: sum(1 for cve in cves if cwe in cwes_of[cve])
            for cwe in all_cwes
        }
        for a, cves in per_asset.items()
    }
    m6 = {cwe: sum(1 for cve in union if cwe in cwes_of[cve]) for cwe in all_cwes}
    return {
        "n": n,
        "m0": (len(union) / n) if n else None,
        "m1": len(union),
        "m3": m3,
        "m4": m4,
        "m5": m5,
        "m6": m6,
        "m7": len(all_cwes),
    }


def brute_priorities(doc: dict, lo: float, hi: float, grouping: str) -> list[tuple]:
    """The patch queue of an ``edg_to_dict`` document, as ``(cve_id, cvss,
    asset_id, exploit_available, rank)`` rows.

    A row is an active asset and a vulnerability a normal edge attaches to
    it, scoring inside ``[lo, hi]``.  ``by_asset`` groups rows by the asset's
    ``(order, asset_id)``; ``global`` is one group.  A group lists its rows by
    descending CVSS, exploit first, then CVE id, then asset ``(order,
    node_id)``; a row's rank is the number of distinct scores in its group
    at least as high as its own.
    """
    vulns = {v["cve_id"]: v for v in doc["vulns"]}
    normal = {(e["source"], e["target"]) for e in doc["edges"] if e["kind"] == "normal"}
    rows = [
        (asset, vulns[target])
        for asset in doc["assets"] if not asset["deprecated"]
        for (source, target) in normal
        if source == asset["node_id"] and target in vulns
        and lo <= vulns[target]["cvss"] <= hi
    ]

    def group_of(asset):
        return (asset["order"], asset["asset_id"]) if grouping == "by_asset" else ()

    def sort_key(row):
        asset, v = row
        return (group_of(asset), -v["cvss"], not v["exploit_available"], v["cve_id"],
                asset["order"], asset["node_id"])

    out = []
    for asset, v in sorted(rows, key=sort_key):
        scores = {w["cvss"] for other, w in rows if group_of(other) == group_of(asset)}
        rank = len({s for s in scores if s >= v["cvss"]})
        out.append((v["cve_id"], v["cvss"], asset["asset_id"], v["exploit_available"], rank))
    return out
