"""Expected outputs of the command mix, recounted from the serialized inputs.

Everything here reads the JSON documents the benchmark wrote (the base
timeline with its embedded epoch snapshots) and recounts by plain set
enumeration, sharing no code with the ``vulngraph`` package.  Each checker
takes ``(stdout, out_file_text)`` of one CLI call and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re

# The published OpenPLC study figures (three releases).
OPENPLC_EPOCHS = {"V1": (19, 91), "V2": (22, 77), "V3": (19, 5)}  # assets, CVEs
OPENPLC_M2 = 173
OPENPLC_WEAKNESSES = 22
OPENPLC_CWE_119 = 30


class Snapshot:
    """Active view of one serialized epoch snapshot."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.active = [a for a in doc["assets"] if not a["deprecated"]]
        active_nodes = {a["node_id"] for a in self.active}
        self.vulns = {v["cve_id"]: v for v in doc["vulns"]}
        normal = [(e["source"], e["target"]) for e in doc["edges"] if e["kind"] == "normal"]
        self.cves_of = {n: [] for n in active_nodes}
        for s, t in normal:
            if s in active_nodes and t in self.vulns:
                self.cves_of[s].append(t)
        for cves in self.cves_of.values():
            cves.sort()
        self.union = sorted({c for cves in self.cves_of.values() for c in cves})
        self.deps = [(s, t) for s, t in normal if s in active_nodes and t in active_nodes]

    def metrics(self) -> dict:
        n = len(self.active)
        per_asset = {a["asset_id"]: len(self.cves_of[a["node_id"]]) for a in self.active}
        total = sum(per_asset.values())
        m5 = {}
        for a in self.active:
            counts: dict[str, int] = {}
            for c in self.cves_of[a["node_id"]]:
                for w in self.vulns[c]["cwe_ids"]:
                    counts[w] = counts.get(w, 0) + 1
            if counts:
                m5[a["asset_id"]] = counts
        m6: dict[str, int] = {}
        for c in self.union:
            for w in self.vulns[c]["cwe_ids"]:
                m6[w] = m6.get(w, 0) + 1
        return {
            "epoch": self.doc["epoch"],
            "checked_at": self.doc["root"]["checked_at"],
            "n_assets": n,
            "m0": len(self.union) / n if n else None,
            "m1": len(self.union),
            "m7": len(m6),
            "m3_by_asset": per_asset,
            "m4_by_asset": {a: (c / total if total else 0.0) for a, c in per_asset.items()},
            "m5_by_asset_cwe": m5,
            "m6_by_cwe": m6,
        }

    def priorities(self, lo: float = 0.0, hi: float = 10.0) -> list[dict]:
        rows = []
        for a in sorted(self.active, key=lambda a: (a["order"], a["asset_id"])):
            group = sorted((self.vulns[c] for c in self.cves_of[a["node_id"]]
                            if lo <= self.vulns[c]["cvss"] <= hi),
                           key=lambda v: (-v["cvss"], not v["exploit_available"], v["cve_id"]))
            scores = sorted({v["cvss"] for v in group}, reverse=True)
            for v in group:
                rows.append({"cve_id": v["cve_id"], "cvss": v["cvss"], "asset": a["asset_id"],
                             "exploit_available": v["exploit_available"],
                             "rank": scores.index(v["cvss"]) + 1})
        return rows

    def impact(self, cve_id: str) -> list[str]:
        reached = {n for n, cves in self.cves_of.items() if cve_id in cves}
        grew = True
        while grew:
            grew = False
            for s, t in self.deps:
                if t in reached and s not in reached:
                    reached.add(s)
                    grew = True
        by_node = {a["node_id"]: a["asset_id"] for a in self.active}
        return sorted(by_node[n] for n in reached)


def _diff(before: Snapshot, after: Snapshot, a: str, b: str) -> dict:
    ids_before = {x["asset_id"] for x in before.active}
    ids_after = {x["asset_id"] for x in after.active}
    return {"from": a, "to": b,
            "assets_added": sorted(ids_after - ids_before),
            "assets_removed": sorted(ids_before - ids_after),
            "vulns_added": sorted(set(after.union) - set(before.union)),
            "vulns_fixed": sorted(set(before.union) - set(after.union))}


def _dot_counts(text: str) -> dict:
    lines = text.rstrip("\n").splitlines()
    return {
        "assets": sum(1 for ln in lines if "[shape=ellipse, label=" in ln),
        "vulns": sum(1 for ln in lines if "shape=invtriangle" in ln),
        "clusters": sum(1 for ln in lines if "shape=ellipse, style=dashed" in ln),
        "edges": sum(1 for ln in lines if " -> " in ln),
        "dashed_edges": sum(1 for ln in lines if " -> " in ln and "[style=dashed]" in ln),
        "well_formed": bool(lines) and lines[0] == "digraph edg {" and lines[-1] == "}",
    }


def _expect_equal(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {str(got)[:200]!r}, want {str(want)[:200]!r}"]


def _json_or_problem(text: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


_REPORT_EPOCH = re.compile(r"^## Epoch (\S+) ")
_REPORT_LINE = re.compile(r"^- (assets|M1 \(vulnerabilities\)|M2 \(accumulated vulnerabilities\)|"
                          r"M8 \(lifecycle weaknesses, union\)): (\d+)$")
_REPORT_CWE = re.compile(r"^- (CWE-\w+): (\d+)$")


def report_figures(markdown: str) -> dict:
    """Per-epoch (assets, CVEs), M2, M8 union and the weakness frequencies."""
    out = {"epochs": {}, "m2": None, "m8_union": None, "weakness_frequency": {}}
    epoch = None
    section = None
    for line in markdown.splitlines():
        m = _REPORT_EPOCH.match(line)
        if m:
            epoch = m.group(1)
            out["epochs"][epoch] = [None, None]
            continue
        if line.startswith("## "):
            epoch, section = None, line
            continue
        m = _REPORT_LINE.match(line)
        if m:
            label, value = m.group(1), int(m.group(2))
            if label == "assets" and epoch:
                out["epochs"][epoch][0] = value
            elif label.startswith("M1") and epoch:
                out["epochs"][epoch][1] = value
            elif label.startswith("M2"):
                out["m2"] = value
            elif label.startswith("M8"):
                out["m8_union"] = value
            continue
        m = _REPORT_CWE.match(line)
        if m and section and section.startswith("## Root causes"):
            out["weakness_frequency"][m.group(1)] = int(m.group(2))
    return out


def make_checkers(base_doc: dict, info: dict, openplc: bool) -> dict:
    """One checker per operation name of the command mix."""
    labels = [m["label"] for m in base_doc["epochs"]]
    snaps = {label: Snapshot(base_doc["snapshots"][label]) for label in labels}
    first, last = snaps[info["first_epoch"]], snaps[info["last_epoch"]]

    wf: dict[str, int] = {}
    for s in snaps.values():
        for w, c in s.metrics()["m6_by_cwe"].items():
            wf[w] = wf.get(w, 0) + c
    want_report = {
        "epochs": {lb: [len(s.active), len(s.union)] for lb, s in snaps.items()},
        "m2": sum(len(s.union) for s in snaps.values()),
        "m8_union": len({w for s in snaps.values() for c in s.union
                         for w in s.vulns[c]["cwe_ids"]}),
        "weakness_frequency": wf,
    }

    def check_build(stdout, out_text):
        doc, problems = _json_or_problem(out_text)
        if doc is None:
            return problems
        return (_expect_equal("epochs", doc["epochs"], base_doc["epochs"][:1])
                + _expect_equal("events", doc["events"], [])
                + _expect_equal("snapshot", doc["snapshots"],
                                {labels[0]: base_doc["snapshots"][labels[0]]}))

    def check_event(stdout, out_text):
        doc, problems = _json_or_problem(out_text)
        if doc is None:
            return problems
        ev = info["event"]
        new = doc["events"][-1] if doc["events"] else {}
        seq = base_doc["events"][-1]["seq"] + 1 if base_doc["events"] else 0
        want_new = {"at": ev["at"], "seq": seq, "kind": "asset_updated",
                    "asset_id": ev["asset"], "cpe": ev["cpe"]}
        if ev["fixes"]:
            want_new["fixes"] = ev["fixes"]
        return (_expect_equal("earlier events", doc["events"][:-1], base_doc["events"])
                + _expect_equal("new event", new, want_new)
                + _expect_equal("epochs", doc["epochs"], base_doc["epochs"])
                + _expect_equal("snapshots", doc["snapshots"], base_doc["snapshots"]))

    def check_report(stdout, out_text):
        got = report_figures(stdout)
        problems = _expect_equal("report figures", got, want_report)
        if openplc:
            study = {"epochs": {k: list(v) for k, v in OPENPLC_EPOCHS.items()},
                     "m2": OPENPLC_M2, "m8_union": OPENPLC_WEAKNESSES,
                     "cwe_119": OPENPLC_CWE_119}
            seen = {"epochs": got["epochs"], "m2": got["m2"], "m8_union": got["m8_union"],
                    "cwe_119": got["weakness_frequency"].get("CWE-119")}
            problems += _expect_equal("study figures", seen, study)
        return problems

    def check_metrics(stdout, out_text):
        doc, problems = _json_or_problem(stdout)
        return problems or _expect_equal("metrics", doc, last.metrics())

    def check_prioritize(stdout, out_text):
        doc, problems = _json_or_problem(stdout)
        return problems or _expect_equal("priorities", doc, last.priorities())

    def check_export(stdout, out_text):
        # Deprecated nodes and edges shown: every node and edge of the snapshot.
        d = last.doc
        want = {"assets": len(d["assets"]), "vulns": len(d["vulns"]), "clusters": 0,
                "edges": len(d["edges"]),
                "dashed_edges": sum(1 for e in d["edges"] if e["kind"] != "normal"),
                "well_formed": True}
        return _expect_equal("dot", _dot_counts(stdout), want)

    def check_export_active(stdout, out_text):
        # Deprecated history hidden: the active view only.
        keep = {a["node_id"] for a in last.active} | set(last.union) | {"root"}
        edges = [e for e in last.doc["edges"]
                 if e["kind"] == "normal" and e["source"] in keep and e["target"] in keep]
        want = {"assets": len(last.active), "vulns": len(last.union), "clusters": 0,
                "edges": len(edges), "dashed_edges": 0, "well_formed": True}
        return _expect_equal("dot", _dot_counts(stdout), want)

    def check_cluster(stdout, out_text):
        # Every active asset whose CVEs all score below 6.0 folds into a
        # cluster; the ones left as plain nodes carry a CVE of 6.0 or more.
        kept = sorted(a["node_id"] for a in last.active
                      if any(last.vulns[c]["cvss"] >= 6.0 for c in last.cves_of[a["node_id"]]))
        got = sorted(re.findall(r'^  "([^"]+@\d+)" \[shape=ellipse, label=', stdout, re.M))
        folded = sum(int(n) for n in re.findall(r'\((\d+) assets, \d+ vulns\)', stdout))
        return (_expect_equal("unclustered assets", got, kept)
                + _expect_equal("clustered assets", folded, len(last.active) - len(kept))
                + _expect_equal("well formed", _dot_counts(stdout)["well_formed"], True))

    def check_impact(stdout, out_text):
        want = last.impact(info["impact_cve"])
        return _expect_equal("impact", stdout.rstrip("\n"),
                             "\n".join(want) if want else "(no active asset affected)")

    def check_alerts(stdout, out_text):
        lines = [f"[critical] {c} scores {last.vulns[c]['cvss']} >= 9.0"
                 for c in last.union if last.vulns[c]["cvss"] >= 9.0]
        m1 = len(last.union)
        if m1 >= 1:
            lines.append(f"[warning] M1 = {m1:.4g} >= 1.0")
        return _expect_equal("alerts", stdout.rstrip("\n"), "\n".join(lines) or "no alerts")

    def check_diff(stdout, out_text):
        doc, problems = _json_or_problem(stdout)
        want = _diff(first, last, info["first_epoch"], info["last_epoch"])
        return problems or _expect_equal("diff", doc, want)

    return {
        "build": check_build,
        "event": check_event,
        "report": check_report,
        "metrics": check_metrics,
        "prioritize": check_prioritize,
        "export": check_export,
        "export_full": check_export_active,
        "cluster": check_cluster,
        "impact": check_impact,
        "alerts": check_alerts,
        "diff": check_diff,
    }
