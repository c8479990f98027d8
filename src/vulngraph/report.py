"""Emitters: Graphviz DOT export, the human-readable assessment report,
threshold alerts and epoch-to-epoch diffs.

The visual syntax follows the model's symbol table: the root is a box, assets
are ellipses, known vulnerabilities inverted triangles, clusters dashed
ellipses; deprecated edges are dashed.  No colors.  Report renderers never
recompute numbers: every figure comes from the metrics module's payload, so
the markdown and JSON forms carry identical values.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from . import cpe
from .catalog import CWE_NULL, Catalog, indented_text
from .errors import UnknownMetric
from .graph import DEPRECATED, ROOT_ID, Edg, Edge, active_subgraph, cluster_by
from .metrics import (
    METRIC_IDS,
    SCALAR_METRICS,
    PrioritizedVulnerability,
    _lifecycle,
    fmt2,
    iec62443_annotations,
    prioritize,
    snapshot_report,
)
from .timeline import Timeline, epoch_snapshots

#: Default prioritization window used by the report tables.
DEFAULT_PRIORITY_WINDOW = (6.0, 10.0)


class RenderOptions(namedtuple("RenderOptions", ["cluster_rule", "cluster_scope",
                                                 "show_deprecated", "verbosity"],
                               defaults=[None, None, True, "id"])):
    """How :func:`export_dot` draws a snapshot: the optional cluster rule
    and the asset ids it may group, whether deprecated nodes and edges are
    drawn, and the label ``verbosity``, ``id`` or ``full``."""

    __slots__ = ()


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Edg, opts: RenderOptions = RenderOptions()) -> str:
    """Serialize a snapshot as a deterministic Graphviz digraph.

    Each cluster is drawn as one node in place of its members.  An edge that
    touches a member joins the clusters (or nodes) at its two ends, and is
    not drawn when both ends land in one cluster.
    """
    if not opts.show_deprecated:
        g = active_subgraph(g)
    cluster_of = ({} if opts.cluster_rule is None
                  else cluster_by(g, opts.cluster_rule, scope=opts.cluster_scope))
    assets, vulns, edges = g.assets, g.vulns, g.edges
    sizes: dict[str, list[int]] = {}  # cluster id -> [member assets, member vulns]
    for member, cid in cluster_of.items():
        sizes.setdefault(cid, [0, 0])[member in vulns] += 1
    if cluster_of:
        assets = {nid: a for nid, a in assets.items() if nid not in cluster_of}
        vulns = {cve_id: v for cve_id, v in vulns.items() if cve_id not in cluster_of}
        edges = {e for e in g.edges if e[0] not in cluster_of and e[1] not in cluster_of}
        for source, target, kind in g.edges - edges:
            ends = cluster_of.get(source, source), cluster_of.get(target, target)
            if ends[0] != ends[1]:
                edges.add(Edge(*ends, kind))

    lines = ["digraph edg {", "  rankdir=TB;"]
    # Many asset nodes share a name (a product at one version): bind each
    # distinct name once.
    bind = cpe.BindTable().__getitem__
    root_label = bind(g.root.sut_cpe)
    if opts.verbosity == "full":
        root_label += f"\\n{g.root.checked_at}"
    lines.append(f"  {_dot_quote(ROOT_ID)} [shape=box, label={_dot_quote(root_label)}];")

    # Full labels list the weaknesses of every drawn attached vulnerability,
    # whatever the edge kind (a patched one shows when deprecated edges do).
    attached: dict[str, set[str]] = {}
    if opts.verbosity == "full":
        for e in edges:
            if e.target in vulns:
                attached.setdefault(e.source, set()).add(e.target)

    for asset in sorted(assets.values(), key=lambda a: a.node_id):
        label = bind(asset.cpe_current)
        if opts.verbosity == "full":
            cwes = sorted(
                {c for cve_id in attached.get(asset.node_id, ()) for c in vulns[cve_id].cwe_ids}
            )
            if asset.cpe_previous is not None:
                label += f"\\nprev: {bind(asset.cpe_previous)}"
            if cwes:
                label += "\\n" + ", ".join(cwes)
        lines.append(
            f"  {_dot_quote(asset.node_id)} [shape=ellipse, label={_dot_quote(label)}];"
        )

    for vuln in sorted(vulns.values(), key=lambda v: v.cve_id):
        label = vuln.cve_id
        if opts.verbosity == "full":
            label += f"\\nCVSS {vuln.cvss}"
            if vuln.capec_ids:
                label += "\\n" + ", ".join(vuln.capec_ids)
        lines.append(
            f"  {_dot_quote(vuln.cve_id)} [shape=invtriangle, label={_dot_quote(label)}];"
        )

    for cid, (n_assets, n_vulns) in sorted(sizes.items()):
        label = f"{cid} ({n_assets} assets, {n_vulns} vulns)"
        lines.append(
            f"  {_dot_quote(cid)} [shape=ellipse, style=dashed, label={_dot_quote(label)}];"
        )

    for source, target, kind in sorted(edges):
        attrs = " [style=dashed]" if kind == DEPRECATED else ""
        lines.append(f"  {_dot_quote(source)} -> {_dot_quote(target)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# alerts


class AlertRule(namedtuple("AlertRule", ["kind", "severity", "threshold", "metric",
                                         "comparator", "value"],
                           defaults=["warning", 10.0, "M0", ">=", 0.0])):
    """Either ``cvss_at_least(threshold)`` or ``metric_bound(metric, cmp, value)``.

    A metric-bound rule states the alarm condition: it fires when the metric
    compares true against the bound.  Scalar metrics only (M0, M1, M7), and a
    finite bound: no metric compares true against NaN, and none reaches an
    infinite bound, so such a rule could never fire.  ``kind`` is
    ``cvss_at_least``, of severity ``critical``, or ``metric_bound``, of
    severity ``warning``.
    """

    __slots__ = ()

    @classmethod
    def cvss_at_least(cls, threshold: float) -> "AlertRule":
        if not 0.0 <= threshold <= 10.0:
            raise ValueError(f"threshold {threshold} outside [0, 10]")
        return cls(kind="cvss_at_least", threshold=threshold, severity="critical")

    @classmethod
    def metric_bound(cls, metric: str, comparator: str, value: float) -> "AlertRule":
        if comparator not in ("<", "<=", ">", ">="):
            raise ValueError(f"bad comparator {comparator!r}")
        if not math.isfinite(value):
            raise ValueError(f"bound {value!r} for {metric} is not a finite number")
        if metric.upper() not in SCALAR_METRICS:
            raise UnknownMetric(f"{metric} cannot be bounded on a snapshot; "
                                f"want one of {', '.join(SCALAR_METRICS)}")
        return cls(
            kind="metric_bound",
            metric=metric.upper(),
            comparator=comparator,
            value=value,
            severity="warning",
        )


class AlertFiring(namedtuple("AlertFiring", ["rule", "entity", "value", "message"])):
    """One rule firing on one entity (a CVE id or a metric id), with the
    value that fired it."""

    __slots__ = ()


_COMPARATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def check_alerts(g: Edg, rules) -> list[AlertFiring]:
    """Evaluate rules against a snapshot; one firing per offending entity."""
    firings: list[AlertFiring] = []
    active = active_subgraph(g)
    snapshot_metrics = None
    for rule in rules:
        if rule.kind == "cvss_at_least":
            for vuln in sorted(active.vulns.values(), key=lambda v: v.cve_id):
                if vuln.cvss >= rule.threshold:
                    firings.append(
                        AlertFiring(
                            rule=rule,
                            entity=vuln.cve_id,
                            value=vuln.cvss,
                            message=f"{vuln.cve_id} scores {vuln.cvss} >= {rule.threshold}",
                        )
                    )
        elif rule.kind == "metric_bound":
            if snapshot_metrics is None:
                snapshot_metrics = snapshot_report(active)
            value = snapshot_metrics.scalar(rule.metric)
            if _COMPARATORS[rule.comparator](value, rule.value):
                firings.append(
                    AlertFiring(
                        rule=rule,
                        entity=rule.metric,
                        value=value,
                        message=f"{rule.metric} = {value:.4g} {rule.comparator} {rule.value}",
                    )
                )
        else:
            raise ValueError(f"unknown alert kind {rule.kind!r}")
    return firings


# ---------------------------------------------------------------------------
# epoch diff


def _delta(before: Edg, after: Edg) -> dict:
    # Both arguments are active views.
    assets_before = {a.asset_id for a in before.assets.values()}
    assets_after = {a.asset_id for a in after.assets.values()}
    return {
        "assets_added": sorted(assets_after - assets_before),
        "assets_removed": sorted(assets_before - assets_after),
        "vulns_added": sorted(set(after.vulns) - set(before.vulns)),
        "vulns_fixed": sorted(set(before.vulns) - set(after.vulns)),
    }


def epoch_diff(tl: Timeline, catalog: Catalog | None, from_label: str, to_label: str) -> dict:
    """Active asset/vulnerability delta between two named epochs, each read and viewed once."""
    labels = list(dict.fromkeys((from_label, to_label)))
    marks = [tl.find_epoch(label) for label in labels]
    views = dict(zip(labels, map(active_subgraph, epoch_snapshots(tl, catalog, marks))))
    delta = _delta(views[from_label], views[to_label])
    return {"from": from_label, "to": to_label, **delta}


# ---------------------------------------------------------------------------
# assessment report


def _priority_rows(rows: list[PrioritizedVulnerability]) -> list[dict]:
    return [
        {
            "cve_id": r.cve_id,
            "cvss": r.cvss,
            "asset": r.asset_id,
            "exploit_available": r.exploit_available,
            "rank": r.rank,
        }
        for r in rows
    ]


def report_payload(tl: Timeline, catalog: Catalog) -> dict:
    """Everything the report shows, as one JSON-serializable dictionary."""
    # One active view per epoch serves its metrics, priorities and deltas.
    actives = [active_subgraph(g) for g in epoch_snapshots(tl, catalog)]
    reports = [snapshot_report(a) for a in actives]
    life = _lifecycle(tl.epoch_labels(), reports)
    lo, hi = DEFAULT_PRIORITY_WINDOW

    epochs = []
    for mark, active, rep in zip(tl.epochs, actives, reports):
        epochs.append(
            {
                "label": mark.label,
                "at": mark.at,
                "metrics": rep.to_dict(),
                "prioritization": _priority_rows(prioritize(active, lo, hi, "by_asset")),
            }
        )

    fixed = [
        {
            "from": tl.epochs[i].label,
            "to": tl.epochs[i + 1].label,
            "fixed_cves": _delta(actives[i], actives[i + 1])["vulns_fixed"],
        }
        for i in range(len(actives) - 1)
    ]

    lifetime_cwes = [c for c in life.weakness_frequency if c != CWE_NULL]
    groups = catalog.remediation_for_weaknesses(lifetime_cwes)

    def entry_dicts(kind):
        return [
            {"cwe_ids": list(e.cwe_ids), "capec_ids": list(e.capec_ids), "text": e.text}
            for e in groups[kind]
        ]

    return {
        "sut": cpe.bind_formatted(tl.sut_cpe),
        "priority_window": [lo, hi],
        "epochs": epochs,
        "lifecycle": {
            "m2": life.m2,
            "m8_union": life.m8_union,
            "m8_sum": life.m8_sum,
            "weakness_frequency": dict(life.weakness_frequency),
        },
        "fixed_issues": fixed,
        "remediation": {
            "requirements": entry_dicts("requirement"),
            "training": entry_dicts("training"),
            "test_cases": entry_dicts("test_case"),
        },
        "annotations": {m: sorted(iec62443_annotations(m)) for m in METRIC_IDS},
    }


def _metric_table_md(metrics: dict) -> list[str]:
    assets = [a for a, c in metrics["m3_by_asset"].items() if c > 0]
    lines = [
        f"- assets: {metrics['n_assets']}",
        f"- M0 (mean vulnerabilities per asset): "
        f"{fmt2(metrics['m0']) if metrics['m0'] is not None else '-'}",
        f"- M1 (vulnerabilities): {metrics['m1']}",
        f"- M7 (distinct weaknesses): {metrics['m7']}",
    ]
    if assets:
        lines.append("")
        lines.append("| asset | M3 | M4 |")
        lines.append("| --- | ---: | ---: |")
        for a in assets:
            lines.append(
                f"| {a} | {metrics['m3_by_asset'][a]} | {fmt2(metrics['m4_by_asset'][a])} |"
            )
    return lines


def render_markdown(payload: dict) -> str:
    out = [f"# Vulnerability assessment: {payload['sut']}", ""]
    lo, hi = payload["priority_window"]

    for epoch in payload["epochs"]:
        out.append(f"## Epoch {epoch['label']} ({epoch['at']})")
        out.append("")
        out.extend(_metric_table_md(epoch["metrics"]))
        out.append("")
        out.append(f"### Patch priorities (CVSS {fmt2(lo)}-{fmt2(hi)})")
        if epoch["prioritization"]:
            out.append("")
            out.append("| CVE | CVSS | asset | exploit |")
            out.append("| --- | ---: | --- | --- |")
            for row in epoch["prioritization"]:
                exploit = "yes" if row["exploit_available"] else "no"
                out.append(
                    f"| {row['cve_id']} | {row['cvss']} | {row['asset']} | {exploit} |"
                )
        else:
            out.append("")
            out.append("nothing in the window")
        out.append("")

    life = payload["lifecycle"]
    out.append("## Life cycle")
    out.append("")
    out.append(f"- M2 (accumulated vulnerabilities): {life['m2']}")
    out.append(f"- M8 (lifecycle weaknesses, union): {life['m8_union']}")
    out.append(f"- M8 (lifecycle weaknesses, sum): {life['m8_sum']}")
    out.append("")

    out.append("## Root causes (weakness frequency over the life cycle)")
    out.append("")
    for cwe_id, count in life["weakness_frequency"].items():
        out.append(f"- {cwe_id}: {count}")
    out.append("")

    for block in payload["fixed_issues"]:
        out.append(f"## Fixed between {block['from']} and {block['to']}")
        out.append("")
        if block["fixed_cves"]:
            for cve_id in block["fixed_cves"]:
                out.append(f"- {cve_id}")
        else:
            out.append("- none")
        out.append("")

    rem = payload["remediation"]
    out.append("## Remediation")
    for title, key in (
        ("Requirements", "requirements"),
        ("Training", "training"),
        ("Test cases", "test_cases"),
    ):
        out.append("")
        out.append(f"### {title}")
        out.append("")
        if not rem[key]:
            out.append("- none")
        for entry in rem[key]:
            ids = ", ".join(entry["capec_ids"] if key == "test_cases" else entry["cwe_ids"])
            out.append(f"- [{ids}] {entry['text']}")
    out.append("")

    out.append("## Standards annotations (ISA/IEC 62443-4-1)")
    out.append("")
    for metric, tags in payload["annotations"].items():
        out.append(f"- {metric}: {', '.join(tags) if tags else '-'}")
    out.append("")
    return "\n".join(out)


def generate_report(tl: Timeline, catalog: Catalog, fmt: str = "markdown") -> str:
    """The full assessment document's text: :func:`render_markdown` of the
    :func:`report_payload` for ``markdown``, its :func:`indented_text` for
    ``json``."""
    render = {"json": indented_text, "markdown": render_markdown}.get(fmt)
    if render is None:
        raise ValueError(f"unknown report format {fmt!r}")
    return render(report_payload(tl, catalog))
