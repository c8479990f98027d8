"""Quantitative metric suite over snapshots and timelines.

All metrics measure the active configuration, read from
:func:`graph.active_subgraph`: deprecated assets and edges never count, and a
clustering changes no metric, since it changes no node or edge.  Per-epoch
values (M0, M1, M3..M7) take one snapshot; the accumulated values (M2, M8 and
the lifetime weakness frequency) sum over the timeline's named epochs.

Counting rules: a CVE shared by several assets counts once in the system
union (M1, M6, M7) but once per asset in the per-asset sums (the M4
denominator); a CVE with several associated weaknesses counts once per
distinct weakness in M5/M6.  The ``CWE-NULL`` sentinel is an ordinary
weakness id here (it has its own row in the weakness tables) and is only
excluded from remediation joins.

Internal values are unrounded; display rounding is two decimals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import fixtures
from .catalog import CWE_NULL, Catalog, _id_sort_key
from .errors import NoAssets, NoVulnerabilities, UnknownAsset, UnknownMetric
from .graph import Edg, active_subgraph
from .timeline import Timeline, epoch_snapshots

METRIC_IDS = tuple(f"M{i}" for i in range(9))
#: The metrics that are one number per snapshot, as :meth:`MetricReport.scalar` reads them.
SCALAR_METRICS = ("M0", "M1", "M7")


def n_assets(g: Edg) -> int:
    return snapshot_report(g).n_assets


def m1(g: Edg) -> int:
    """Number of vulnerabilities in the system: size of the union of the
    per-asset CVE sets."""
    return snapshot_report(g).m1


def m0(g: Edg) -> float:
    """Arithmetic mean of vulnerabilities per asset."""
    return snapshot_report(g).scalar("M0")


def _asset_report(g: Edg, asset_id: str) -> MetricReport:
    report = snapshot_report(g)
    if asset_id not in report.m3_by_asset:
        raise UnknownAsset(asset_id)
    return report


def m3(g: Edg, asset_id: str) -> int:
    """Number of vulnerabilities attached to one asset."""
    return _asset_report(g, asset_id).m3_by_asset[asset_id]


def m4(g: Edg, asset_id: str) -> float:
    """Relative frequency: the asset's count over the per-asset sum (which
    exceeds the union when assets share a CVE)."""
    report = _asset_report(g, asset_id)
    if report.m1 == 0:
        raise NoVulnerabilities("relative frequency undefined without vulnerabilities")
    return report.m4_by_asset[asset_id]


def m5(g: Edg, asset_id: str, cwe_id: str) -> int:
    """Multiplicity of one weakness among one asset's vulnerabilities."""
    return _asset_report(g, asset_id).m5_by_asset_cwe.get(asset_id, {}).get(cwe_id, 0)


def m6(g: Edg, cwe_id: str) -> int:
    """Multiplicity of one weakness among the system's vulnerabilities
    (union-counted across assets)."""
    return snapshot_report(g).m6_by_cwe.get(cwe_id, 0)


def m7(g: Edg) -> int:
    """Number of distinct weaknesses in the system."""
    return snapshot_report(g).m7


def m2(tl: Timeline, catalog: Catalog | None = None) -> int:
    """Vulnerabilities accumulated over the named epochs (sum, not union)."""
    return lifecycle_report(tl, catalog).m2


def m8(tl: Timeline, catalog: Catalog | None = None, mode: str = "union") -> int:
    """Weaknesses over the whole life cycle.

    ``union`` counts distinct weakness ids across epochs; ``sum`` adds up the
    per-epoch M7 values.  Union is the default and is never larger than sum.
    """
    if mode not in ("union", "sum"):
        raise ValueError(f"mode must be 'union' or 'sum', not {mode!r}")
    life = lifecycle_report(tl, catalog)
    return life.m8_union if mode == "union" else life.m8_sum


def lifecycle_weakness_frequency(tl: Timeline, catalog: Catalog | None = None) -> dict[str, int]:
    """Per-weakness sum of M6 over the named epochs, most frequent first."""
    return lifecycle_report(tl, catalog).weakness_frequency


# ---------------------------------------------------------------------------
# prioritization


@dataclass(frozen=True)
class PrioritizedVulnerability:
    cve_id: str
    cvss: float
    asset_id: str
    exploit_available: bool
    rank: int


def prioritize(
    g: Edg,
    min_cvss: float = 0.0,
    max_cvss: float = 10.0,
    grouping: str = "by_asset",
) -> list[PrioritizedVulnerability]:
    """Patch queue of the active vulnerabilities scoring inside
    ``[min_cvss, max_cvss]``.

    ``by_asset`` groups rows by asset (assets in manifest/creation order),
    ``global`` is one flat list; either way rows sort by descending CVSS with
    ties broken exploit-available first, then ascending CVE id.  ``rank`` is
    the dense rank of the score inside its group, so every top-score entry is
    rank 1.
    """
    if not 0.0 <= min_cvss <= max_cvss <= 10.0:
        raise ValueError(f"need 0 <= min <= max <= 10, got [{min_cvss}, {max_cvss}]")
    if grouping not in ("by_asset", "global"):
        raise ValueError(f"grouping must be 'by_asset' or 'global', not {grouping!r}")
    return _prioritize(active_subgraph(g), min_cvss, max_cvss, grouping)


def _prioritize(
    active: Edg, min_cvss: float, max_cvss: float, grouping: str
) -> list[PrioritizedVulnerability]:
    # The body of prioritize, on an active view the caller already holds.
    cves_of = active.cves_of
    rows: list[tuple[int, str, object]] = []
    for asset in active.active_assets():
        for cve_id in cves_of.get(asset.node_id, ()):
            vuln = active.vulns[cve_id]
            if min_cvss <= vuln.cvss <= max_cvss:
                rows.append((asset.order, asset.asset_id, vuln))

    def row_sort(row):
        order, asset_id, vuln = row
        group = (order, asset_id) if grouping == "by_asset" else (0, "")
        return group + (-vuln.cvss, not vuln.exploit_available, vuln.cve_id)

    rows.sort(key=row_sort)

    out: list[PrioritizedVulnerability] = []
    group_key = None
    rank = 0
    last_cvss = None
    for order, asset_id, vuln in rows:
        key = (order, asset_id) if grouping == "by_asset" else 0
        if key != group_key:
            group_key, rank, last_cvss = key, 0, None
        if vuln.cvss != last_cvss:
            rank += 1
            last_cvss = vuln.cvss
        out.append(
            PrioritizedVulnerability(
                cve_id=vuln.cve_id,
                cvss=vuln.cvss,
                asset_id=asset_id,
                exploit_available=vuln.exploit_available,
                rank=rank,
            )
        )
    return out


# ---------------------------------------------------------------------------
# ISA/IEC 62443 requirement annotations


@functools.cache
def _iec62443_mapping() -> dict[str, frozenset[str]]:
    import csv

    with open(fixtures.iec62443_mapping_path(), newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        tags = [name for name in reader.fieldnames if name != "metric"]
        return {row["metric"]: frozenset(t for t in tags if row[t].strip() == "1")
                for row in reader}


def iec62443_annotations(metric_id: str) -> frozenset[str]:
    """Requirement tags a metric supports, from the bundled mapping table."""
    metric_id = metric_id.upper()
    if metric_id not in METRIC_IDS:
        raise UnknownMetric(metric_id)
    return _iec62443_mapping()[metric_id]


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricReport:
    """Per-epoch values: scalars plus the per-asset and per-weakness maps."""

    epoch: str | None
    checked_at: str
    n_assets: int
    m0: float | None
    m1: int
    m7: int
    m3_by_asset: dict[str, int] = field(default_factory=dict)
    m4_by_asset: dict[str, float] = field(default_factory=dict)
    m5_by_asset_cwe: dict[str, dict[str, int]] = field(default_factory=dict)
    m6_by_cwe: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "checked_at": self.checked_at,
            "n_assets": self.n_assets,
            "m0": self.m0,
            "m1": self.m1,
            "m7": self.m7,
            "m3_by_asset": dict(self.m3_by_asset),
            "m4_by_asset": dict(self.m4_by_asset),
            "m5_by_asset_cwe": {a: dict(m) for a, m in self.m5_by_asset_cwe.items()},
            "m6_by_cwe": dict(self.m6_by_cwe),
        }

    def to_text(self) -> str:
        return _render_metric_table(self)

    def scalar(self, metric_id: str) -> float:
        """The value of one of the :data:`SCALAR_METRICS`."""
        if metric_id not in SCALAR_METRICS:
            raise UnknownMetric(f"{metric_id} is not one of {', '.join(SCALAR_METRICS)}")
        if metric_id == "M0" and self.m0 is None:
            raise NoAssets("mean undefined on a graph with no active assets")
        return getattr(self, metric_id.lower())


def _by_cwe(counts: dict[str, int]) -> dict[str, int]:
    return dict(sorted(counts.items(), key=lambda kv: _id_sort_key(kv[0])))


def snapshot_report(g: Edg) -> MetricReport:
    """M0, M1 and M3..M7 of one snapshot, from its active view."""
    return _snapshot_report(active_subgraph(g))


def _snapshot_report(active: Edg) -> MetricReport:
    # The body of snapshot_report, on an active view the caller already
    # holds; the view keeps the snapshot's epoch and root.
    cves_of = active.cves_of
    m3_map: dict[str, int] = {}
    m5_map: dict[str, dict[str, int]] = {}
    for asset in active.active_assets():
        cves = cves_of.get(asset.node_id, ())
        m3_map[asset.asset_id] = len(cves)
        per_cwe: dict[str, int] = {}
        for cve_id in cves:
            for cwe_id in dict.fromkeys(active.vulns[cve_id].cwe_ids):
                per_cwe[cwe_id] = per_cwe.get(cwe_id, 0) + 1
        if per_cwe:
            m5_map[asset.asset_id] = _by_cwe(per_cwe)
    m6_map: dict[str, int] = {}
    for v in active.vulns.values():
        for cwe_id in dict.fromkeys(v.cwe_ids):
            m6_map[cwe_id] = m6_map.get(cwe_id, 0) + 1
    n = len(active.assets)
    total = sum(m3_map.values())
    return MetricReport(
        epoch=active.epoch,
        checked_at=active.root.checked_at,
        n_assets=n,
        m0=(len(active.vulns) / n) if n else None,
        m1=len(active.vulns),
        m7=len(m6_map),
        m3_by_asset=m3_map,
        m4_by_asset={a: (c / total if total else 0.0) for a, c in m3_map.items()},
        m5_by_asset_cwe=m5_map,
        m6_by_cwe=_by_cwe(m6_map),
    )


@dataclass
class LifecycleReport:
    """Accumulated values over the named epochs."""

    epoch_labels: list[str]
    m2: int
    m8_union: int
    m8_sum: int
    weakness_frequency: dict[str, int]
    per_epoch: list[MetricReport] = field(default_factory=list)

    def to_text(self) -> str:
        lines = []
        for report in self.per_epoch:
            lines.append(report.to_text())
            lines.append("")
        lines.append(f"M2 (accumulated vulnerabilities) = {self.m2}")
        lines.append(f"M8 (lifecycle weaknesses, union) = {self.m8_union}")
        lines.append(f"M8 (lifecycle weaknesses, sum)   = {self.m8_sum}")
        lines.append("weakness frequency over the life cycle:")
        for cwe_id, count in self.weakness_frequency.items():
            lines.append(f"  {cwe_id}: {count}")
        return "\n".join(lines)


def lifecycle_report(tl: Timeline, catalog: Catalog | None = None) -> LifecycleReport:
    """M2, M8 and the weakness frequency over the named epochs."""
    reports = [snapshot_report(g) for g in epoch_snapshots(tl, catalog)]
    return _lifecycle(tl.epoch_labels(), reports)


def _lifecycle(epoch_labels: list[str], reports: list[MetricReport]) -> LifecycleReport:
    # Shared with report_payload, which already holds the per-epoch reports.
    totals: dict[str, int] = {}
    for report in reports:
        for cwe_id, count in report.m6_by_cwe.items():
            totals[cwe_id] = totals.get(cwe_id, 0) + count
    return LifecycleReport(
        epoch_labels=epoch_labels,
        m2=sum(r.m1 for r in reports),
        m8_union=len(totals),
        m8_sum=sum(r.m7 for r in reports),
        weakness_frequency=dict(
            sorted(totals.items(), key=lambda kv: (-kv[1], _id_sort_key(kv[0])))
        ),
        per_epoch=reports,
    )


# ---------------------------------------------------------------------------
# plain-text rendering (assets as columns, metrics as rows)


def fmt2(value: float) -> str:
    return f"{value:.2f}"


def _render_metric_table(report: MetricReport) -> str:
    # Columns: assets that carry vulnerabilities, then the rest folded into
    # an "others" column, mirroring the usual presentation.
    vulnerable = [a for a, c in report.m3_by_asset.items() if c > 0]
    columns = vulnerable + ["others"]
    others_m3 = sum(c for a, c in report.m3_by_asset.items() if a not in vulnerable)
    others_m4 = sum(v for a, v in report.m4_by_asset.items() if a not in vulnerable)

    header = ["metric"] + columns
    rows: list[list[str]] = []
    span = len(columns)

    def spanned(label: str, value: str):
        rows.append([label, value] + [""] * (span - 1))

    spanned("n(t)", str(report.n_assets))
    spanned("M0", fmt2(report.m0) if report.m0 is not None else "-")
    spanned("M1", str(report.m1))
    rows.append(
        ["M3"] + [str(report.m3_by_asset[a]) for a in vulnerable] + [str(others_m3)]
    )
    rows.append(
        ["M4"] + [fmt2(report.m4_by_asset[a]) for a in vulnerable] + [fmt2(others_m4)]
    )
    all_cwes = sorted(report.m6_by_cwe, key=_id_sort_key)
    for cwe_id in all_cwes:
        cells = []
        for a in vulnerable:
            count = report.m5_by_asset_cwe.get(a, {}).get(cwe_id, 0)
            cells.append(str(count) if count else "-")
        rows.append([f"M5 {cwe_id}"] + cells + ["-"])
    for cwe_id in all_cwes:
        spanned(f"M6 {cwe_id}", str(report.m6_by_cwe[cwe_id]))
    spanned("M7", str(report.m7))

    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = [f"epoch {report.epoch or '-'}  checked {report.checked_at}"]
    out.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
    for row in rows:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(out)
