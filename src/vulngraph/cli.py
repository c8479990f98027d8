"""Command-line frontend.

All state lives in explicit files (catalog JSON, timeline JSON); every
subcommand is deterministic given the same inputs, except ``event --at now``
which reads the clock only when asked to.  Exit codes: 0 success, 1 an alert
fired, 2 usage or data error.

``main`` pauses Python's cyclic garbage collector while a command runs and
restores it on the way out, however the command ends.  That is safe because
no value a command builds is part of a reference cycle, so reference
counting frees every one of them; tests/test_cli.py pins it by counting the
unreachable objects each command leaves.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import catalog as catalog_mod
from . import cpe, graph, metrics, report, timeline as timeline_mod
from .errors import VulnGraphError
from .graph import ClusterRule
from .report import AlertRule, RenderOptions


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_catalog(path):
    """Load the catalog at ``path`` (None without one), printing its warnings."""
    if path is None:
        return None
    cat = catalog_mod.load_catalog(path)
    for line in cat.warnings:
        print(f"warning: {line}", file=sys.stderr)
    return cat


def _warn_stale(tl, cat, labels) -> None:
    """Warn of each snapshot among ``labels`` that does not match its digest
    and that a command will therefore rebuild from the log (with a catalog;
    a read without one refuses it)."""
    if cat is not None:
        for label in dict.fromkeys(labels):
            if label in tl.stale:
                print(f"warning: snapshot {label} does not match its digest; "
                      "rebuilding it from the log", file=sys.stderr)


def _snapshot(args):
    tl = timeline_mod.load_timeline(args.timeline)
    cat = _load_catalog(args.catalog)
    label = args.epoch
    if label is None and tl.epochs:
        label = tl.epochs[-1].label
    if label is None:
        raise VulnGraphError("timeline has no epochs; pass --epoch after marking one")
    _warn_stale(tl, cat, [label])
    return timeline_mod.epoch_snapshot(tl, cat, label)


def _resolve_at(value: str) -> str:
    if value == "now":
        from datetime import datetime, timezone

        return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return timeline_mod.validate_timestamp(value, "--at")


def _cluster_rule(args) -> ClusterRule | None:
    if args.cluster == "cvss-below":
        if args.threshold is None:
            raise VulnGraphError("cvss-below needs --threshold")
        return ClusterRule.cvss_below(args.threshold)
    if args.threshold is not None:
        raise VulnGraphError(f"--threshold applies only to cvss-below, not {args.cluster}")
    return None if args.cluster == "none" else ClusterRule.no_vulnerabilities()


# -- subcommand bodies -------------------------------------------------------


def _cmd_ingest(args) -> int:
    catalog_mod.check_date(args.snapshot_date, "--snapshot-date")
    records, warnings = catalog_mod.import_nvd_feed(args.feed, prefer_v3=not args.prefer_v2)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    cat = catalog_mod.records_to_catalog(records, snapshot_date=args.snapshot_date)
    if args.merge:
        cat = catalog_mod.merge_catalogs(_load_catalog(args.merge), cat)
    catalog_mod.save_catalog(cat, args.out)
    print(f"wrote {len(cat.vulnerabilities)} records to {args.out}")
    return 0


def _cmd_build(args) -> int:
    cat = _load_catalog(args.catalog)
    manifest = timeline_mod.load_manifest(args.manifest)
    at = _resolve_at(args.at)
    tl = timeline_mod.Timeline(
        sut_cpe=cpe.parse_formatted(args.sut), manifest=manifest, built_at=at
    )
    tl = timeline_mod.mark_epoch(tl, args.epoch, at)
    tl, (snapshot,) = timeline_mod.update_snapshots(tl, cat)
    timeline_mod.save_timeline(tl, args.out)
    rep = metrics.snapshot_report(snapshot)
    print(f"built {args.epoch}: {rep.n_assets} assets, {rep.m1} vulnerabilities -> {args.out}")
    return 0


def _cmd_event(args) -> int:
    if args.kind == "mark-epoch":
        if args.mark_epoch is None:
            raise VulnGraphError("--kind mark-epoch needs --mark-epoch LABEL")
        # An epoch mark carries no event, so a payload option would be dropped.
        given = [flag for flag, value in (
            ("--asset", args.asset), ("--cve", args.cve), ("--cpe", args.cpe),
            ("--fixes", args.fixes), ("--dep", args.dep), ("--top-level", args.top_level))
            if value]
        if given:
            raise VulnGraphError(f"--kind mark-epoch takes no {', '.join(given)}")
    tl = timeline_mod.load_timeline(args.timeline)
    cat = _load_catalog(args.catalog)
    at = _resolve_at(args.at)
    if args.kind != "mark-epoch":
        for pair in args.dep or []:
            if ":" not in pair:
                raise VulnGraphError(f"--dep wants SRC:DST, got {pair!r}")
        dependencies = tuple(tuple(pair.split(":", 1)) for pair in args.dep or [])
        event = timeline_mod.LifecycleEvent(
            at=at,
            seq=0,
            kind=args.kind.replace("-", "_"),
            asset_id=args.asset,
            cve_id=args.cve,
            cpe_value=cpe.parse_formatted(args.cpe) if args.cpe else None,
            dependencies=dependencies,
            top_level=args.top_level,
            fixes=tuple(c.strip() for c in (args.fixes or "").split(",") if c.strip()),
        )
        tl = timeline_mod.append_event(tl, event)
    if args.mark_epoch is not None:
        tl = timeline_mod.mark_epoch(tl, args.mark_epoch, at)
    # The verified epochs are released history and are kept as stored; the
    # replay from the last of them applies the events after its mark, the new
    # one among them, which validates it against the catalog.
    _warn_stale(tl, cat, tl.epoch_labels())
    tl, _ = timeline_mod.update_snapshots(tl, cat)
    timeline_mod.save_timeline(tl, args.out or args.timeline)
    print(f"appended {args.kind} at {at}")
    return 0


def _cmd_metrics(args) -> int:
    g = _snapshot(args)
    rep = metrics.snapshot_report(g)
    _write(catalog_mod.indented_text(rep.to_dict()) if args.json else rep.to_text(),
           args.out)
    return 0


def _cmd_prioritize(args) -> int:
    g = _snapshot(args)
    grouping = "global" if args.global_order else "by_asset"
    rows = metrics.prioritize(g, args.min, args.max, grouping)
    if args.json:
        _write(catalog_mod.indented_text(report._priority_rows(rows)), args.out)
    else:
        lines = [f"{'CVE':<18} {'CVSS':>5}  ASSET"]
        for r in rows:
            mark = " (exploit)" if r.exploit_available else ""
            lines.append(f"{r.cve_id:<18} {r.cvss:>5.1f}  {r.asset_id}{mark}")
        _write("\n".join(lines), args.out)
    return 0


def _cmd_impact(args) -> int:
    g = _snapshot(args)
    affected = sorted(graph.impact_set(g, args.cve))
    _write("\n".join(affected) if affected else "(no active asset affected)", args.out)
    return 0


def _cmd_export(args) -> int:
    """``export``, and ``cluster``, which is ``export`` with a criterion required."""
    rule = _cluster_rule(args)
    g = _snapshot(args)
    scope = None if args.scope is None else tuple(args.scope.split(","))
    for asset_id in scope or ():
        if g.active_node(asset_id) is None:
            raise VulnGraphError(f"--scope names {asset_id!r}, which is no active asset "
                                 f"of epoch {g.epoch}")
    opts = RenderOptions(
        cluster_rule=rule,
        cluster_scope=scope,
        show_deprecated=args.show_deprecated,
        verbosity="full" if args.full_labels else "id",
    )
    _write(report.export_dot(g, opts), args.out)
    return 0


def _cmd_report(args) -> int:
    tl = timeline_mod.load_timeline(args.timeline)
    cat = _load_catalog(args.catalog)
    _warn_stale(tl, cat, tl.epoch_labels())
    _write(report.generate_report(tl, cat, args.format), args.out)
    return 0


def _cmd_alerts(args) -> int:
    if args.cvss_at_least is None and not args.metric_bound:
        # No rule could ever fire, so a CI gate on this would always pass.
        raise VulnGraphError("alerts needs --cvss-at-least or --metric-bound")
    g = _snapshot(args)
    rules = []
    if args.cvss_at_least is not None:
        rules.append(AlertRule.cvss_at_least(args.cvss_at_least))
    for spec_text in args.metric_bound or []:
        try:
            metric, comparator, value = spec_text.split(":")
            value = float(value)
        except ValueError as exc:
            raise VulnGraphError(f"--metric-bound wants METRIC:CMP:VALUE, got {spec_text!r} "
                                 f"({type(exc).__name__}: {exc})") from None
        rules.append(AlertRule.metric_bound(metric, comparator, value))
    firings = report.check_alerts(g, rules)
    for firing in firings:
        print(f"[{firing.rule.severity}] {firing.message}")
    if not firings:
        print("no alerts")
    return 1 if firings else 0


def _cmd_diff(args) -> int:
    tl = timeline_mod.load_timeline(args.timeline)
    cat = _load_catalog(args.catalog)
    _warn_stale(tl, cat, [args.from_epoch, args.to_epoch])
    delta = report.epoch_diff(tl, cat, args.from_epoch, args.to_epoch)
    if args.json:
        _write(catalog_mod.indented_text(delta), args.out)
        return 0
    lines = []
    for key in ("assets_added", "assets_removed", "vulns_added", "vulns_fixed"):
        lines.append(f"{key}: {', '.join(delta[key]) if delta[key] else '-'}")
    _write("\n".join(lines), args.out)
    return 0


# -- parser -------------------------------------------------------------------


def _add_snapshot_args(p):
    p.add_argument("--timeline", required=True, help="timeline JSON file")
    p.add_argument("--catalog", help="catalog JSON file (optional when snapshots are embedded)")
    p.add_argument("--epoch", help="epoch label (default: the latest)")
    p.add_argument("--out", help="write output here instead of stdout")


def _ingest_args(p):
    p.add_argument("--feed", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snapshot-date", default="1999-01-01")
    p.add_argument("--prefer-v2", action="store_true",
                   help="prefer CVSS v2 base scores over v3")
    p.add_argument("--merge", help="merge into an existing catalog file")
    p.set_defaults(fn=_cmd_ingest)


def _build_args(p):
    p.add_argument("--sut", required=True, help="CPE 2.3 name of the system under test")
    p.add_argument("--manifest", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--at", required=True, help="ISO 8601 UTC timestamp or 'now'")
    p.add_argument("--epoch", default="V1", help="label of the initial epoch")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_build)


def _event_args(p):
    p.add_argument("--timeline", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--kind", required=True,
                   choices=[k.replace("_", "-") for k in timeline_mod.EVENT_KINDS]
                   + ["mark-epoch"])
    p.add_argument("--at", required=True, help="ISO 8601 UTC timestamp or 'now'")
    p.add_argument("--asset")
    p.add_argument("--cve")
    p.add_argument("--cpe")
    p.add_argument("--fixes", help="comma-separated CVE ids fixed by an update")
    p.add_argument("--dep", action="append", metavar="SRC:DST",
                   help="dependency pair for asset-added (repeatable)")
    p.add_argument("--top-level", action="store_true")
    p.add_argument("--mark-epoch", metavar="LABEL",
                   help="also mark an epoch at the same timestamp "
                        "(the label to mark with --kind mark-epoch)")
    p.add_argument("--out", help="write here instead of updating in place")
    p.set_defaults(fn=_cmd_event)


def _metrics_args(p):
    _add_snapshot_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_metrics)


def _prioritize_args(p):
    _add_snapshot_args(p)
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=10.0)
    p.add_argument("--global", dest="global_order", action="store_true",
                   help="one flat queue instead of per-asset groups")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_prioritize)


def _cluster_args(p):
    _add_snapshot_args(p)
    p.add_argument("--criterion", dest="cluster", choices=["no-vulns", "cvss-below"],
                   required=True)
    p.add_argument("--threshold", type=float, help="CVSS bound of cvss-below (required there)")
    p.add_argument("--scope", help="comma-separated asset ids to consider")
    p.add_argument("--show-deprecated", action="store_true")
    p.set_defaults(fn=_cmd_export, full_labels=False)


def _impact_args(p):
    _add_snapshot_args(p)
    p.add_argument("--cve", required=True)
    p.set_defaults(fn=_cmd_impact)


def _export_args(p):
    _add_snapshot_args(p)
    p.add_argument("--cluster", choices=["none", "no-vulns", "cvss-below"], default="none")
    p.add_argument("--threshold", type=float, help="CVSS bound of cvss-below (required there)")
    p.add_argument("--show-deprecated", action="store_true")
    p.add_argument("--full-labels", action="store_true")
    p.set_defaults(fn=_cmd_export, scope=None)


def _report_args(p):
    p.add_argument("--timeline", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--format", choices=["markdown", "json"], default="markdown")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_report)


def _alerts_args(p):
    _add_snapshot_args(p)
    p.add_argument("--cvss-at-least", type=float)
    p.add_argument("--metric-bound", action="append", metavar="METRIC:CMP:VALUE",
                   help="e.g. M0:>=:1.0 (repeatable)")
    p.set_defaults(fn=_cmd_alerts)


def _diff_args(p):
    p.add_argument("--timeline", required=True)
    p.add_argument("--catalog")
    p.add_argument("--from-epoch", required=True)
    p.add_argument("--to-epoch", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_diff)


# name -> (help, adds the arguments), in the order ``-h`` lists them.
SUBCOMMANDS = {
    "ingest": ("convert an NVD 1.1 feed to a canonical catalog", _ingest_args),
    "build": ("build a timeline from a manifest and catalog", _build_args),
    "event": ("append a lifecycle event", _event_args),
    "metrics": ("print the metric table for one epoch", _metrics_args),
    "prioritize": ("CVSS-sorted patch queue", _prioritize_args),
    "cluster": ("export DOT with a clustering applied", _cluster_args),
    "impact": ("assets reached by exploiting a CVE", _impact_args),
    "export": ("export one epoch as Graphviz DOT", _export_args),
    "report": ("full assessment report", _report_args),
    "alerts": ("evaluate alert rules (exit 1 when any fires)", _alerts_args),
    "diff": ("asset/vulnerability delta between two epochs", _diff_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand's, or only ``command``'s.

    The parser of one subcommand parses an argv that starts with it as the
    full parser does, at a fraction of the cost to build.  Its usage line
    spells the subcommand list as the full parser's does.  The full parser
    keeps no metavar: argparse names the subcommand action by it in the
    "required" and "invalid choice" errors, which only that parser prints.
    """
    parser = argparse.ArgumentParser(prog="vulngraph", description=__doc__.split("\n\n")[0])
    metavar = None
    if command is not None:
        metavar = "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_args) in SUBCOMMANDS.items():
        if command is None or name == command:
            add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    # The values a command builds hold no reference cycle, so reference
    # counting frees them all; the cyclic collector would only walk them.
    # A caller that had it off keeps it off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only a known subcommand gets its own parser: help, usage errors and an
    # unknown command need the full one to print what they print.
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep that contract
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (VulnGraphError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
