"""Span tracing of the vulngraph layers, installed from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``SPANS`` and ``COUNTERS`` with wrappers; ``uninstall()`` puts the originals
back.  A function imported by name into another module (``report`` calls
``epoch_snapshots`` through its own global, for instance) is patched in every
``vulngraph`` module that holds it, and methods are patched on their class,
so every call site resolves to the wrapper.

A span records ``(key, start_ns, end_ns, parent, op)``.  Spans stay in memory;
``aggregate()`` computes each span's self time (its duration minus the
durations of its direct children) once tracing is over.  Hot leaf functions
(``applies_to``, ``cpe.matches``, ``cpe.bind_formatted``) are counted only:
a span each would cost more than the work, and their time stays in the
enclosing span (``catalog.lookup`` or the serializer).
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

from vulngraph import catalog, cli, cpe, graph, metrics, report, timeline

# (owner, attribute, span key).  Keys name the metric that gets the span's
# self time; the layer is the part before the first dot.
SPANS = [
    (cli, "main", "cli.main"),
    (cli, "build_parser", "cli.parser"),
    (cpe, "parse_formatted", "cpe.parse"),
    (catalog, "load_catalog", "catalog.load"),
    (catalog, "catalog_from_dict", "catalog.load"),
    (catalog.Catalog, "lookup_vulnerabilities", "catalog.lookup"),
    (catalog.Catalog, "capec_ids_for_cwes", "catalog.other"),
    (catalog.Catalog, "remediation_for_weaknesses", "catalog.other"),
    (timeline, "load_timeline", "timeline.load"),
    (timeline, "timeline_from_dict", "timeline.load"),
    (timeline, "load_manifest", "timeline.load"),
    (timeline, "manifest_from_dict", "timeline.load"),
    (timeline, "save_timeline", "timeline.save"),
    (timeline, "timeline_to_dict", "timeline.save"),
    (timeline, "canonical_json", "timeline.save"),
    (timeline, "embed_snapshots", "timeline.embed"),
    (timeline, "replay", "timeline.replay"),
    (timeline, "apply_event", "timeline.apply"),
    (timeline, "append_event", "timeline.other"),
    (timeline, "mark_epoch", "timeline.other"),
    (timeline, "snapshot_at", "timeline.other"),
    (timeline, "epoch_snapshot", "timeline.epoch_snapshot"),
    (timeline, "epoch_snapshots", "timeline.other"),
    (graph, "build_edg", "graph.build"),
    (graph, "add_asset", "graph.lifecycle"),
    (graph, "discover_vuln", "graph.lifecycle"),
    (graph, "patch_vuln", "graph.lifecycle"),
    (graph, "update_asset", "graph.lifecycle"),
    (graph, "retire_asset", "graph.lifecycle"),
    (graph.Edg, "clone", "graph.clone"),
    (graph.Edg, "active_cves_of", "graph.active_cves"),
    (graph.Edg, "active_vulns", "graph.other"),
    (graph.Edg, "active_assets", "graph.other"),
    (graph.Edg, "lineage", "graph.other"),
    (graph.Edg, "active_node", "graph.other"),
    (graph, "active_subgraph", "graph.active_subgraph"),
    (graph, "impact_set", "graph.impact"),
    (graph, "cluster_by", "graph.cluster"),
    (graph, "expand_clusters", "graph.other"),
    (graph, "edg_to_dict", "graph.to_dict"),
    (graph, "edg_from_dict", "graph.from_dict"),
    (metrics, "snapshot_report", "metrics.snapshot_report"),
    (metrics, "lifecycle_report", "metrics.lifecycle_report"),
    (metrics, "prioritize", "metrics.prioritize"),
    (metrics, "m0", "metrics.other"),
    (metrics, "m1", "metrics.other"),
    (metrics, "m7", "metrics.other"),
    (metrics, "iec62443_annotations", "metrics.other"),
    (metrics.MetricReport, "to_dict", "metrics.other"),
    (metrics.MetricReport, "to_text", "metrics.other"),
    (report, "export_dot", "report.export_dot"),
    (report, "check_alerts", "report.check_alerts"),
    (report, "epoch_diff", "report.epoch_diff"),
    (report, "report_payload", "report.payload"),
    (report, "render_markdown", "report.render_markdown"),
    (report, "generate_report", "report.other"),
]

# (owner, attribute, counter key); a result that is truthy also bumps
# ``<key>_true``.
COUNTERS = [
    (catalog.VulnerabilityRecord, "applies_to", "catalog.applies_to"),
    (cpe, "matches", "cpe.matches"),
    (cpe, "bind_formatted", "cpe.bind"),
]

_MODULES = [m for name, m in sorted(sys.modules.items())
            if name == "vulngraph" or name.startswith("vulngraph.")]


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[int, dict[str, int]] = {}  # op -> key -> count
        self.op = -1  # index of the CLI operation now running
        self.cur: dict[str, int] = {}  # counts of the running op
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (namespace, attribute, original)

    def set_op(self, op: int) -> None:
        self.op = op
        self.cur = self.counts.setdefault(op, {})

    # -- wrappers ------------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, key: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (key, start, end,
                           self._stack[-1] if self._stack else -1, self.op)

    def _span(self, fn, key: str):
        tracer = self
        extra = _EXTRA.get(key)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts = tracer.cur
                counts[key] = counts.get(key, 0) + 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open()
                    start = perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, key, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.cur
            counts[key] = counts.get(key, 0) + 1
            if extra is not None:
                extra(counts, args, kwargs)
            idx = tracer._open()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, key, start)
        return wrapper

    def _counter(self, fn, key: str):
        tracer = self
        true_key = key + "_true"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = tracer.cur
            counts[key] = counts.get(key, 0) + 1
            if result:
                counts[true_key] = counts.get(true_key, 0) + 1
            return result
        return wrapper

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for owner, attr, key in table:
                original = owner.__dict__[attr]
                wrapper = make(original, key)
                replaced[id(original)] = (original, wrapper)
                if isinstance(owner, type):
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        # Module-level functions: patch every module namespace holding one.
        for module in _MODULES:
            namespace = module.__dict__
            for attr, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def aggregate(self):
        """Return ``(self_ns, incl_ns)``, nanoseconds keyed by ``(op, span key)``.

        ``incl_ns`` sums durations of spans with no ancestor of the same key,
        so recursion through one key is not double counted.
        """
        child_ns = [0] * len(self.spans)
        for key, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict = {}
        incl_ns: dict = {}
        for i, (key, start, end, parent, op) in enumerate(self.spans):
            k = (op, key)
            self_ns[k] = self_ns.get(k, 0) + (end - start - child_ns[i])
            p = parent
            while p >= 0 and self.spans[p][0] != key:
                p = self.spans[p][3]
            if p < 0:
                incl_ns[k] = incl_ns.get(k, 0) + (end - start)
        return self_ns, incl_ns


def _count_epoch_snapshot(counts, args, kwargs):
    tl, label = args[0], args[2] if len(args) > 2 else kwargs["label"]
    key = ("timeline.snapshot_embedded" if label in tl.snapshots
           else "timeline.snapshot_replayed")
    counts[key] = counts.get(key, 0) + 1


def _count_clone(counts, args, kwargs):
    g = args[0]
    counts["graph.clone_items"] = counts.get("graph.clone_items", 0) + (
        len(g.assets) + len(g.vulns) + len(g.edges) + len(g.clusters))


_EXTRA = {
    "timeline.epoch_snapshot": _count_epoch_snapshot,
    "graph.clone": _count_clone,
}

