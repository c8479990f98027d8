"""The dependency-graph core.

A snapshot (:class:`Edg`) is a typed directed graph with one root node (the
system under test), asset nodes and known-vulnerability nodes, joined by
``normal`` and ``deprecated`` edges of the three shapes the lifecycle
makes: root -> top-level asset, asset -> asset it depends on and asset ->
its vulnerability.  Edges are stored as drawn; impact queries traverse
against that direction.  A clustering (:func:`cluster_by`) maps member
nodes to group ids, which the DOT export draws as single nodes.

A lifecycle operation (:func:`add_asset`, :func:`update_asset`,
:func:`retire_asset`, :func:`patch_vuln`, :func:`discover_vuln`) edits the
graph it is given and returns it; one that raises leaves the graph
unchanged.  A caller that wants to keep a state clones it first
(:meth:`Edg.clone`).  A replay advances one working graph this way.  A pass
that applies two or more events indexes its edges by node
(:meth:`Edg.build_index`) so that each event looks up the edges it touches
instead of scanning every edge; one event scans them for less than the
index costs.  An asset's version nodes and active node are read by node
id, on every graph alike.  Every other operation leaves its input unchanged.

Asset identity is a stable opaque token (``asset_id``) that survives version
updates; each update adds a new version node (``asset_id@k``) whose
``cpe_previous`` points at the replaced version, forming the traceable
version chain ``asset_id@0`` ... ``asset_id@k``; only the newest can be
active.  Updating or retiring an asset flips its dependency edges to
``deprecated``; a vulnerability edge on the replaced version stays ``normal``
unless the update fixed that vulnerability.  Deprecated versions are kept in
the graph for history; :func:`active_subgraph` alone decides what is active,
and metrics, clustering and impact queries all read its view.

The nodes, the :class:`Edge`, the manifest and the :class:`ClusterRule` are
tuples of their fields, so a decode builds each one with a single
``tuple.__new__`` call, and a set of edges hashes and compares them in
tuple's C code.  An :class:`Edge` is ``(source, target, kind)``, so sorting
edges sorts them by source, then target, then kind.  A value compares as its
plain tuple; the package only ever compares values of one type.  Hot loops
over the edges read their fields by position (``e[0]``, ``e[1]``, ``e[2]``),
about 4% faster than by name on Python 3.11, which specializes neither
attribute reads nor subscripts on a tuple subclass: reading two fields of
2,000 edges took 60.1 ns per edge by position and 62.6 ns by name (41.7 ns
on plain tuples; ``timeit``, best of 9, a 2-vCPU x86-64 host).  The rest of
the code reads fields by name.  :meth:`_replace` makes a copy of
a value with some fields changed.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from sys import intern
from types import MappingProxyType

from . import cpe
from .catalog import _CAPEC_RE, _CVE_RE, _CWE_RE, Catalog, VulnerabilityRecord
from .cpe import WellFormedName
from .errors import (
    DuplicateId,
    EmptyManifest,
    SchemaError,
    SelfSucc,
    UnknownAsset,
    UnknownCve,
    UnknownDependencyTarget,
)

NORMAL = "normal"
DEPRECATED = "deprecated"

#: Node id of the root in the edge set (asset node ids always contain '@').
ROOT_ID = "root"

_KINDS = {NORMAL: NORMAL, DEPRECATED: DEPRECATED}  # a decoded edge holds the constant
_VERSION_RE = re.compile(r"0|[1-9][0-9]*")  # the k of an asset's node id asset_id@k


class RootNode(namedtuple("RootNode", ["sut_cpe", "checked_at"])):
    """The system under test's CPE name and the time the snapshot was last
    checked, as the tuple ``(sut_cpe, checked_at)``."""

    __slots__ = ()


class AssetNode(namedtuple("AssetNode", ["node_id", "asset_id", "order", "cpe_current",
                                         "cpe_previous", "deprecated"],
                           defaults=[None, False])):
    """One version of an asset: its node id ``asset_id@k``, the asset id, its
    manifest order, the CPE name of this version and of the version it
    replaced, and whether a later version or a retirement deprecated it."""

    __slots__ = ()


class VulnNode(namedtuple("VulnNode", ["cve_id", "cvss", "cwe_ids", "capec_ids",
                                       "exploit_available"], defaults=[(), False])):
    """One known vulnerability: its CVE id, CVSS base score, CWE ids, the
    CAPEC ids linked to those and whether an exploit is known."""

    __slots__ = ()


#: A directed edge: node ids ``source`` and ``target`` and its ``kind``,
#: :data:`NORMAL` unless given.
Edge = namedtuple("Edge", ["source", "target", "kind"], defaults=[NORMAL])

# Builds a value from a tuple in one C call, without the generated
# ``__new__``'s Python frame.
_new = tuple.__new__


class ManifestEntry(namedtuple("ManifestEntry", ["asset_id", "cpe"])):
    """One asset of a manifest: its id and CPE name."""

    __slots__ = ()


class Manifest(namedtuple("Manifest", ["entries", "dependencies"], defaults=[()])):
    """The assets of a build (:class:`ManifestEntry`) and its dependency
    pairs ``(dependant, dependency)`` of asset ids."""

    __slots__ = ()


class ClusterRule(namedtuple("ClusterRule", ["kind", "threshold"], defaults=[0.0])):
    """Grouping criterion: assets with no vulnerabilities, or whose attached
    vulnerabilities all score strictly below a threshold.  ``kind`` is
    ``no_vulnerabilities`` or ``cvss_below``."""

    __slots__ = ()

    @classmethod
    def no_vulnerabilities(cls) -> "ClusterRule":
        return cls(kind="no_vulnerabilities")

    @classmethod
    def cvss_below(cls, threshold: float) -> "ClusterRule":
        if not 0.0 <= threshold <= 10.0:
            raise ValueError(f"threshold {threshold} outside [0, 10]")
        return cls(kind="cvss_below", threshold=threshold)


class Edg:
    """One timestamped graph snapshot."""

    __slots__ = ("root", "epoch", "assets", "vulns", "edges", "_incident", "cves_of")
    # Empty and shared by every snapshot: perfbench/spans.py's _count_clone reads it.
    clusters = MappingProxyType({})

    def __init__(self, root: RootNode, epoch: str | None = None,
                 assets: dict[str, AssetNode] | None = None,
                 vulns: dict[str, VulnNode] | None = None,
                 edges: set[Edge] | None = None):
        self.root = root
        self.epoch = epoch
        self.assets = {} if assets is None else assets
        self.vulns = {} if vulns is None else vulns
        self.edges = set() if edges is None else edges
        # Set by build_index: node id -> the edges with that node at one end.
        # Never serialized and never copied by clone.
        self._incident: dict[str, set[Edge]] | None = None
        # Set only by active_subgraph on the view it returns, and so marks a
        # view: each active asset to the sorted CVE ids its normal edges
        # reach, built in the pass that builds the view (None on any other
        # graph).  A view is read, never edited, so the map stays its own,
        # and a reader given a view reads it as its own.
        self.cves_of: dict[str, tuple[str, ...]] | None = None

    # -- basic views -------------------------------------------------------

    def clone(self) -> "Edg":
        """A copy of the snapshot, without an index."""
        return Edg(
            root=self.root,
            epoch=self.epoch,
            assets=dict(self.assets),
            vulns=dict(self.vulns),
            edges=set(self.edges),
        )

    def build_index(self) -> None:
        """Index the edges by the nodes at their ends, for a graph that many
        lifecycle operations will edit in place.  The edge edit primitives
        keep the index current, so edit an indexed graph's edges only through
        those operations."""
        self._incident = {}
        for edge in self.edges:
            _link(self._incident, edge)

    def lineage(self, asset_id: str) -> list[AssetNode]:
        """Version nodes of one asset, oldest first, read by node id."""
        nodes = []
        node = self.assets.get(f"{asset_id}@0")
        while node is not None:
            nodes.append(node)
            node = self.assets.get(f"{asset_id}@{len(nodes)}")
        return nodes

    def active_node(self, asset_id: str) -> AssetNode | None:
        """The newest version node, None if there is none or it is retired."""
        chain = self.lineage(asset_id)
        return chain[-1] if chain and not chain[-1].deprecated else None

    def require_active(self, asset_id: str) -> AssetNode:
        node = self.active_node(asset_id)
        if node is None:
            raise UnknownAsset(asset_id)
        return node

    def active_assets(self) -> list[AssetNode]:
        out = [a for a in self.assets.values() if not a.deprecated]
        out.sort(key=lambda a: (a.order, a.node_id))
        return out

    def normal_edges(self):
        return (e for e in self.edges if e.kind == NORMAL)

    def active_cves_of(self, node_id: str) -> tuple[str, ...]:
        """CVE ids attached to one asset node by normal edges, a deprecated
        node's too despite the name, from one pass over the edges that looks
        at no other node."""
        return tuple(sorted(e[1] for e in self.edges if e[0] == node_id
                            and e[2] == NORMAL and e[1] in self.vulns))

    def active_vulns(self) -> dict[str, VulnNode]:
        """The vulnerabilities of :func:`active_subgraph`."""
        return active_subgraph(self).vulns


# ---------------------------------------------------------------------------
# building


def _validate_manifest(manifest: Manifest) -> None:
    """Refuse a manifest no graph can be built from, naming the defect's
    place in the manifest document as its decoder names a malformed field."""
    if not manifest.entries:
        raise EmptyManifest("manifest.assets: no assets")
    seen = set()
    for i, entry in enumerate(manifest.entries):
        if entry.asset_id in seen:
            raise DuplicateId(f"manifest.assets[{i}].id: {entry.asset_id}")
        seen.add(entry.asset_id)
    for i, pair in enumerate(manifest.dependencies):
        for j, end in enumerate(pair):
            if end not in seen:
                raise UnknownDependencyTarget(f"manifest.dependencies[{i}][{j}]: {end}")
        if pair[0] == pair[1]:
            raise SchemaError("self dependency", f"manifest.dependencies[{i}]")


# The edit primitives: every change to a graph's edges goes through
# _add_edge and _deprecate, which keep an index current.


def _link(incident: dict[str, set[Edge]], edge: Edge) -> None:
    incident.setdefault(edge[0], set()).add(edge)
    incident.setdefault(edge[1], set()).add(edge)


def _add_edge(g: Edg, edge: Edge) -> None:
    g.edges.add(edge)
    if g._incident is not None:
        _link(g._incident, edge)


def _deprecate(g: Edg, edge: Edge) -> None:
    """Flip one normal edge of ``g`` to deprecated."""
    g.edges.discard(edge)
    if g._incident is not None:
        g._incident[edge.source].discard(edge)
        g._incident[edge.target].discard(edge)
    _add_edge(g, _new(Edge, (edge.source, edge.target, DEPRECATED)))


def _normal_edges_at(g: Edg, node_id: str) -> list[Edge]:
    """The normal edges with ``node_id`` at one end: from the index when
    ``g`` has one, else from one pass over its edges."""
    edges = g.edges if g._incident is None else g._incident.get(node_id, ())
    return [e for e in edges if e[2] == NORMAL and (e[0] == node_id or e[1] == node_id)]


def _attach_record(g: Edg, node_id: str, record: VulnerabilityRecord, catalog: Catalog) -> None:
    if record.cve_id not in g.vulns:
        g.vulns[record.cve_id] = VulnNode(
            cve_id=record.cve_id,
            cvss=record.cvss,
            cwe_ids=record.cwe_ids,
            capec_ids=catalog.capec_ids_for_cwes(record.cwe_ids),
            exploit_available=record.exploit_available,
        )
    _add_edge(g, _new(Edge, (node_id, record.cve_id, NORMAL)))


def _place(g: Edg, node: AssetNode, catalog: Catalog, at: str, skip=frozenset()) -> None:
    """Insert one asset version and attach every catalog hit for its CPE at
    ``at`` whose CVE id is not in ``skip``."""
    g.assets[node.node_id] = node
    for record in catalog.lookup_vulnerabilities(node.cpe_current, at):
        if record.cve_id not in skip:
            _attach_record(g, node.node_id, record, catalog)


def build_edg(
    sut: WellFormedName,
    manifest: Manifest,
    catalog: Catalog,
    at: str,
) -> Edg:
    """Build the initial snapshot from an asset manifest and a catalog.

    Every manifest entry becomes a fresh asset node (no previous version);
    one normal edge per dependency pair, plus root edges to the top-level
    assets (those nothing else depends on); every catalog hit for an asset's
    CPE at time ``at`` becomes an attached vulnerability node.
    """
    _validate_manifest(manifest)
    g = Edg(root=RootNode(sut_cpe=sut, checked_at=at))

    for order, entry in enumerate(manifest.entries):
        node = AssetNode(f"{entry.asset_id}@0", entry.asset_id, order, entry.cpe)
        _place(g, node, catalog, at)
    node_of = {a.asset_id: a.node_id for a in g.assets.values()}
    targets = set()
    for src, dst in manifest.dependencies:
        _add_edge(g, Edge(source=node_of[src], target=node_of[dst]))
        targets.add(dst)
    for entry in manifest.entries:
        if entry.asset_id not in targets:
            _add_edge(g, Edge(source=ROOT_ID, target=node_of[entry.asset_id]))
    return g


# ---------------------------------------------------------------------------
# lifecycle mutations (each edits ``g`` and returns it)
#
# Each operation checks everything before its first edit, so one that raises
# leaves ``g`` unchanged.


def add_asset(
    g: Edg,
    entry: ManifestEntry,
    dependencies,
    catalog: Catalog,
    top_level: bool = False,
    at: str | None = None,
) -> Edg:
    """Introduce a new asset with its dependency pairs (which must touch it)."""
    if f"{entry.asset_id}@0" in g.assets:
        raise DuplicateId(entry.asset_id)
    order = max((a.order for a in g.assets.values()), default=-1) + 1
    node = AssetNode(f"{entry.asset_id}@0", entry.asset_id, order, entry.cpe)
    edges = []
    for src, dst in dependencies:
        if entry.asset_id not in (src, dst):
            raise UnknownDependencyTarget(f"pair ({src}, {dst}) does not touch {entry.asset_id}")
        if src == dst:
            raise SchemaError("self dependency")
        ends = []
        for end in (src, dst):
            if end == entry.asset_id:
                ends.append(node.node_id)
            else:
                ends.append(g.require_active(end).node_id)
        edges.append(Edge(source=ends[0], target=ends[1]))
    if top_level:
        edges.append(Edge(source=ROOT_ID, target=node.node_id))
    for edge in edges:
        _add_edge(g, edge)
    _place(g, node, catalog, at or g.root.checked_at)
    return g


def discover_vuln(g: Edg, asset_id: str, cve_id: str, catalog: Catalog) -> Edg:
    """Attach a newly found catalog vulnerability to an asset."""
    node = g.require_active(asset_id)
    record = catalog.vulnerabilities.get(cve_id)
    if record is None:
        raise UnknownCve(f"{cve_id!r} is not in the catalog (discovered on {asset_id!r})")
    _attach_record(g, node.node_id, record, catalog)
    return g


def patch_vuln(g: Edg, asset_id: str, cve_id: str) -> Edg:
    """Mark one asset's vulnerability as patched: its edge becomes deprecated."""
    node = g.require_active(asset_id)
    edge = Edge(source=node.node_id, target=cve_id)
    if cve_id not in g.vulns or edge not in g.edges:
        raise UnknownCve(f"{cve_id!r} is not attached to {asset_id!r}")
    _deprecate(g, edge)
    return g


def update_asset(
    g: Edg,
    asset_id: str,
    new_cpe: WellFormedName,
    catalog: Catalog,
    fixes=frozenset(),
    at: str | None = None,
) -> Edg:
    """Create the successor version of an asset.

    The successor inherits every normal dependency edge of the replaced
    version (the replaced edges flip to deprecated) and every attached
    vulnerability not listed in ``fixes``; the replaced version keeps its
    normal edge to an unfixed vulnerability, while a fixed one is flipped to
    deprecated.  The catalog is re-queried for the new CPE and new hits are
    attached (``fixes`` suppresses re-attachment: the operator's statement
    wins over a stale applicability range).
    """
    old = g.require_active(asset_id)
    # version chains are duplicate-free: no successor takes a CPE of the chain
    chain = g.lineage(asset_id)
    for node in chain:
        if node.cpe_current == new_cpe:
            raise SelfSucc(f"{asset_id}: {cpe.bind_formatted(new_cpe)} already in its chain")
    fixes = frozenset(fixes)
    incident = _normal_edges_at(g, old.node_id)
    successor = AssetNode(
        node_id=f"{asset_id}@{len(chain)}",
        asset_id=asset_id,
        order=old.order,
        cpe_current=new_cpe,
        cpe_previous=old.cpe_current,
    )
    g.assets[old.node_id] = old._replace(deprecated=True)

    old_id, new_id = old.node_id, successor.node_id
    for edge in incident:
        source, target = edge[0], edge[1]
        if source == old_id and target in g.vulns:
            if target in fixes:
                _deprecate(g, edge)
            else:
                # Not corrected by this update: both versions carry it.
                _add_edge(g, _new(Edge, (new_id, target, NORMAL)))
        else:
            _deprecate(g, edge)
            if source == old_id:
                _add_edge(g, _new(Edge, (new_id, target, NORMAL)))
            else:
                _add_edge(g, _new(Edge, (source, new_id, NORMAL)))

    _place(g, successor, catalog, at or g.root.checked_at, fixes)
    return g


def retire_asset(g: Edg, asset_id: str) -> Edg:
    """Remove an asset from the active configuration.

    All its normal edges (dependencies and vulnerability attachments) flip to
    deprecated; the node stays in the graph as history.  No successor is
    created, which distinguishes retirement from an update.
    """
    node = g.require_active(asset_id)
    incident = _normal_edges_at(g, node.node_id)
    g.assets[node.node_id] = node._replace(deprecated=True)
    for edge in incident:
        _deprecate(g, edge)
    return g


# ---------------------------------------------------------------------------
# queries


def active_subgraph(g: Edg) -> Edg:
    """The active configuration: non-deprecated assets, and each normal edge
    from the root or one of them to another of them or to a vulnerability,
    which the edge makes active.  The only rule for what is active.  The
    view's :attr:`Edg.cves_of`, each active asset to the sorted CVE ids its
    normal edges reach, is built in the same pass over the edges."""
    assets = {nid: a for nid, a in g.assets.items() if not a.deprecated}
    vulns = {}
    edges = set()
    found: dict[str, list[str]] = {}
    for e in g.edges:
        if e[2] == NORMAL and (e[0] in assets or e[0] == ROOT_ID):
            target = e[1]
            if target in g.vulns:
                edges.add(e)
                vulns[target] = g.vulns[target]
                found.setdefault(e[0], []).append(target)
            elif target in assets:
                edges.add(e)
    view = Edg(root=g.root, epoch=g.epoch, assets=assets, vulns=vulns, edges=edges)
    view.cves_of = {node_id: tuple(sorted(cves)) for node_id, cves in found.items()}
    return view


def impact_set(g: Edg, cve_id: str) -> set[str]:
    """Asset ids hosting a vulnerability plus all assets that transitively
    depend on them (reverse reachability over active normal edges)."""
    if cve_id not in g.vulns:
        raise UnknownCve(f"{cve_id!r} is not a vulnerability of epoch {g.epoch}")
    active = active_subgraph(g)
    hosts = {e[0] for e in active.edges if e[1] == cve_id}
    incoming: dict[str, set[str]] = {}
    for e in active.edges:
        if e[1] in active.assets and e[0] in active.assets:
            incoming.setdefault(e[1], set()).add(e[0])
    seen = set(hosts)
    frontier = list(hosts)
    while frontier:
        node = frontier.pop()
        for dependant in incoming.get(node, ()):
            if dependant not in seen:
                seen.add(dependant)
                frontier.append(dependant)
    return {active.assets[nid].asset_id for nid in seen}


# ---------------------------------------------------------------------------
# clusters


def _eligible(g: Edg, cves: tuple[str, ...], rule: ClusterRule) -> bool:
    if rule.kind == "no_vulnerabilities":
        return not cves
    return all(g.vulns[c].cvss < rule.threshold for c in cves)


def cluster_by(g: Edg, rule: ClusterRule, scope=None) -> dict[str, str]:
    """Group maximal connected sets of qualifying active assets, with the
    vulnerabilities attached only inside a group, into clusters: the map of
    each member node id (the assets, then the absorbed vulnerabilities) to
    its cluster id, ``cluster-1``, ``cluster-2`` and so on.

    Connectivity is taken over the active normal edges, with the root acting
    as a connector but never a member, so a fully vulnerability-free system
    collapses into a single cluster.  ``scope`` optionally restricts
    eligibility to a subset of asset ids.  The map is empty when no asset
    qualifies.  An active view is read as its own.  :func:`report.export_dot`
    draws each group as one node.
    """
    active = g if g.cves_of is not None else active_subgraph(g)
    scope_ids = None if scope is None else set(scope)
    cves_of = active.cves_of
    eligible = {
        a.node_id
        for a in active.assets.values()
        if (scope_ids is None or a.asset_id in scope_ids)
        and _eligible(g, cves_of.get(a.node_id, ()), rule)
    }
    if not eligible:
        return {}

    # Union-find over eligible assets; the root joins components but the
    # root itself never becomes a member.
    parent = {nid: nid for nid in eligible | {ROOT_ID}}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for e in active.edges:
        if e[0] in parent and e[1] in parent:
            union(e[0], e[1])

    components: dict[str, set[str]] = {}
    for nid in eligible:
        components.setdefault(find(nid), set()).add(nid)
    ids = [f"cluster-{i}" for i in range(1, len(components) + 1)]
    cluster_of = {
        nid: cid
        for cid, group in zip(ids, sorted(components.values(), key=min))
        for nid in group
    }

    # A vulnerability joins a group when every node hosting it lies inside
    # that group (one shared across groups stays visible outside all of them).
    owner: dict[str, str | None] = {}
    for nid, cves in cves_of.items():
        cid = cluster_of.get(nid)
        for cve_id in cves:
            owner[cve_id] = cid if owner.get(cve_id, cid) == cid else None
    cluster_of.update((cve_id, cid) for cve_id, cid in owner.items() if cid is not None)
    return cluster_of


# Kept while perfbench/spans.py's Tracer.install() looks it up in this module.
def expand_clusters(g: Edg) -> Edg:
    """``g`` itself: a snapshot holds no clusters."""
    return g


# ---------------------------------------------------------------------------
# serialization


def edg_to_dict(g: Edg, names: cpe.BindTable | None = None) -> dict:
    """Canonical JSON form; lists are sorted so equal graphs serialize equal.
    Clusters are a drawing annotation and are not written.  ``names`` binds
    each distinct CPE name once; pass one table to share it across the
    snapshots of one write."""
    bind = (cpe.BindTable() if names is None else names).__getitem__

    def asset_dict(a: AssetNode):
        return {
            "node_id": a.node_id,
            "asset_id": a.asset_id,
            "order": a.order,
            "cpe": bind(a.cpe_current),
            "cpe_previous": bind(a.cpe_previous) if a.cpe_previous else None,
            "deprecated": a.deprecated,
        }

    def vuln_dict(v: VulnNode):
        return {
            "cve_id": v.cve_id,
            "cvss": v.cvss,
            "cwe_ids": list(v.cwe_ids),
            "capec_ids": list(v.capec_ids),
            "exploit_available": v.exploit_available,
        }

    return {
        "schema_version": 1,
        "epoch": g.epoch,
        "root": {"cpe": bind(g.root.sut_cpe), "checked_at": g.root.checked_at},
        "assets": [asset_dict(a) for _, a in sorted(g.assets.items())],
        "vulns": [vuln_dict(v) for _, v in sorted(g.vulns.items())],
        "edges": [{"source": s, "target": t, "kind": k} for s, t, k in sorted(g.edges)],
        "clusters": [],
    }


def _repeated(docs: list, key: str, id_field: str) -> str:
    """The error for the node docs at ``key``, two of which share an
    ``id_field``: it names the first doc whose id an earlier doc has."""
    first: dict[str, int] = {}
    i = next(i for i, d in enumerate(docs) if first.setdefault(d[id_field], i) != i)
    return f"{key}: two nodes share a {id_field}: {key}[{i}] repeats {docs[i][id_field]!r}"


def edg_from_dict(doc: dict | str, cpes: cpe.ParseTable | None = None) -> Edg:
    """Inverse of :func:`edg_to_dict`, of the document or of its JSON text.
    ``cpes`` parses each distinct name once; pass one table to share it
    across the snapshots of one load.  Text that is not JSON, a
    ``schema_version`` other than 1, a wrongly typed field or container, a
    CVE, CWE or CAPEC id that is not of the catalog's form, two nodes under
    one id, a version chain or an edge that the lifecycle does not make (an
    asset's edge to itself among them), an edge to a node the snapshot
    lacks, or a non-empty ``clusters`` list,
    raises :class:`TypeError` or :class:`ValueError`.  Node ids are interned
    and edge kinds are :data:`NORMAL` or :data:`DEPRECATED` themselves, so
    that an edge's ends are the very strings that key its nodes, as in a
    graph built in memory, and a lookup by them compares identities."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if cpes is None:
        cpes = cpe.ParseTable()

    def parse_asset(d) -> AssetNode:
        node_id, asset_id, order = d["node_id"], d["asset_id"], d["order"]
        deprecated = d.get("deprecated", False)
        if not (type(node_id) is str and type(asset_id) is str
                and type(order) is int and type(deprecated) is bool):
            raise TypeError(f"asset {node_id!r}: want string ids, an integer order "
                            "and a boolean deprecated")
        previous = d.get("cpe_previous")
        node = _new(AssetNode, (intern(node_id), asset_id, order, cpes[d["cpe"]],
                                cpes[previous] if previous else None, deprecated))
        if previous or node_id != asset_id + "@0":
            later.append(node)
        return node

    def parse_vuln(d) -> VulnNode:
        cve_id, cvss, cwe_ids = d["cve_id"], d["cvss"], d["cwe_ids"]
        capec_ids, exploit = d.get("capec_ids", []), d.get("exploit_available", False)
        if not (type(cve_id) is str and type(cvss) in (int, float) and 0 <= cvss <= 10
                and type(cwe_ids) is list and type(capec_ids) is list
                and all(type(i) is str for i in cwe_ids + capec_ids)
                and type(exploit) is bool):
            raise ValueError(f"vulnerability {cve_id!r}: want a string id, a cvss in [0, 10], "
                             "lists of string ids and a boolean exploit_available")
        return _new(VulnNode, (intern(cve_id), cvss, tuple(cwe_ids), tuple(capec_ids), exploit))

    def parse_edge(d) -> Edge:
        try:
            return _new(Edge, (sources[d["source"]], targets[d["target"]], _KINDS[d["kind"]]))
        except (KeyError, TypeError):
            source, target, kind = d["source"], d["target"], d["kind"]
        # A lookup failed, so one of the tests below raises.
        if not (type(source) is str and type(target) is str
                and (kind == NORMAL or kind == DEPRECATED)):
            raise ValueError(f"edge {source!r} -> {target!r}: want string endpoints "
                             f"and kind {NORMAL!r} or {DEPRECATED!r}, got {kind!r}")
        for end, ends, role in ((source, sources, "source"), (target, targets, "target")):
            if end not in ends:
                if end in sources or end in targets:
                    raise ValueError(f"edges: node {end!r} is never an edge's {role}")
                raise ValueError(f"edges: no node {end!r}")

    def items(d, key) -> list:
        value = d[key]
        if type(value) is not list:
            raise TypeError(f"{key}: want a list, got {type(value).__name__}")
        return value

    version = doc.get("schema_version")
    if type(version) is not int or version != 1:
        raise ValueError(f"schema_version: want 1, got {version!r}")
    root, epoch = doc["root"], doc.get("epoch")
    if not (type(root) is dict and type(root.get("checked_at")) is str):
        raise TypeError("root: want an object with a string checked_at")
    if not (epoch is None or type(epoch) is str):
        raise TypeError(f"epoch: want a string or null, got {type(epoch).__name__}")
    g = Edg(root=RootNode(sut_cpe=cpes[root["cpe"]], checked_at=root["checked_at"]),
            epoch=epoch)
    asset_docs, vuln_docs = items(doc, "assets"), items(doc, "vulns")
    later: list[AssetNode] = []  # every node but a version 0 without cpe_previous
    for d in asset_docs:
        node = parse_asset(d)
        g.assets[node.node_id] = node
    if len(g.assets) != len(asset_docs):
        raise ValueError(_repeated(asset_docs, "assets", "node_id"))
    # Version k > 0 follows a deprecated version k - 1 whose cpe is its
    # cpe_previous, so the versions are contiguous and only the newest is active.
    for node in later:
        asset_id, at, k = node.node_id.rpartition("@")
        if not (at and asset_id == node.asset_id and _VERSION_RE.fullmatch(k)):
            raise ValueError(f"assets: node_id {node.node_id!r} is not {node.asset_id + '@<k>'!r}")
        if k == "0":
            raise ValueError(f"assets: {node.node_id!r}: version 0 has a cpe_previous")
        before = g.assets.get(f"{asset_id}@{int(k) - 1}")
        if not (before and before.deprecated and before.cpe_current == node.cpe_previous):
            raise ValueError(f"assets: {node.node_id!r}: want a deprecated {asset_id}@{int(k) - 1}"
                             " whose cpe is its cpe_previous")
    for d in vuln_docs:
        node = parse_vuln(d)
        g.vulns[node.cve_id] = node
    if len(g.vulns) != len(vuln_docs):
        raise ValueError(_repeated(vuln_docs, "vulns", "cve_id"))
    vulns = g.vulns.values()
    for kind, ids, pattern in (
            ("CVE", g.vulns, _CVE_RE),
            ("CWE", {i for v in vulns for i in v.cwe_ids}, _CWE_RE),
            ("CAPEC", {i for v in vulns for i in v.capec_ids}, _CAPEC_RE)):
        for i in ids:
            if not pattern.fullmatch(i):
                raise ValueError(f"vulns: bad {kind} id {i!r}")
    if items(doc, "clusters"):
        raise ValueError("clusters: want an empty list; a snapshot stores no clusters")
    # Each node id to itself, by the end of an edge it may take; parse_edge
    # refuses an edge end that is not a key.
    targets = dict(zip(g.assets, g.assets))
    sources = {ROOT_ID: ROOT_ID, **targets}
    targets.update(zip(g.vulns, g.vulns))
    for d in items(doc, "edges"):
        g.edges.add(parse_edge(d))
    for cve_id in g.vulns:
        if (ROOT_ID, cve_id, NORMAL) in g.edges or (ROOT_ID, cve_id, DEPRECATED) in g.edges:
            raise ValueError(f"edges: 'root' -> {cve_id!r}: the root carries no vulnerability")
    for node_id in g.assets:
        if (node_id, node_id, NORMAL) in g.edges or (node_id, node_id, DEPRECATED) in g.edges:
            raise ValueError(f"edges: {node_id!r} -> {node_id!r}: an asset does not depend "
                             "on itself")
    return g
