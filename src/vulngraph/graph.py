"""The dependency-graph core.

A snapshot (:class:`Edg`) is a typed directed graph with one root node (the
system under test), asset nodes and known-vulnerability nodes, joined by
``normal`` and ``deprecated`` edges.  Edges are stored as drawn: asset ->
thing it depends on, asset -> its vulnerability; impact queries traverse
against that direction.  A clustering (:func:`cluster_by`) only annotates a
snapshot with groups of nodes, which the DOT export draws as single nodes.

A lifecycle operation (:func:`add_asset`, :func:`update_asset`,
:func:`retire_asset`, :func:`patch_vuln`, :func:`discover_vuln`) edits the
graph it is given and returns it; one that raises leaves the graph
unchanged.  A caller that wants to keep a state clones it first
(:meth:`Edg.clone`).  A replay advances one working graph this way, and
indexes its edges by node (:meth:`Edg.build_index`) so that each event looks
up the edges it touches instead of scanning every edge; an asset's version
nodes and active node are found by scanning the asset nodes, on every graph
alike.  Every other operation leaves its input unchanged.

Asset identity is a stable opaque token (``asset_id``) that survives version
updates; each update adds a new version node (``asset_id@k``) whose
``cpe_previous`` points at the replaced version, forming the traceable
version chain.  Updating or retiring an asset flips its dependency edges to
``deprecated``; a vulnerability edge on the replaced version stays ``normal``
unless the update fixed that vulnerability.  Deprecated versions are kept in
the graph for history; :func:`active_subgraph` alone decides what is active,
and metrics, clustering and impact queries all read its view.

An :class:`Edge` is the tuple ``(source, target, kind)``, so a set of edges
hashes and compares them in tuple's C code, and sorting edges sorts them by
source, then target, then kind.  An edge compares as that plain tuple; the
package only ever compares it with edges.  Hot loops over the edges read
their fields by position (``e[0]``, ``e[1]``, ``e[2]``), because Python 3.11
does not specialize attribute reads on a tuple; the rest of the code reads
them by name.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field, replace
from sys import intern

from . import cpe
from .catalog import _CAPEC_RE, _CVE_RE, _CWE_RE, Catalog, VulnerabilityRecord
from .cpe import WellFormedName
from .errors import (
    BrokenChain,
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


@dataclass(frozen=True)
class RootNode:
    sut_cpe: WellFormedName
    checked_at: str


@dataclass(frozen=True)
class AssetNode:
    node_id: str
    asset_id: str
    order: int
    cpe_current: WellFormedName
    cpe_previous: WellFormedName | None = None
    deprecated: bool = False

    @property
    def version_index(self) -> int:
        return int(self.node_id.rsplit("@", 1)[1])


@dataclass(frozen=True)
class VulnNode:
    cve_id: str
    cvss: float
    cwe_ids: tuple[str, ...]
    capec_ids: tuple[str, ...] = ()
    exploit_available: bool = False


#: A directed edge: node ids ``source`` and ``target`` and its ``kind``,
#: :data:`NORMAL` unless given.
Edge = namedtuple("Edge", ["source", "target", "kind"], defaults=[NORMAL])

# Builds an edge from a tuple in one C call, without the generated
# ``__new__``'s Python frame.
_new = tuple.__new__


@dataclass(frozen=True)
class Cluster:
    """A group of a snapshot's nodes, drawn as one summary node."""

    cluster_id: str
    assets: tuple[AssetNode, ...]
    vulns: tuple[VulnNode, ...]


@dataclass(frozen=True)
class ManifestEntry:
    asset_id: str
    cpe: WellFormedName


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    dependencies: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ClusterRule:
    """Grouping criterion: assets with no vulnerabilities, or whose attached
    vulnerabilities all score strictly below a threshold."""

    kind: str  # "no_vulnerabilities" | "cvss_below"
    threshold: float = 0.0

    @classmethod
    def no_vulnerabilities(cls) -> "ClusterRule":
        return cls(kind="no_vulnerabilities")

    @classmethod
    def cvss_below(cls, threshold: float) -> "ClusterRule":
        if not 0.0 <= threshold <= 10.0:
            raise ValueError(f"threshold {threshold} outside [0, 10]")
        return cls(kind="cvss_below", threshold=threshold)


@dataclass
class Edg:
    """One timestamped graph snapshot."""

    root: RootNode
    epoch: str | None = None
    assets: dict[str, AssetNode] = field(default_factory=dict)
    vulns: dict[str, VulnNode] = field(default_factory=dict)
    edges: set[Edge] = field(default_factory=set)
    clusters: dict[str, Cluster] = field(default_factory=dict)
    # Set by build_index: node id -> the edges with that node at one end.
    # Never serialized and never copied by clone.
    _incident: dict[str, set[Edge]] | None = field(
        default=None, init=False, compare=False, repr=False)
    # Set by active_subgraph on the view it returns: the view's
    # cves_by_asset(), built in the pass that builds the view (None on any
    # other graph).  A view is read, never edited, so the map stays its own.
    cves_of: dict[str, tuple[str, ...]] | None = field(
        default=None, init=False, compare=False, repr=False)

    # -- basic views -------------------------------------------------------

    def clone(self) -> "Edg":
        """A copy of the snapshot, without the clusters that annotate it and
        without an index."""
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
        """Version nodes of one asset, oldest first."""
        nodes = [a for a in self.assets.values() if a.asset_id == asset_id]
        nodes.sort(key=lambda a: a.version_index)
        return nodes

    def active_node(self, asset_id: str) -> AssetNode | None:
        for node in self.assets.values():
            if node.asset_id == asset_id and not node.deprecated:
                return node
        return None

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

    def cves_by_asset(self) -> dict[str, tuple[str, ...]]:
        """For each node with an attached vulnerability, the sorted CVE ids
        its normal edges reach, from one pass over the edges.  This is not
        the active view: a version node that an update without fixes
        replaced keeps its normal edges, so it is here with their CVEs.
        Metrics, prioritization and clustering read the active view's map,
        the :attr:`cves_of` of :func:`active_subgraph`, which leaves it out."""
        found: dict[str, list[str]] = {}
        for e in self.edges:
            if e[2] == NORMAL and e[1] in self.vulns:
                found.setdefault(e[0], []).append(e[1])
        return {node_id: tuple(sorted(cves)) for node_id, cves in found.items()}

    def active_cves_of(self, node_id: str) -> tuple[str, ...]:
        """CVE ids attached to one asset node by normal edges, a deprecated
        node's too despite the name: its entry of :meth:`cves_by_asset`,
        from one pass over the edges that looks at no other node."""
        return tuple(sorted(e[1] for e in self.edges if e[0] == node_id
                            and e[2] == NORMAL and e[1] in self.vulns))

    def active_vulns(self) -> dict[str, VulnNode]:
        """The vulnerabilities of :func:`active_subgraph`."""
        return active_subgraph(self).vulns

    def node_count(self) -> int:
        return 1 + len(self.assets) + len(self.vulns)


# ---------------------------------------------------------------------------
# building


def _validate_manifest(manifest: Manifest) -> None:
    if not manifest.entries:
        raise EmptyManifest("manifest has no assets")
    seen = set()
    for entry in manifest.entries:
        if entry.asset_id in seen:
            raise DuplicateId(entry.asset_id)
        seen.add(entry.asset_id)
    for i, (src, dst) in enumerate(manifest.dependencies):
        for end in (src, dst):
            if end not in seen:
                raise UnknownDependencyTarget(end)
        if src == dst:
            raise SchemaError("self dependency", f"dependencies[{i}]")


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
    if g.lineage(entry.asset_id):
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
    if new_cpe == old.cpe_current:
        raise SelfSucc(asset_id)
    # version chains are duplicate-free: no rolling back to an earlier CPE
    for node in g.lineage(asset_id):
        if node.cpe_current == new_cpe:
            raise SelfSucc(f"{asset_id}: {cpe.bind_formatted(new_cpe)} already in its chain")
    fixes = frozenset(fixes)
    incident = _normal_edges_at(g, old.node_id)
    successor = AssetNode(
        node_id=f"{asset_id}@{old.version_index + 1}",
        asset_id=asset_id,
        order=old.order,
        cpe_current=new_cpe,
        cpe_previous=old.cpe_current,
    )
    g.assets[old.node_id] = replace(old, deprecated=True)

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
    g.assets[node.node_id] = replace(node, deprecated=True)
    for edge in incident:
        _deprecate(g, edge)
    return g


# ---------------------------------------------------------------------------
# queries


def version_chain(g: Edg, asset_id: str) -> list[WellFormedName]:
    """CPE values of an asset, current version first, following the
    previous-version pointers down to the very first version."""
    nodes = g.lineage(asset_id)
    if not nodes:
        raise UnknownAsset(asset_id)
    chain = []
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        chain.append(node.cpe_current)
        expected = nodes[i - 1].cpe_current if i > 0 else None
        if node.cpe_previous != expected:
            raise BrokenChain(
                f"{node.node_id}: previous pointer "
                f"{_fmt_cpe(node.cpe_previous)} does not reach {_fmt_cpe(expected)}"
            )
    return chain


def _fmt_cpe(w: WellFormedName | None) -> str:
    return cpe.bind_formatted(w) if w is not None else "null"


def active_subgraph(g: Edg) -> Edg:
    """The active configuration, without clusters: non-deprecated assets,
    vulnerabilities a normal edge attaches to one of them, and normal edges
    among those nodes plus the root.  The only rule for what is active.  The
    view's :attr:`Edg.cves_of` is its :meth:`Edg.cves_by_asset`, built in the
    same pass."""
    assets = {nid: a for nid, a in g.assets.items() if not a.deprecated}
    vulns = {}
    normal = []
    found: dict[str, list[str]] = {}
    other_hosts = []
    for e in g.edges:
        if e[2] == NORMAL:
            normal.append(e)
            target = e[1]
            if target in g.vulns:
                source = e[0]
                if source in assets:
                    vulns[target] = g.vulns[target]
                    found.setdefault(source, []).append(target)
                elif source == ROOT_ID or source in g.vulns:
                    other_hosts.append(e)
    keep = assets.keys() | vulns.keys() | {ROOT_ID}
    edges = {e for e in normal if e[0] in keep and e[1] in keep}
    # Only a hand-made snapshot joins the root or a vulnerability to one.
    for e in other_hosts:
        if e.source in keep and e.target in vulns:
            found.setdefault(e.source, []).append(e.target)
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
        if e[0] != ROOT_ID and e[1] in active.assets and e[0] in active.assets:
            incoming.setdefault(e[1], set()).add(e[0])
    seen = set(hosts)
    frontier = list(hosts)
    while frontier:
        node = frontier.pop()
        for dependant in incoming.get(node, ()):
            if dependant not in seen:
                seen.add(dependant)
                frontier.append(dependant)
    return {active.assets[nid].asset_id for nid in seen if nid in active.assets}


# ---------------------------------------------------------------------------
# clusters


def _eligible(g: Edg, cves: tuple[str, ...], rule: ClusterRule) -> bool:
    if rule.kind == "no_vulnerabilities":
        return not cves
    return all(g.vulns[c].cvss < rule.threshold for c in cves)


def cluster_by(g: Edg, rule: ClusterRule, scope=None) -> Edg:
    """Group maximal connected sets of qualifying active assets, with the
    vulnerabilities attached only inside a group, into clusters.

    Connectivity is taken over the active normal edges, with the root acting
    as a connector but never a member, so a fully vulnerability-free system
    collapses into a single cluster.  ``scope`` optionally restricts
    eligibility to a subset of asset ids.  The result is a copy of ``g``
    whose ``clusters`` name the groups; every node and edge is unchanged, and
    :func:`report.export_dot` draws each group as one node.  ``g`` itself is
    returned when no asset qualifies.  A graph that already has clusters is
    refused (:class:`ValueError`): expand it first.
    """
    if g.clusters:
        raise ValueError("graph is already clustered; expand its clusters first")
    active = active_subgraph(g)
    scope_ids = None if scope is None else set(scope)
    cves_of = active.cves_of
    eligible = {
        a.node_id
        for a in active.assets.values()
        if (scope_ids is None or a.asset_id in scope_ids)
        and _eligible(g, cves_of.get(a.node_id, ()), rule)
    }
    if not eligible:
        return g

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

    members: dict[str, list[str]] = {cid: [] for cid in ids}
    for member, cid in sorted(cluster_of.items()):
        members[cid].append(member)
    g2 = g.clone()
    g2.clusters = {cid: Cluster(cid, tuple(g.assets[m] for m in group if m in g.assets),
                                tuple(g.vulns[m] for m in group if m in g.vulns))
                   for cid, group in members.items()}
    return g2


def expand_clusters(g: Edg) -> Edg:
    """Inverse of :func:`cluster_by`: the graph without its clusters."""
    return g.clone() if g.clusters else g


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


def edg_from_dict(doc: dict | str, cpes: cpe.ParseTable | None = None) -> Edg:
    """Inverse of :func:`edg_to_dict`, of the document or of its JSON text.
    ``cpes`` parses each distinct name once; pass one table to share it
    across the snapshots of one load.  Text that is not JSON, a wrongly typed
    field or container, a CVE, CWE or CAPEC id that is not of the catalog's
    form, or a non-empty ``clusters`` list, raises :class:`TypeError` or
    :class:`ValueError`.  Node ids are interned and edge kinds are
    :data:`NORMAL` or :data:`DEPRECATED` themselves, so that an edge's ends
    are the very strings that key its nodes, as in a graph built in memory,
    and a lookup by them compares identities."""
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
        return AssetNode(
            node_id=intern(node_id),
            asset_id=asset_id,
            order=order,
            cpe_current=cpes[d["cpe"]],
            cpe_previous=cpes[d["cpe_previous"]] if d.get("cpe_previous") else None,
            deprecated=deprecated,
        )

    def parse_vuln(d) -> VulnNode:
        cve_id, cvss, cwe_ids = d["cve_id"], d["cvss"], d["cwe_ids"]
        capec_ids, exploit = d.get("capec_ids", []), d.get("exploit_available", False)
        if not (type(cve_id) is str and type(cvss) in (int, float) and 0 <= cvss <= 10
                and type(cwe_ids) is list and type(capec_ids) is list
                and all(type(i) is str for i in cwe_ids + capec_ids)
                and type(exploit) is bool):
            raise ValueError(f"vulnerability {cve_id!r}: want a string id, a cvss in [0, 10], "
                             "lists of string ids and a boolean exploit_available")
        return VulnNode(intern(cve_id), cvss, tuple(cwe_ids), tuple(capec_ids), exploit)

    def parse_edge(d) -> Edge:
        source, target, kind = d["source"], d["target"], d["kind"]
        if not (type(source) is str and type(target) is str
                and (kind == NORMAL or kind == DEPRECATED)):
            raise ValueError(f"edge {source!r} -> {target!r}: want string endpoints "
                             f"and kind {NORMAL!r} or {DEPRECATED!r}, got {kind!r}")
        return _new(Edge, (intern(source), intern(target),
                           NORMAL if kind == NORMAL else DEPRECATED))

    def items(d, key) -> list:
        value = d[key]
        if type(value) is not list:
            raise TypeError(f"{key}: want a list, got {type(value).__name__}")
        return value

    root, epoch = doc["root"], doc.get("epoch")
    if not (type(root) is dict and type(root.get("checked_at")) is str):
        raise TypeError("root: want an object with a string checked_at")
    if not (epoch is None or type(epoch) is str):
        raise TypeError(f"epoch: want a string or null, got {type(epoch).__name__}")
    g = Edg(root=RootNode(sut_cpe=cpes[root["cpe"]], checked_at=root["checked_at"]),
            epoch=epoch)
    for d in items(doc, "assets"):
        node = parse_asset(d)
        g.assets[node.node_id] = node
    for d in items(doc, "vulns"):
        node = parse_vuln(d)
        g.vulns[node.cve_id] = node
    vulns = g.vulns.values()
    for kind, ids, pattern in (
            ("CVE", g.vulns, _CVE_RE),
            ("CWE", {i for v in vulns for i in v.cwe_ids}, _CWE_RE),
            ("CAPEC", {i for v in vulns for i in v.capec_ids}, _CAPEC_RE)):
        for i in ids:
            if not pattern.fullmatch(i):
                raise ValueError(f"vulns: bad {kind} id {i!r}")
    for d in items(doc, "edges"):
        g.edges.add(parse_edge(d))
    if items(doc, "clusters"):
        raise ValueError("clusters: want an empty list; a snapshot stores no clusters")
    return g
