import pytest

from dotcheck import parse_dot
from gen import random_cluster_case
from helpers import make_catalog, manifest, name, record, wstr
from test_properties import CASES
from vulngraph import graph, report
from vulngraph.graph import (
    Cluster,
    ClusterRule,
    Edge,
    active_subgraph,
    build_edg,
    cluster_by,
    expand_clusters,
)
from vulngraph.report import RenderOptions, export_dot

AT = "2020-06-01T00:00:00Z"


def vuln_free_system():
    m = manifest(
        [("a1", wstr("v", "p1", "1.0")), ("a2", wstr("v", "p2", "1.0")),
         ("a3", wstr("v", "p3", "1.0"))],
        [("a1", "a3")],
    )
    return build_edg(name("v", "sut", "1.0"), m, make_catalog(), AT)


def two_severity_system():
    """Two carriers under the root: one at 7.5, one at 3.1."""
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119", affected=[wstr("v", "high", "1.0")]),
        record("CVE-2020-0002", 3.1, "CWE-200", affected=[wstr("v", "low", "1.0")]),
    ])
    m = manifest([("high", wstr("v", "high", "1.0")), ("low", wstr("v", "low", "1.0"))])
    return build_edg(name("v", "sut", "1.0"), m, cat, AT), cat


def test_vuln_free_system_collapses_to_one_cluster():
    g = vuln_free_system()
    clustered = cluster_by(g, ClusterRule.no_vulnerabilities())
    assert len(clustered.clusters) == 1
    cluster = next(iter(clustered.clusters.values()))
    assert {a.asset_id for a in cluster.assets} == {"a1", "a2", "a3"}
    nodes, edges = parse_dot(export_dot(clustered))
    assert set(nodes) == {"root", cluster.cluster_id}
    # the root keeps one edge into the cluster
    assert edges == [("root", cluster.cluster_id, {})]


def test_threshold_absorbs_only_low_scores():
    g, _ = two_severity_system()
    clustered = cluster_by(g, ClusterRule.cvss_below(6.0))
    assert len(clustered.clusters) == 1
    cluster = next(iter(clustered.clusters.values()))
    assert {a.asset_id for a in cluster.assets} == {"low"}
    assert {v.cve_id for v in cluster.vulns} == {"CVE-2020-0002"}
    # the severe carrier stays visible with its vulnerability
    assert "high@0" in clustered.assets
    assert "CVE-2020-0001" in clustered.vulns


def test_threshold_zero_equals_no_vulnerabilities():
    g, _ = two_severity_system()
    a = cluster_by(g, ClusterRule.cvss_below(0.0))
    b = cluster_by(g, ClusterRule.no_vulnerabilities())
    assert graph.edg_to_dict(a) == graph.edg_to_dict(b)
    # neither carrier qualifies; nothing to group
    assert a.clusters == {}


def test_no_eligible_group_returns_graph_unchanged():
    g, _ = two_severity_system()
    out = cluster_by(g, ClusterRule.cvss_below(1.0))
    assert out is g


def test_expand_restores_exactly():
    for build in (vuln_free_system, lambda: two_severity_system()[0]):
        g = build()
        for rule in (ClusterRule.no_vulnerabilities(), ClusterRule.cvss_below(6.0),
                     ClusterRule.cvss_below(10.0)):
            clustered = cluster_by(g, rule)
            assert graph.edg_to_dict(expand_clusters(clustered)) == graph.edg_to_dict(g)


def test_expand_without_clusters_is_identity():
    g = vuln_free_system()
    assert expand_clusters(g) is g


def test_scope_limits_membership():
    g = vuln_free_system()
    clustered = cluster_by(g, ClusterRule.no_vulnerabilities(), scope={"a1", "a3"})
    cluster = next(iter(clustered.clusters.values()))
    assert {a.asset_id for a in cluster.assets} == {"a1", "a3"}
    assert "a2@0" in clustered.assets
    assert graph.edg_to_dict(expand_clusters(clustered)) == graph.edg_to_dict(g)


def test_ineligible_asset_splits_components():
    # eligible - INELIGIBLE - eligible: the middle carrier keeps the sides apart
    cat = make_catalog(records=[
        record("CVE-2020-0001", 9.0, "CWE-119", affected=[wstr("v", "mid", "1.0")]),
    ])
    m = manifest(
        [("left", wstr("v", "left", "1.0")), ("mid", wstr("v", "mid", "1.0")),
         ("right", wstr("v", "right", "1.0"))],
        [("left", "mid"), ("mid", "right")],
    )
    g = build_edg(name("v", "sut", "1.0"), m, cat, AT)
    clustered = cluster_by(g, ClusterRule.no_vulnerabilities())
    # 'left' hangs off the root, 'right' only off 'mid': two singleton groups
    assert len(clustered.clusters) == 2
    members = sorted(
        tuple(sorted(a.asset_id for a in c.assets)) for c in clustered.clusters.values()
    )
    assert members == [("left",), ("right",)]
    assert graph.edg_to_dict(expand_clusters(clustered)) == graph.edg_to_dict(g)


def test_shared_vulnerability_is_not_absorbed_across_groups():
    # one sub-threshold CVE attached to two carriers separated by a severe one
    cat = make_catalog(records=[
        record("CVE-2020-0001", 3.0, "CWE-200",
               affected=[wstr("v", "left", "1.0"), wstr("v", "right", "1.0")]),
        record("CVE-2020-0002", 9.0, "CWE-119", affected=[wstr("v", "mid", "1.0")]),
    ])
    m = manifest(
        [("left", wstr("v", "left", "1.0")), ("mid", wstr("v", "mid", "1.0")),
         ("right", wstr("v", "right", "1.0"))],
        [("left", "mid"), ("mid", "right")],
    )
    g = build_edg(name("v", "sut", "1.0"), m, cat, AT)
    clustered = cluster_by(g, ClusterRule.cvss_below(6.0))
    assert len(clustered.clusters) == 2
    # the shared vulnerability stays outside, re-attached to both clusters
    assert not any(c.vulns for c in clustered.clusters.values())
    nodes, edges = parse_dot(export_dot(clustered))
    assert "CVE-2020-0001" in nodes
    cluster_ids = set(clustered.clusters)
    attached_from = {source for source, target, _ in edges if target == "CVE-2020-0001"}
    assert attached_from == cluster_ids
    assert graph.edg_to_dict(expand_clusters(clustered)) == graph.edg_to_dict(g)


def test_deprecated_assets_never_cluster():
    g, cat = two_severity_system()
    g = graph.update_asset(g, "low", name("v", "low", "2.0"), cat,
                           fixes={"CVE-2020-0002"})
    clustered = cluster_by(g, ClusterRule.no_vulnerabilities())
    member_ids = {a.node_id for c in clustered.clusters.values() for a in c.assets}
    assert "low@0" not in member_ids  # the replaced version stays as history
    assert "low@1" in member_ids
    assert graph.edg_to_dict(expand_clusters(clustered)) == graph.edg_to_dict(g)


def test_cluster_keeps_boundary_to_deprecated_history():
    g, cat = two_severity_system()
    g = graph.update_asset(g, "low", name("v", "low", "2.0"), cat,
                           fixes={"CVE-2020-0002"})
    clustered = cluster_by(g, ClusterRule.no_vulnerabilities())
    # the deprecated root->low@0 edge now points at the cluster that holds low@1
    deprecated = [e for e in clustered.edges if e.kind == "deprecated"]
    assert any(e.target in clustered.clusters for e in deprecated) or any(
        e.target == "low@0" for e in deprecated
    )
    assert graph.edg_to_dict(expand_clusters(clustered)) == graph.edg_to_dict(g)


def test_openplc_v3_low_threshold_absorbs_everything_else(openplc_snapshots):
    g = openplc_snapshots["V3"]
    clustered = cluster_by(g, ClusterRule.no_vulnerabilities())
    # vulnerability-free assets collapse; the two carriers stay visible
    members = {a.node_id for c in clustered.clusters.values() for a in c.assets}
    visible = {a.asset_id for a in clustered.assets.values()
               if not a.deprecated and a.node_id not in members}
    assert visible == {"libgcc_s", "libc"}
    assert graph.edg_to_dict(expand_clusters(clustered)) == graph.edg_to_dict(g)


def patched_between_groups():
    """'c' (severe) depends on 'a' and 'b'; CVE-2020-0001 sits on 'a' and is
    patched on 'b'.  Below 5.0 it is absorbed into a's cluster while b's
    cluster keeps the deprecated edge to it."""
    cat = make_catalog(records=[
        record("CVE-2020-0001", 3.0, "CWE-200",
               affected=[wstr("v", "a", "1.0"), wstr("v", "b", "1.0")]),
        record("CVE-2020-0002", 9.0, "CWE-119", affected=[wstr("v", "c", "1.0")]),
    ])
    m = manifest(
        [("a", wstr("v", "a", "1.0")), ("b", wstr("v", "b", "1.0")),
         ("c", wstr("v", "c", "1.0"))],
        [("c", "a"), ("c", "b")],
    )
    g = build_edg(name("v", "sut", "1.0"), m, cat, AT)
    return graph.patch_vuln(g, "b", "CVE-2020-0001")


def test_patched_edge_between_groups_expands_exactly():
    g = patched_between_groups()
    clustered = cluster_by(g, ClusterRule.cvss_below(5.0))
    assert {v.cve_id for v in clustered.clusters["cluster-1"].vulns} == {"CVE-2020-0001"}
    _, edges = parse_dot(export_dot(clustered))
    assert ("cluster-2", "cluster-1", {"style": "dashed"}) in edges
    # the edge between the clusters stays in the snapshot as it was
    patched = Edge(source="b@0", target="CVE-2020-0001", kind="deprecated")
    assert patched in clustered.edges
    assert [a.node_id for a in clustered.clusters["cluster-2"].assets] == ["b@0"]
    assert graph.edg_to_dict(expand_clusters(clustered)) == graph.edg_to_dict(g)


def _cluster_by_group(g, rule, scope=None):
    """Clustering one group at a time: each group's edges are read from the
    graph as the groups before it left it."""
    active = active_subgraph(g)
    scope_ids = None if scope is None else set(scope)
    cves_of = g.cves_by_asset()
    eligible = {
        a.node_id
        for a in active.assets.values()
        if (scope_ids is None or a.asset_id in scope_ids)
        and graph._eligible(g, cves_of.get(a.node_id, ()), rule)
    }
    if not eligible:
        return g
    parent = {nid: nid for nid in eligible | {graph.ROOT_ID}}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in active.edges:
        if e.source in parent and e.target in parent:
            ra, rb = find(e.source), find(e.target)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    components = {}
    for nid in eligible:
        components.setdefault(find(nid), set()).add(nid)

    active_ids = {nid for nid, a in g.assets.items() if not a.deprecated}
    g2 = g.clone()
    for index, group in enumerate(sorted(components.values(), key=min), len(g.clusters) + 1):
        absorbed = set()
        for cve_id in {e.target for e in g.normal_edges()
                       if e.source in group and e.target in g.vulns}:
            if {e.source for e in g.normal_edges()
                    if e.target == cve_id and e.source in active_ids} <= group:
                absorbed.add(cve_id)
        members = group | absorbed
        cluster_id = f"cluster-{index}"
        internal, boundary = [], []
        for e in sorted(g2.edges, key=lambda e: (e.source, e.target, e.kind)):
            if e.source in members and e.target in members:
                internal.append(e)
            elif e.source in members or e.target in members:
                boundary.append(e)
        g2.clusters[cluster_id] = Cluster(
            cluster_id=cluster_id,
            assets=tuple(sorted((g2.assets[n] for n in group), key=lambda a: a.node_id)),
            vulns=tuple(sorted((g2.vulns[c] for c in absorbed), key=lambda v: v.cve_id)),
        )
        for nid in group:
            del g2.assets[nid]
        for cve_id in absorbed:
            del g2.vulns[cve_id]
        g2.edges.difference_update(internal + boundary)
        for e in boundary:
            if e.source in members:
                g2.edges.add(Edge(source=cluster_id, target=e.target, kind=e.kind))
            else:
                g2.edges.add(Edge(source=e.source, target=cluster_id, kind=e.kind))
    return g2


def _dot_both_ways(monkeypatch, g, rule, scope=None):
    opts = [RenderOptions(cluster_rule=rule, cluster_scope=scope, show_deprecated=shown,
                          verbosity=verbosity)
            for verbosity in ("id", "full") for shown in (True, False)]
    new = [export_dot(g, o) for o in opts]
    with monkeypatch.context() as m:
        m.setattr(report, "cluster_by", _cluster_by_group)
        reference = [export_dot(g, o) for o in opts]
    return new, reference


def test_clustering_changes_no_node_or_edge():
    for seed in range(CASES):
        g, rule, scope = random_cluster_case(seed)
        assert graph.edg_to_dict(cluster_by(g, rule, scope)) == graph.edg_to_dict(g), seed


def test_dot_matches_group_at_a_time_reference_on_random_graphs(monkeypatch):
    for seed in range(CASES):
        g, rule, scope = random_cluster_case(seed)
        new, reference = _dot_both_ways(monkeypatch, g, rule, scope)
        assert new == reference, seed


def test_dot_matches_group_at_a_time_reference_across_groups(monkeypatch):
    # the reference stores the edge between the groups retargeted, but draws it the same
    new, reference = _dot_both_ways(monkeypatch, patched_between_groups(),
                                    ClusterRule.cvss_below(5.0))
    assert '"cluster-2" -> "cluster-1" [style=dashed];' in new[0]
    assert new == reference


@pytest.mark.parametrize("label", ["V1", "V2", "V3"])
@pytest.mark.parametrize("rule", [ClusterRule.no_vulnerabilities(), ClusterRule.cvss_below(4.0),
                                  ClusterRule.cvss_below(6.0), ClusterRule.cvss_below(9.5)],
                         ids=["no-vulns", "below-4", "below-6", "below-9.5"])
def test_dot_matches_group_at_a_time_reference_on_openplc(monkeypatch, openplc_snapshots,
                                                          label, rule):
    new, reference = _dot_both_ways(monkeypatch, openplc_snapshots[label], rule)
    assert new == reference


def test_clustering_a_clustered_graph_is_refused():
    g, _ = two_severity_system()
    clustered = cluster_by(g, ClusterRule.cvss_below(6.0))
    with pytest.raises(ValueError, match="expand"):
        cluster_by(clustered, ClusterRule.cvss_below(9.9))
    # after expansion the same clustering comes back, ids starting at cluster-1
    again = cluster_by(expand_clusters(clustered), ClusterRule.cvss_below(6.0))
    assert set(again.clusters) == {"cluster-1"}
    assert graph.edg_to_dict(again) == graph.edg_to_dict(clustered)
