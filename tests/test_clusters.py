import pytest

from dotcheck import parse_dot
from gen import random_cluster_case
from helpers import make_catalog, manifest, name, record, wstr
from test_properties import CASES
from vulngraph import graph, report
from vulngraph.graph import DEPRECATED, ClusterRule, Edge, active_subgraph, build_edg, cluster_by
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


def _groups(cluster_of):
    """Cluster id -> its sorted member ids."""
    out = {}
    for member, cid in cluster_of.items():
        out.setdefault(cid, []).append(member)
    return {cid: sorted(members) for cid, members in out.items()}


def _drawn(g, rule, scope=None):
    return parse_dot(export_dot(g, RenderOptions(cluster_rule=rule, cluster_scope=scope)))


def test_vuln_free_system_collapses_to_one_cluster():
    g = vuln_free_system()
    rule = ClusterRule.no_vulnerabilities()
    assert cluster_by(g, rule) == {"a1@0": "cluster-1", "a2@0": "cluster-1",
                                   "a3@0": "cluster-1"}
    nodes, edges = _drawn(g, rule)
    assert set(nodes) == {"root", "cluster-1"}
    # the root keeps one edge into the cluster
    assert edges == [("root", "cluster-1", {})]


def test_threshold_absorbs_only_low_scores():
    g, _ = two_severity_system()
    # the assets first, then the absorbed vulnerabilities; the severe carrier
    # stays outside with its vulnerability
    assert list(cluster_by(g, ClusterRule.cvss_below(6.0)).items()) == [
        ("low@0", "cluster-1"), ("CVE-2020-0002", "cluster-1")]


def test_threshold_zero_equals_no_vulnerabilities():
    g, _ = two_severity_system()
    # neither carrier qualifies; nothing to group
    assert cluster_by(g, ClusterRule.cvss_below(0.0)) == {}
    assert cluster_by(g, ClusterRule.no_vulnerabilities()) == {}


def test_no_eligible_asset_gives_an_empty_map():
    g, _ = two_severity_system()
    assert cluster_by(g, ClusterRule.cvss_below(1.0)) == {}


def test_clustering_leaves_hand_built_systems_unchanged():
    for build in (vuln_free_system, lambda: two_severity_system()[0]):
        g = build()
        before = graph.edg_to_dict(g)
        for rule in (ClusterRule.no_vulnerabilities(), ClusterRule.cvss_below(6.0),
                     ClusterRule.cvss_below(10.0)):
            cluster_by(g, rule)
            assert graph.edg_to_dict(g) == before
            assert g.clusters == {}


def test_scope_limits_membership():
    g = vuln_free_system()
    cluster_of = cluster_by(g, ClusterRule.no_vulnerabilities(), scope={"a1", "a3"})
    assert _groups(cluster_of) == {"cluster-1": ["a1@0", "a3@0"]}


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
    # 'left' hangs off the root, 'right' only off 'mid': two singleton groups
    assert _groups(cluster_by(g, ClusterRule.no_vulnerabilities())) == {
        "cluster-1": ["left@0"], "cluster-2": ["right@0"]}


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
    rule = ClusterRule.cvss_below(6.0)
    # the shared vulnerability stays outside, attached to both clusters
    assert cluster_by(g, rule) == {"left@0": "cluster-1", "right@0": "cluster-2"}
    nodes, edges = _drawn(g, rule)
    assert "CVE-2020-0001" in nodes
    attached_from = {source for source, target, _ in edges if target == "CVE-2020-0001"}
    assert attached_from == {"cluster-1", "cluster-2"}


def test_deprecated_assets_never_cluster():
    g, cat = two_severity_system()
    g = graph.update_asset(g, "low", name("v", "low", "2.0"), cat,
                           fixes={"CVE-2020-0002"})
    cluster_of = cluster_by(g, ClusterRule.no_vulnerabilities())
    assert "low@0" not in cluster_of  # the replaced version stays as history
    assert "low@1" in cluster_of


def test_cluster_keeps_boundary_to_deprecated_history():
    g, cat = two_severity_system()
    g = graph.update_asset(g, "low", name("v", "low", "2.0"), cat,
                           fixes={"CVE-2020-0002"})
    _, edges = _drawn(g, ClusterRule.no_vulnerabilities())
    # the root reaches the cluster that holds low@1 and, dashed, the replaced low@0
    assert ("root", "cluster-1", {}) in edges
    assert ("root", "low@0", {"style": "dashed"}) in edges


def test_openplc_v3_low_threshold_absorbs_everything_else(openplc_snapshots):
    g = openplc_snapshots["V3"]
    cluster_of = cluster_by(g, ClusterRule.no_vulnerabilities())
    # vulnerability-free assets collapse; the two carriers stay visible
    visible = {a.asset_id for a in g.active_assets() if a.node_id not in cluster_of}
    assert visible == {"libgcc_s", "libc"}


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


def test_patched_edge_joins_two_groups():
    g = patched_between_groups()
    rule = ClusterRule.cvss_below(5.0)
    assert _groups(cluster_by(g, rule)) == {"cluster-1": ["CVE-2020-0001", "a@0"],
                                            "cluster-2": ["b@0"]}
    _, edges = _drawn(g, rule)
    assert ("cluster-2", "cluster-1", {"style": "dashed"}) in edges
    # the edge between the clusters stays in the snapshot as it was
    assert Edge(source="b@0", target="CVE-2020-0001", kind="deprecated") in g.edges


def _cluster_by_group(g, rule, scope=None):
    """The member map built one group at a time: each group absorbs the
    vulnerabilities whose every active host lies inside it."""
    active = active_subgraph(g)
    scope_ids = None if scope is None else set(scope)
    cves_of = {}
    for e in g.normal_edges():
        if e.target in g.vulns:
            cves_of.setdefault(e.source, []).append(e.target)
    eligible = {
        a.node_id
        for a in active.assets.values()
        if (scope_ids is None or a.asset_id in scope_ids)
        and graph._eligible(g, cves_of.get(a.node_id, ()), rule)
    }
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
    cluster_of = {}
    for index, group in enumerate(sorted(components.values(), key=min), 1):
        cluster_id = f"cluster-{index}"
        cluster_of.update(dict.fromkeys(group, cluster_id))
        for cve_id in {e.target for e in g.normal_edges()
                       if e.source in group and e.target in g.vulns}:
            if {e.source for e in g.normal_edges()
                    if e.target == cve_id and e.source in active_ids} <= group:
                cluster_of[cve_id] = cluster_id
    return cluster_of


def _assert_drawn_fold(g, rule, scope, dot):
    """Check a DOT drawing of ``g`` against the reference map node by node
    and edge by edge: a drawn node is a cluster or a node no cluster holds,
    and a drawn edge of a kind joins two drawn nodes (or one that no cluster
    holds to itself) when some edge of that kind joins their members."""
    cluster_of = _cluster_by_group(g, rule, scope)
    assert cluster_by(g, rule, scope=scope) == cluster_of
    members = {nid: {nid} for nid in [graph.ROOT_ID, *g.assets, *g.vulns]
               if nid not in cluster_of}
    for member, cid in cluster_of.items():
        members.setdefault(cid, set()).add(member)
    cluster_ids = set(cluster_of.values())
    nodes, edges = parse_dot(dot)
    assert set(nodes) == set(members)
    for cid in cluster_ids:
        n_assets = sum(1 for m in members[cid] if m in g.assets)
        n_vulns = len(members[cid]) - n_assets
        assert nodes[cid]["label"] == f"{cid} ({n_assets} assets, {n_vulns} vulns)"
    drawn = [(s, t, attrs.get("style") == "dashed") for s, t, attrs in edges]
    assert len(drawn) == len(set(drawn))
    have = {(e.source, e.target, e.kind == DEPRECATED) for e in g.edges}
    want = set()
    for u in members:
        for v in members:
            if u == v and u in cluster_ids:
                continue  # an edge inside one cluster is not drawn
            for dashed in (False, True):
                if any((s, t, dashed) in have for s in members[u] for t in members[v]):
                    want.add((u, v, dashed))
    assert set(drawn) == want


def _dot_both_ways(monkeypatch, g, rule, scope=None):
    opts = [RenderOptions(cluster_rule=rule, cluster_scope=scope, show_deprecated=shown,
                          verbosity=verbosity)
            for verbosity in ("id", "full") for shown in (True, False)]
    new = [export_dot(g, o) for o in opts]
    with monkeypatch.context() as m:
        m.setattr(report, "cluster_by", _cluster_by_group)
        reference = [export_dot(g, o) for o in opts]
    for o, dot in zip(opts, new):
        _assert_drawn_fold(g if o.show_deprecated else active_subgraph(g), rule, scope, dot)
    return new, reference


def test_dot_matches_group_at_a_time_reference_on_random_graphs(monkeypatch):
    for seed in range(CASES):
        g, rule, scope = random_cluster_case(seed)
        new, reference = _dot_both_ways(monkeypatch, g, rule, scope)
        assert new == reference, seed


def test_dot_matches_group_at_a_time_reference_across_groups(monkeypatch):
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
