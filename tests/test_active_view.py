"""`graph.active_subgraph` is the one rule for what is active.

`_active_reference` states the rule in three steps (expand the clusters,
collect the vulnerabilities a normal edge attaches to an active asset, keep
the normal edges among the kept nodes), and the view must equal it on every
graph, clustered or not, including hand-edited ones with odd normal edges.
Every reader of the active configuration then sees through clusters.
"""

import random

import pytest

from gen import random_cluster_case, random_graph, random_timeline
from test_properties import CASES
from vulngraph import metrics, timeline as tl_mod
from vulngraph.graph import (
    NORMAL,
    ROOT_ID,
    ClusterRule,
    Edg,
    Edge,
    active_subgraph,
    cluster_by,
    edg_to_dict,
    expand_clusters,
    impact_set,
)
from vulngraph.report import RenderOptions, export_dot

RULES = [ClusterRule.no_vulnerabilities(), ClusterRule.cvss_below(5.0),
         ClusterRule.cvss_below(10.0)]


def _active_reference(g: Edg) -> Edg:
    g = expand_clusters(g)
    active_ids = {a.node_id for a in g.assets.values() if not a.deprecated}
    vulns = {}
    for e in g.edges:
        if e.kind == NORMAL and e.source in active_ids and e.target in g.vulns:
            vulns[e.target] = g.vulns[e.target]
    assets = {nid: a for nid, a in g.assets.items() if not a.deprecated}
    keep = set(assets) | set(vulns) | set(g.clusters) | {ROOT_ID}
    edges = {e for e in g.normal_edges() if e.source in keep and e.target in keep}
    return Edg(root=g.root, epoch=g.epoch, assets=assets, vulns=vulns, edges=edges,
               clusters=dict(g.clusters))


def _assert_same_view(g, case):
    view = active_subgraph(g)
    assert not view.clusters, case
    assert edg_to_dict(view) == edg_to_dict(_active_reference(g)), case
    assert g.active_vulns() == view.vulns, case
    assert view.cves_of == view.cves_by_asset(), case
    cves = g.cves_by_asset()
    for node_id in [ROOT_ID, *g.assets, *g.vulns]:  # deprecated assets too
        assert g.active_cves_of(node_id) == cves.get(node_id, ()), (case, node_id)


def test_active_view_matches_reference_on_random_graphs_raw_and_clustered():
    for seed in range(CASES):
        g, rule, scope = random_cluster_case(seed)
        _assert_same_view(g, seed)
        _assert_same_view(cluster_by(g, rule, scope=scope), (seed, rule, scope))
        for other in RULES:
            _assert_same_view(cluster_by(g, other), (seed, other))


def test_active_view_matches_reference_on_epoch_snapshots():
    for seed in range(200):
        tl, cat = random_timeline(random.Random(seed + 70_000))
        for g in tl_mod.epoch_snapshots(tl, cat):
            _assert_same_view(g, (seed, g.epoch))


@pytest.mark.parametrize("label", ["V1", "V2", "V3"])
def test_active_view_matches_reference_on_openplc(openplc_snapshots, label):
    _assert_same_view(openplc_snapshots[label], label)


def test_active_view_matches_reference_with_odd_normal_edges():
    # Hand-edited snapshots may hold normal edges root -> CVE, CVE -> asset
    # and asset -> root; each is kept or dropped by the kept-node rule.
    kept = dropped = 0
    for seed in range(CASES):
        rng = random.Random(seed + 80_000)
        g, _ = random_graph(rng)
        if not g.vulns:
            continue
        g = g.clone()
        nodes = sorted(g.assets)
        for cve_id in rng.sample(sorted(g.vulns), min(3, len(g.vulns))):
            node = rng.choice(nodes)
            g.edges |= {Edge(ROOT_ID, cve_id), Edge(cve_id, node), Edge(node, ROOT_ID)}
        _assert_same_view(g, seed)
        view = active_subgraph(g)
        for e in g.edges:
            if e.source == ROOT_ID and e.target in g.vulns:
                if e in view.edges:
                    kept += 1
                else:
                    dropped += 1
    assert kept and dropped


def test_view_cve_map_keeps_every_host_a_hand_made_snapshot_gives():
    # The view's CVE map, built while the view is, lists what cves_by_asset
    # lists, also for a root or a vulnerability that hosts one.
    odd_hosts = 0
    for seed in range(CASES):
        rng = random.Random(seed + 90_000)
        g, _ = random_graph(rng)
        if len(g.vulns) < 2:
            continue
        g = g.clone()
        cves = sorted(g.vulns)
        for _ in range(3):
            a, b = rng.sample(cves, 2)
            g.edges |= {Edge(ROOT_ID, a), Edge(a, b)}
        view = active_subgraph(g)
        assert view.cves_of == view.cves_by_asset(), seed
        odd_hosts += sum(1 for host in view.cves_of if host == ROOT_ID or host in view.vulns)
    assert odd_hosts


def _cves(g):
    return sorted(expand_clusters(g).vulns)


def test_readers_see_through_clusters():
    hide = RenderOptions(show_deprecated=False)
    absorbing = 0
    for seed in range(CASES):
        g, rule, scope = random_cluster_case(seed)
        want_dot = export_dot(g, hide)
        want_report = metrics.snapshot_report(g).to_dict()
        want_impact = {cve_id: impact_set(g, cve_id) for cve_id in _cves(g)}
        for clustered in (cluster_by(g, rule, scope=scope), *(cluster_by(g, r) for r in RULES)):
            absorbing += sum(len(c.vulns) for c in clustered.clusters.values())
            assert export_dot(clustered, hide) == want_dot, seed
            assert metrics.snapshot_report(clustered).to_dict() == want_report, seed
            assert {c: impact_set(clustered, c) for c in _cves(clustered)} == want_impact, seed
    assert absorbing
