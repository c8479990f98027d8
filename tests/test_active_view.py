"""`graph.active_subgraph` is the one rule for what is active.

`_active_reference` states the rule in two steps (collect the
vulnerabilities a normal edge attaches to an active asset, keep the normal
edges among the kept nodes), and the view must equal it on every graph of
the three edge shapes the lifecycle makes.  A reader given a view reads it
as its own, on those graphs and on graphs edited in memory to hold edges of
other shapes too.
"""

import random

import pytest

from gen import random_graph, random_timeline
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
)


def _active_reference(g: Edg) -> Edg:
    active_ids = {a.node_id for a in g.assets.values() if not a.deprecated}
    vulns = {}
    for e in g.edges:
        if e.kind == NORMAL and e.source in active_ids and e.target in g.vulns:
            vulns[e.target] = g.vulns[e.target]
    assets = {nid: a for nid, a in g.assets.items() if not a.deprecated}
    keep = set(assets) | set(vulns) | {ROOT_ID}
    edges = {e for e in g.normal_edges() if e.source in keep and e.target in keep}
    return Edg(root=g.root, epoch=g.epoch, assets=assets, vulns=vulns, edges=edges)


def _assert_same_view(g, case):
    view = active_subgraph(g)
    assert edg_to_dict(view) == edg_to_dict(_active_reference(g)), case
    assert g.active_vulns() == view.vulns, case
    cves = {}  # each node to the CVE ids its normal edges reach, sorted
    for e in sorted(g.edges):
        if e.kind == NORMAL and e.target in g.vulns:
            cves.setdefault(e.source, []).append(e.target)
    active_ids = {a.node_id for a in g.assets.values() if not a.deprecated}
    assert view.cves_of == {n: tuple(c) for n, c in cves.items() if n in active_ids}, case
    for node_id in [ROOT_ID, *g.assets, *g.vulns]:  # deprecated assets too
        assert g.active_cves_of(node_id) == tuple(cves.get(node_id, ())), (case, node_id)


def test_active_view_matches_reference_on_random_graphs():
    for seed in range(CASES):
        g, _ = random_graph(random.Random(seed))
        _assert_same_view(g, seed)


def test_active_view_matches_reference_on_epoch_snapshots():
    for seed in range(200):
        tl, cat = random_timeline(random.Random(seed + 70_000))
        for g in tl_mod.epoch_snapshots(tl, cat):
            _assert_same_view(g, (seed, g.epoch))


@pytest.mark.parametrize("label", ["V1", "V2", "V3"])
def test_active_view_matches_reference_on_openplc(openplc_snapshots, label):
    _assert_same_view(openplc_snapshots[label], label)


def _read_all(g, rules, scope):
    """What each reader returns for ``g``: the metrics, both patch queues
    and each cluster rule with and without the scope.  The report's repr
    keeps its maps' key order."""
    return (repr(metrics.snapshot_report(g)),
            [metrics.prioritize(g, 0.0, 10.0, grouping) for grouping in ("by_asset", "global")],
            [cluster_by(g, rule, s) for rule in rules for s in (None, scope)])


def _assert_view_reads_as_its_own(g, case):
    rng = random.Random(case)
    rules = (ClusterRule.no_vulnerabilities(), ClusterRule.cvss_below(rng.choice((4.0, 7.5))))
    scope = {a.asset_id for a in g.active_assets() if rng.random() < 0.5}
    assert _read_all(active_subgraph(g), rules, scope) == _read_all(g, rules, scope), case


def test_a_view_reads_as_its_own_on_random_graphs():
    for seed in range(200):
        g, _ = random_graph(random.Random(seed))
        _assert_view_reads_as_its_own(g, seed)


def test_a_view_reads_as_its_own_with_odd_normal_edges():
    # Normal edges that only an edit in memory makes: root -> CVE,
    # CVE -> asset, asset -> root and CVE -> CVE.
    for seed in range(200):
        rng = random.Random(seed + 100_000)
        g, _ = random_graph(rng)
        if len(g.vulns) < 2:
            continue
        g = g.clone()
        nodes = sorted(g.assets)
        cves = sorted(g.vulns)
        for _ in range(3):
            a, b = rng.sample(cves, 2)
            node = rng.choice(nodes)
            g.edges |= {Edge(ROOT_ID, a), Edge(a, node), Edge(node, ROOT_ID), Edge(a, b)}
        _assert_view_reads_as_its_own(g, seed)
