"""Replay edits one working graph in place over an index.  These tests hold
it to the clone-per-event lifecycle it replaced, kept here as the reference.
The lifecycle operations edit the graph they are given; these tests also hold
each of them to leaving that graph, and its index, unchanged when it refuses
its input."""

import random
from dataclasses import replace

import pytest

from gen import random_timeline
from vulngraph import cpe, graph, timeline as tl_mod
from vulngraph.errors import (
    DuplicateId,
    SchemaError,
    SelfSucc,
    UnknownAsset,
    UnknownCve,
    UnknownDependencyTarget,
)
from vulngraph.graph import DEPRECATED, NORMAL, ROOT_ID, AssetNode, Edge, ManifestEntry, VulnNode

SEEDS = range(200)


# -- the reference: copy the whole graph per event, scan it for what changes --


def _hits(catalog, name, at):
    return sorted((r for r in catalog.vulnerabilities.values() if r.applies_to(name, at)),
                  key=lambda r: r.cve_id)


def _active(g, asset_id):
    return next(a for a in g.assets.values() if a.asset_id == asset_id and not a.deprecated)


def _attach(g, node_id, record, catalog):
    g.vulns.setdefault(record.cve_id, VulnNode(
        record.cve_id, record.cvss, record.cwe_ids,
        catalog.capec_ids_for_cwes(record.cwe_ids), record.exploit_available))
    g.edges.add(Edge(node_id, record.cve_id))


def _flip(g, edge):
    g.edges.discard(edge)
    g.edges.add(Edge(edge.source, edge.target, DEPRECATED))


def _place(g, node, catalog, at, skip=()):
    g.assets[node.node_id] = node
    for record in _hits(catalog, node.cpe_current, at):
        if record.cve_id not in skip:
            _attach(g, node.node_id, record, catalog)


def _reference_step(g, event, catalog):
    """The successor of ``g`` under one valid event, from a full copy."""
    g = g.clone()
    if event.kind == "asset_added":
        order = max((a.order for a in g.assets.values()), default=-1) + 1
        node = AssetNode(f"{event.asset_id}@0", event.asset_id, order, event.cpe_value)
        for pair in event.dependencies:
            g.edges.add(Edge(*[node.node_id if end == event.asset_id
                               else _active(g, end).node_id for end in pair]))
        if event.top_level:
            g.edges.add(Edge(ROOT_ID, node.node_id))
        _place(g, node, catalog, event.at)
    elif event.kind == "vuln_discovered":
        _attach(g, _active(g, event.asset_id).node_id,
                catalog.vulnerabilities[event.cve_id], catalog)
    elif event.kind == "vuln_patched":
        _flip(g, Edge(_active(g, event.asset_id).node_id, event.cve_id))
    elif event.kind == "asset_updated":
        old = _active(g, event.asset_id)
        new = AssetNode(f"{old.asset_id}@{old.version_index + 1}", old.asset_id, old.order,
                        event.cpe_value, old.cpe_current)
        g.assets[old.node_id] = replace(old, deprecated=True)
        for edge in list(g.edges):
            if edge.kind != NORMAL or old.node_id not in (edge.source, edge.target):
                continue
            if edge.source == old.node_id and edge.target in g.vulns:
                if edge.target in event.fixes:
                    _flip(g, edge)
                else:
                    g.edges.add(Edge(new.node_id, edge.target))
            else:
                _flip(g, edge)
                g.edges.add(Edge(new.node_id, edge.target) if edge.source == old.node_id
                            else Edge(edge.source, new.node_id))
        _place(g, new, catalog, event.at, event.fixes)
    elif event.kind == "asset_retired":
        node = _active(g, event.asset_id)
        g.assets[node.node_id] = replace(node, deprecated=True)
        for edge in list(g.edges):
            if edge.kind == NORMAL and node.node_id in (edge.source, edge.target):
                _flip(g, edge)
    g.root = replace(g.root, checked_at=event.at)
    return g


def _reference_states(tl, catalog):
    g = graph.build_edg(tl.sut_cpe, tl.manifest, catalog, tl.built_at)
    states = [g]
    for event in tl.events:
        g = _reference_step(g, event, catalog)
        states.append(g)
    return states


def _index_agrees(g) -> bool:
    """The working graph's map of edges by node equals one built afresh from
    its edges (an edge's last removal may leave an empty set behind)."""
    fresh = g.clone()
    fresh.build_index()
    return {k: v for k, v in g._incident.items() if v} == fresh._incident


# -- tests ----------------------------------------------------------------


def test_each_replay_step_matches_the_clone_per_event_lifecycle():
    kinds = set()
    for seed in SEEDS:
        tl, catalog = random_timeline(random.Random(seed + 60_000), max_events=12)
        expected = _reference_states(tl, catalog)
        steps = 0
        for (i, g), want in zip(tl_mod.replay(tl, catalog), expected):
            assert graph.edg_to_dict(g) == graph.edg_to_dict(want), (seed, i)
            assert _index_agrees(g), (seed, i)
            steps += 1
        assert steps == len(tl.events) + 1, seed
        kinds.update(e.kind for e in tl.events)
    assert kinds == set(tl_mod.EVENT_KINDS)


def test_epoch_snapshots_are_the_reference_states_at_their_marks():
    for seed in SEEDS:
        tl, catalog = random_timeline(random.Random(seed + 60_000), max_events=12)
        states = _reference_states(tl, catalog)
        # one more mark at noon after the last mark (between two events when
        # any follow), and one after the whole log
        tl = tl_mod.mark_epoch(tl, "noon", tl.epochs[-1].at[:11] + "12:00:00Z")
        tl = tl_mod.mark_epoch(tl, "late", "2020-12-31T00:00:00Z")
        for mark, got in zip(tl.epochs, tl_mod.epoch_snapshots(tl, catalog)):
            taken = sum(e.at <= mark.at for e in tl.events)
            want = replace(states[taken], epoch=mark.label)
            assert graph.edg_to_dict(got) == graph.edg_to_dict(want), (seed, mark.label)
            assert got._incident is None, (seed, mark.label)


def _refusals(g, catalog):
    """``(name, error, call)`` for calls of the lifecycle operations that
    ``g`` must refuse.  The dependency pairs given to ``add_asset`` start
    with a valid pair, so a check made after the first edit would show.  A
    call reads the loop's variables, so make it before drawing the next."""
    fresh = ManifestEntry("fresh", cpe.parse_formatted("cpe:2.3:a:acme:alpha:1.0:*:*:*:*:*:*:*"))
    cve_ids = sorted(catalog.vulnerabilities)
    attached = g.cves_by_asset()
    yield "add_asset", SchemaError, lambda: graph.add_asset(g, fresh, [("fresh", "fresh")], catalog)
    yield "discover_vuln", UnknownAsset, lambda: graph.discover_vuln(g, "ghost", "CVE-1999-0001",
                                                                     catalog)
    for asset_id in sorted({a.asset_id for a in g.assets.values()}):
        node = g.active_node(asset_id)
        existing = ManifestEntry(asset_id, fresh.cpe)
        yield "add_asset", DuplicateId, lambda: graph.add_asset(g, existing, [], catalog)
        if node is None:
            yield "retire_asset", UnknownAsset, lambda: graph.retire_asset(g, asset_id)
            yield "update_asset", UnknownAsset, lambda: graph.update_asset(
                g, asset_id, fresh.cpe, catalog)
            continue
        for old in g.lineage(asset_id):  # the current CPE and every earlier one
            name = "update_asset" if old.node_id == node.node_id else "update_asset, earlier CPE"
            yield name, SelfSucc, lambda: graph.update_asset(
                g, node.asset_id, old.cpe_current, catalog, fixes=attached.get(node.node_id, ()))
        valid = ("fresh", node.asset_id)
        for pair, error in ((("fresh", "fresh"), SchemaError),
                            ((node.asset_id, node.asset_id), UnknownDependencyTarget),
                            (("fresh", "ghost"), UnknownAsset)):
            yield "add_asset", error, lambda: graph.add_asset(g, fresh, [valid, pair], catalog,
                                                              top_level=True)
        yield "patch_vuln", UnknownCve, lambda: graph.patch_vuln(g, node.asset_id,
                                                                 "CVE-1999-0001")
        unattached = [c for c in cve_ids if c not in attached.get(node.node_id, ())]
        if unattached:
            yield "patch_vuln", UnknownCve, lambda: graph.patch_vuln(g, node.asset_id,
                                                                     unattached[0])
        yield "discover_vuln", UnknownCve, lambda: graph.discover_vuln(
            g, node.asset_id, "CVE-1999-0001", catalog)
        same = tl_mod.LifecycleEvent(at="2099-01-01T00:00:00Z", seq=0, kind="asset_updated",
                                     asset_id=node.asset_id, cpe_value=node.cpe_current)
        yield "apply_event", SelfSucc, lambda: tl_mod.apply_event(g, same, catalog)


def test_a_refused_lifecycle_operation_leaves_the_graph_unchanged():
    called = set()
    for seed in SEEDS:
        tl, catalog = random_timeline(random.Random(seed + 60_000), max_events=12)
        *_, (_, working) = tl_mod.replay(tl, catalog)
        for g in (working, working.clone()):  # with and without an index
            before = graph.edg_to_dict(g)
            for name, error, call in _refusals(g, catalog):
                with pytest.raises(error):
                    call()
                assert graph.edg_to_dict(g) == before, (seed, name, error)
                called.add((name, error))
        assert _index_agrees(working), seed
    assert called == {
        ("add_asset", DuplicateId), ("add_asset", SchemaError),
        ("add_asset", UnknownDependencyTarget), ("add_asset", UnknownAsset),
        ("update_asset", SelfSucc), ("update_asset, earlier CPE", SelfSucc),
        ("update_asset", UnknownAsset),
        ("retire_asset", UnknownAsset), ("patch_vuln", UnknownCve),
        ("discover_vuln", UnknownCve), ("discover_vuln", UnknownAsset),
        ("apply_event", SelfSucc),
    }


def test_lifecycle_operations_edit_and_return_the_graph_they_are_given():
    for seed in range(20):
        tl, catalog = random_timeline(random.Random(seed + 60_000), max_events=12)
        *_, (_, working) = tl_mod.replay(tl, catalog)
        node = next(iter(working.active_assets()), None)
        if node is None:
            continue
        g = working.clone()
        before = graph.edg_to_dict(g)
        new_cpe = node.cpe_current._replace(version="99.0")
        assert graph.update_asset(g, node.asset_id, new_cpe, catalog) is g
        assert graph.edg_to_dict(g) != before, seed
        assert graph.retire_asset(g, node.asset_id) is g
        assert g.active_node(node.asset_id) is None, seed
