"""Replay edits one working graph in place over an index.  These tests hold
it to the clone-per-event lifecycle it replaced, kept here as the reference.
The lifecycle operations edit the graph they are given; these tests also hold
each of them to leaving that graph, and its index, unchanged when it refuses
its input."""

import json
import random

import pytest

from dotcheck import parse_dot
from gen import random_timeline
from vulngraph import cpe, fixtures, graph, report, timeline as tl_mod
from vulngraph.catalog import canonical_text, load_catalog, save_catalog
from vulngraph.cli import main
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
    key = cpe.version_key(name.version) if isinstance(name.version, str) else None
    return sorted((r for r in catalog.vulnerabilities.values() if r.applies_to(name, at, key)),
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
        k = int(old.node_id.rpartition("@")[2]) + 1
        new = AssetNode(f"{old.asset_id}@{k}", old.asset_id, old.order,
                        event.cpe_value, old.cpe_current)
        g.assets[old.node_id] = old._replace(deprecated=True)
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
        g.assets[node.node_id] = node._replace(deprecated=True)
        for edge in list(g.edges):
            if edge.kind == NORMAL and node.node_id in (edge.source, edge.target):
                _flip(g, edge)
    g.root = g.root._replace(checked_at=event.at)
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
            # A pass indexes the working graph only when it applies two or
            # more events; one event scans the edges instead.
            if len(tl.events) >= 2:
                assert _index_agrees(g), (seed, i)
            else:
                assert g._incident is None, (seed, i)
            steps += 1
        assert steps == len(tl.events) + 1, seed
        kinds.update(e.kind for e in tl.events)
    assert kinds == set(tl_mod.EVENT_KINDS)


def test_a_pass_indexes_the_graph_only_when_it_applies_two_or_more_events(
        tmp_path, monkeypatch):
    built = []
    build_index = graph.Edg.build_index

    def counted(g):
        built.append(len(g.edges))
        build_index(g)

    monkeypatch.setattr(graph.Edg, "build_index", counted)
    out = tmp_path / "built.json"
    assert main(["build", "--sut", "cpe:2.3:a:acme:box:1.0:*:*:*:*:*:*:*",
                 "--manifest", str(fixtures.openplc_manifest_path()),
                 "--catalog", str(fixtures.openplc_catalog_path()),
                 "--at", "2020-01-01T00:00:00Z", "--out", str(out)]) == 0
    assert built == []
    # Every stored epoch verifies, so event replays only the new event.
    assert main(["event", "--timeline", str(fixtures.openplc_timeline_path()),
                 "--catalog", str(fixtures.openplc_catalog_path()), "--kind", "noop",
                 "--at", "2030-01-01T00:00:00Z", "--out", str(tmp_path / "event.json")]) == 0
    assert built == []
    # Embedding replays the whole log in one pass.
    counts = set()
    for seed in range(40):
        tl, catalog = random_timeline(random.Random(seed + 60_000), max_events=6)
        built.clear()
        tl_mod.embed_snapshots(tl, catalog)
        assert len(built) == (len(tl.events) >= 2), seed
        counts.add(len(built))
    assert counts == {0, 1}


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
            want = states[taken].clone()
            want.epoch = mark.label
            assert graph.edg_to_dict(got) == graph.edg_to_dict(want), (seed, mark.label)
            assert got._incident is None, (seed, mark.label)


@pytest.fixture()
def applied(monkeypatch):
    """Counts the events applied while the test runs; a replay looks
    ``apply_event`` up as a module global, so it calls the wrapper."""
    calls = [0]
    apply_event = tl_mod.apply_event

    def counted(*args):
        calls[0] += 1
        return apply_event(*args)

    monkeypatch.setattr(tl_mod, "apply_event", counted)
    return calls


def _zeroed(tmp_path, *labels) -> str:
    """The bundled timeline with the digests of ``labels`` zeroed, so that
    every read rebuilds those epochs from the log."""
    tl = tl_mod.load_timeline(fixtures.openplc_timeline_path())
    for label in labels:
        tl.digests[label] = "0" * 64
    path = tmp_path / "zeroed.json"
    tl_mod.save_timeline(tl, path)
    return str(path)


@pytest.mark.parametrize("command,events", [
    (["diff", "--from-epoch", "V2", "--to-epoch", "V3", "--json"], 20),
    (["diff", "--from-epoch", "V3", "--to-epoch", "V2", "--json"], 20),
    (["diff", "--from-epoch", "V2", "--to-epoch", "V2", "--json"], 12),
    (["report", "--format", "json"], 20),
], ids=["diff-V2-V3", "diff-V3-V2", "diff-V2-V2", "report"])
def test_a_read_of_two_stale_epochs_replays_their_shared_prefix_once(
        tmp_path, capsys, applied, command, events):
    # V2 and V3 both rebuild from V1, the last verified epoch, in one pass
    # that stops at the later mark: 12 events to V2, 8 more to V3.
    argv = [*command, "--catalog", str(fixtures.openplc_catalog_path())]
    assert main([*argv, "--timeline", str(fixtures.openplc_timeline_path())]) == 0
    want = capsys.readouterr().out
    applied[0] = 0
    assert main([*argv, "--timeline", _zeroed(tmp_path, "V2", "V3")]) == 0
    assert applied[0] == events
    assert capsys.readouterr().out == want


def test_snapshot_at_starts_from_the_last_verified_epoch_before_it(tmp_path, applied):
    tl = tl_mod.load_timeline(_zeroed(tmp_path, "V3"))
    g = tl_mod.snapshot_at(tl, load_catalog(fixtures.openplc_catalog_path()),
                           tl.find_epoch("V3").at)
    assert applied[0] == 8  # from V2
    g.epoch = "V3"
    assert canonical_text(graph.edg_to_dict(g)) == tl.snapshots["V3"]


@pytest.fixture()
def calls(monkeypatch):
    """``calls(module, name)`` wraps ``module.name`` for the rest of the
    test, as ``applied`` wraps ``apply_event``, and returns its call count
    as the one item of a list."""
    def count(module, name):
        made = [0]
        function = getattr(module, name)

        def counted(*args, **kwargs):
            made[0] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return made
    return count


@pytest.mark.parametrize("start,end,reads", [("V2", "V2", 1), ("V1", "V3", 2)])
def test_a_diff_decodes_and_views_each_distinct_epoch_once(capsys, calls, start, end, reads):
    decoded, viewed = calls(graph, "edg_from_dict"), calls(report, "active_subgraph")
    assert main(["diff", "--from-epoch", start, "--to-epoch", end, "--json",
                 "--timeline", str(fixtures.openplc_timeline_path())]) == 0
    assert (decoded[0], viewed[0]) == (reads, reads)
    delta = json.loads(capsys.readouterr().out)
    assert (delta["from"], delta["to"]) == (start, end)
    assert any(delta[key] for key in ("assets_added", "vulns_added")) == (start != end)


def test_a_diff_names_an_unknown_from_epoch_first(capsys):
    assert main(["diff", "--from-epoch", "V8", "--to-epoch", "V9",
                 "--timeline", str(fixtures.openplc_timeline_path())]) == 2
    assert "unknown epoch 'V8'" in capsys.readouterr().err


def _short_timeline(tmp_path):
    """The first ``tests/gen.py`` timeline of 1 to 5 events whose last mark
    follows its last event, with every epoch embedded, and its catalog,
    written under ``tmp_path``."""
    for seed in range(300_000, 301_000):
        tl, catalog = random_timeline(random.Random(seed), max_events=5)
        if tl.events and tl.events[-1].at <= tl.epochs[-1].at:
            break
    timeline, catalog_path = tmp_path / "short.json", tmp_path / "short-catalog.json"
    tl_mod.save_timeline(tl_mod.embed_snapshots(tl, catalog), timeline)
    save_catalog(catalog, catalog_path)
    return timeline, catalog_path


@pytest.mark.parametrize("log", ["bundled", "short"])
def test_an_event_on_verified_epochs_applies_one_event_and_decodes_one_snapshot(
        tmp_path, capsys, calls, log):
    # A counted-work contract: when every epoch verifies, the work of an
    # event does not grow with the log (20 events bundled, at most 5 short).
    if log == "bundled":
        timeline, catalog = fixtures.openplc_timeline_path(), fixtures.openplc_catalog_path()
    else:
        timeline, catalog = _short_timeline(tmp_path)
    tl = tl_mod.load_timeline(timeline)
    assert all(e.at <= tl.epochs[-1].at for e in tl.events) and not tl.stale
    assert len(tl.events) == 20 if log == "bundled" else 1 <= len(tl.events) <= 5
    last = tl_mod.epoch_snapshot(tl, None, tl.epochs[-1].label)
    asset = min(last.active_assets(), key=lambda a: a.asset_id)
    new_cpe = cpe.bind_formatted(asset.cpe_current._replace(version="99.0"))
    applied, decoded = calls(tl_mod, "apply_event"), calls(graph, "edg_from_dict")
    assert main(["event", "--timeline", str(timeline), "--catalog", str(catalog),
                 "--kind", "asset-updated", "--asset", asset.asset_id, "--cpe", new_cpe,
                 "--at", "2030-01-01T00:00:00Z", "--out", str(tmp_path / "out.json")]) == 0
    assert (applied[0], decoded[0]) == (1, 1)
    assert capsys.readouterr().out == "appended asset-updated at 2030-01-01T00:00:00Z\n"


def _refusals(g, catalog):
    """``(name, error, call)`` for calls of the lifecycle operations that
    ``g`` must refuse.  The dependency pairs given to ``add_asset`` start
    with a valid pair, so a check made after the first edit would show.  A
    call reads the loop's variables, so make it before drawing the next."""
    fresh = ManifestEntry("fresh", cpe.parse_formatted("cpe:2.3:a:acme:alpha:1.0:*:*:*:*:*:*:*"))
    cve_ids = sorted(catalog.vulnerabilities)
    attached = {}
    for e in g.normal_edges():
        if e.target in g.vulns:
            attached.setdefault(e.source, []).append(e.target)
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
        if working._incident is None:  # a log of at most one event indexes nothing
            working.build_index()
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


def _round_trips(g) -> bool:
    doc = graph.edg_to_dict(g)
    return graph.edg_to_dict(graph.edg_from_dict(canonical_text(doc))) == doc


def test_the_decoder_admits_every_state_the_lifecycle_makes(openplc_timeline, openplc_catalog):
    for i, g in tl_mod.replay(openplc_timeline, openplc_catalog):
        assert _round_trips(g), ("openplc", i)
    for seed in range(500):
        tl, catalog = random_timeline(random.Random(seed + 110_000))
        for i, g in tl_mod.replay(tl, catalog):
            assert _round_trips(g), (seed, i)


def test_a_patch_then_a_rediscovery_keeps_both_edge_kinds(tmp_path, capsys):
    # Not a defect: patching a vulnerability and discovering it again on the
    # same version leaves a deprecated and a normal edge on one pair, so the
    # decoder admits both, and the drawing shows both.
    path = tmp_path / "timeline.json"
    path.write_bytes(fixtures.openplc_timeline_path().read_bytes())
    event = ["event", "--timeline", str(path), "--catalog", str(fixtures.openplc_catalog_path()),
             "--asset", "libc", "--cve", "CVE-2017-18269"]
    assert main([*event, "--kind", "vuln-patched", "--at", "2021-02-01T00:00:00Z"]) == 0
    assert main([*event, "--kind", "vuln-discovered", "--at", "2021-02-02T00:00:00Z",
                 "--mark-epoch", "V4"]) == 0
    tl = tl_mod.load_timeline(path)
    stored = tl_mod.epoch_snapshot(tl, None, "V4")
    pair = ("libc@2", "CVE-2017-18269")
    assert {e.kind for e in stored.edges if e[:2] == pair} == {NORMAL, DEPRECATED}
    replayed = tl_mod.epoch_snapshot(tl.replace(snapshots={}, digests={}),
                                     load_catalog(fixtures.openplc_catalog_path()), "V4")
    assert graph.edg_to_dict(stored) == graph.edg_to_dict(replayed)
    assert _round_trips(stored)
    capsys.readouterr()
    assert main(["export", "--timeline", str(path), "--epoch", "V4", "--show-deprecated"]) == 0
    _, edges = parse_dot(capsys.readouterr().out)
    assert sorted(attrs.get("style", "solid") for *ends, attrs in edges
                  if tuple(ends) == pair) == ["dashed", "solid"]
