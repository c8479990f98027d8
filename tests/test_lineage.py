"""An asset's versions are read by node id.

`Edg.lineage` and `Edg.active_node` read the nodes ``asset_id@0``,
``asset_id@1``, ... until one is missing, and nothing else.  That is right
because every graph keeps the chain the lifecycle makes: an asset's versions
are the contiguous node ids ``asset_id@0`` ... ``asset_id@k``, and only the
newest can be active.  The snapshot decoder refuses any other chain, and
`test_replay.py::test_the_decoder_admits_every_state_the_lifecycle_makes`
guarantees that every state a replay makes in memory keeps it: were an
operation to break the chain, that state would not decode.

The tests here check both reads against a scan of every asset node, and
count the keys they read, timing nothing.
"""

import random

from gen import random_timeline
from helpers import make_catalog, manifest, name, wstr
from vulngraph import graph, timeline as tl_mod
from vulngraph.graph import Edg


def _by_scan(g, asset_id):
    """An asset's version nodes, oldest first, and its active node, from a
    scan of every asset node and a sort by version number."""
    nodes = sorted((a for a in g.assets.values() if a.asset_id == asset_id),
                   key=lambda a: int(a.node_id.rpartition("@")[2]))
    active = [a for a in nodes if not a.deprecated]
    assert len(active) <= 1, asset_id
    return nodes, (active[0] if active else None)


def _asset_ids(tl):
    """Every asset id the manifest and the events name, and one they do not."""
    ids = {e.asset_id for e in tl.manifest.entries}
    ids.update(e.asset_id for e in tl.events if e.asset_id is not None)
    return sorted(ids) + ["ghost"]


def _assert_reads_match_scan(tl, catalog, case):
    ids = _asset_ids(tl)
    for i, g in tl_mod.replay(tl, catalog):
        for asset_id in ids:
            nodes, active = _by_scan(g, asset_id)
            assert g.lineage(asset_id) == nodes, (case, i, asset_id)
            assert g.active_node(asset_id) == active, (case, i, asset_id)


def test_chain_reads_match_a_scan_on_the_bundled_study(openplc_timeline, openplc_catalog):
    _assert_reads_match_scan(openplc_timeline, openplc_catalog, "openplc")


def test_chain_reads_match_a_scan_on_random_timelines():
    updated = retired = 0
    for seed in range(200):
        tl, catalog = random_timeline(random.Random(seed + 120_000), max_events=12)
        _assert_reads_match_scan(tl, catalog, seed)
        updated += any(e.kind == "asset_updated" for e in tl.events)
        retired += any(e.kind == "asset_retired" for e in tl.events)
    assert updated and retired


class _CountedGets(dict):
    """Asset nodes that count ``get`` calls and refuse to be scanned."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return dict.get(self, key, default)

    def _scan(self, *args):
        raise AssertionError("a chain read scanned the asset nodes")

    keys = values = items = __iter__ = _scan


def _dense_graph():
    """400 dependent assets and 22 updates: 422 asset nodes, one chain of
    12 versions and one asset retired."""
    ids = [f"a{i}" for i in range(400)]
    catalog = make_catalog()
    g = graph.build_edg(name("v", "sut"), manifest(
        [(a, wstr("v", f"p{i % 10}", "1.0")) for i, a in enumerate(ids)],
        [(ids[i], ids[i + 1]) for i in range(399)]), catalog, "2020-01-01T00:00:00Z")
    for k in range(2, 13):
        graph.update_asset(g, "a0", name("v", "p0", f"{k}.0"), catalog)
    for asset_id in ids[1:12]:
        graph.update_asset(g, asset_id, name("v", "q", "2.0"), catalog)
    graph.retire_asset(g, "a5")
    return g


def test_chain_reads_read_only_the_chain_at_any_graph_size(openplc_snapshots):
    small, large = openplc_snapshots["V3"], _dense_graph()
    assert len(large.assets) == 422 and len(large.assets) >= 4 * len(small.assets)
    for g in (small, large):
        counted = Edg(root=g.root, assets=_CountedGets(g.assets))
        ids = sorted({a.asset_id for a in g.assets.values()}) + ["ghost"]
        assert max(len(g.lineage(a)) for a in ids) > 2
        for asset_id in ids:
            keys = len(g.lineage(asset_id)) + 1  # the chain and the first missing id
            for read in (Edg.lineage, Edg.active_node):
                counted.assets.gets = 0
                read(counted, asset_id)
                assert counted.assets.gets == keys, (len(g.assets), asset_id, read)
