import pytest

from helpers import lineage_cpes, make_catalog, manifest, name, record, wstr
from vulngraph import graph
from vulngraph.errors import (
    DuplicateId,
    EmptyManifest,
    SchemaError,
    SelfSucc,
    UnknownAsset,
    UnknownCve,
    UnknownDependencyTarget,
)
from vulngraph.graph import ROOT_ID, Edge, ManifestEntry

AT = "2020-06-01T00:00:00Z"


def chain_system():
    """a1 depends on a2 depends on a3; one CVE on a3."""
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119", affected=[wstr("v", "p3", "1.0")]),
    ])
    m = manifest(
        [("a1", wstr("v", "p1", "1.0")), ("a2", wstr("v", "p2", "1.0")),
         ("a3", wstr("v", "p3", "1.0"))],
        [("a1", "a2"), ("a2", "a3")],
    )
    return graph.build_edg(name("v", "sut", "1.0"), m, cat, AT), cat


def test_build_single_asset_empty_catalog():
    g = graph.build_edg(
        name("v", "sut", "1.0"),
        manifest([("a1", wstr("v", "p", "1.0"))]),
        make_catalog(),
        AT,
    )
    assert len(g.assets) == 1 and not g.vulns
    assert Edge(source=ROOT_ID, target="a1@0") in g.edges
    assert g.root.checked_at == AT


def test_build_chain_attaches_vuln_to_host_only():
    g, _ = chain_system()
    assert set(g.vulns) == {"CVE-2020-0001"}
    vuln_edges = [e for e in g.edges if e.target == "CVE-2020-0001"]
    assert vuln_edges == [Edge(source="a3@0", target="CVE-2020-0001")]
    # only the chain head is top-level
    root_edges = {e.target for e in g.edges if e.source == ROOT_ID}
    assert root_edges == {"a1@0"}


def test_build_rejects_empty_manifest():
    with pytest.raises(EmptyManifest):
        graph.build_edg(name("v", "s"), manifest([]), make_catalog(), AT)


def test_build_rejects_unknown_dependency_target():
    with pytest.raises(UnknownDependencyTarget):
        graph.build_edg(
            name("v", "s"),
            manifest([("a1", wstr("v", "p", "1.0"))], [("a1", "ghost")]),
            make_catalog(),
            AT,
        )


def test_build_rejects_duplicate_asset_and_self_dependency():
    with pytest.raises(DuplicateId):
        graph.build_edg(
            name("v", "s"),
            manifest([("a1", wstr("v", "p", "1.0")), ("a1", wstr("v", "q", "1.0"))]),
            make_catalog(),
            AT,
        )
    with pytest.raises(SchemaError):
        graph.build_edg(
            name("v", "s"),
            manifest([("a1", wstr("v", "p", "1.0"))], [("a1", "a1")]),
            make_catalog(),
            AT,
        )


def test_update_carries_unfixed_vulnerability():
    g, cat = chain_system()
    g2 = graph.update_asset(g, "a3", name("v", "p3", "2.0"), cat)
    old, new = g2.assets["a3@0"], g2.assets["a3@1"]
    assert old.deprecated and not new.deprecated
    assert new.cpe_previous == old.cpe_current
    # the replaced version keeps its normal edge; the successor gains one
    assert Edge(source="a3@0", target="CVE-2020-0001") in g2.edges
    assert Edge(source="a3@1", target="CVE-2020-0001") in g2.edges
    # the dependency edge moved and the old one is deprecated history
    assert Edge(source="a2@0", target="a3@1") in g2.edges
    assert Edge(source="a2@0", target="a3@0", kind="deprecated") in g2.edges


def test_update_with_fix_drops_vulnerability():
    g, cat = chain_system()
    g2 = graph.update_asset(g, "a3", name("v", "p3", "2.0"), cat,
                            fixes={"CVE-2020-0001"})
    assert Edge(source="a3@0", target="CVE-2020-0001", kind="deprecated") in g2.edges
    assert not [e for e in g2.edges if e.source == "a3@1" and e.target in g2.vulns]


def test_update_requeries_catalog_for_new_version():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119", affected=[wstr("v", "p", "1.0")]),
        record("CVE-2020-0002", 5.0, "CWE-200", affected=[wstr("v", "p", "2.0")]),
    ])
    g = graph.build_edg(name("v", "s"), manifest([("a", wstr("v", "p", "1.0"))]), cat, AT)
    g2 = graph.update_asset(g, "a", name("v", "p", "2.0"), cat, fixes={"CVE-2020-0001"})
    assert graph.active_subgraph(g2).cves_of["a@1"] == ("CVE-2020-0002",)


def test_update_fix_overrides_stale_range():
    # the range still covers the new version, but the operator says fixed
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119",
               affected=[(wstr("v", "p", "*"), "1.0", "9.0")]),
    ])
    g = graph.build_edg(name("v", "s"), manifest([("a", wstr("v", "p", "1.0"))]), cat, AT)
    g2 = graph.update_asset(g, "a", name("v", "p", "2.0"), cat, fixes={"CVE-2020-0001"})
    assert "a@1" not in graph.active_subgraph(g2).cves_of


def test_update_same_cpe_rejected():
    g, cat = chain_system()
    with pytest.raises(SelfSucc):
        graph.update_asset(g, "a3", name("v", "p3", "1.0"), cat)


def test_update_rollback_to_chain_member_rejected():
    g, cat = chain_system()
    g = graph.update_asset(g, "a3", name("v", "p3", "2.0"), cat)
    with pytest.raises(SelfSucc):
        graph.update_asset(g, "a3", name("v", "p3", "1.0"), cat)
    # chains therefore never contain duplicates
    chain = lineage_cpes(g, "a3")
    assert len(chain) == len(set(map(str, chain)))


def test_update_unknown_or_deprecated_asset_rejected():
    g, cat = chain_system()
    with pytest.raises(UnknownAsset):
        graph.update_asset(g, "ghost", name("v", "x", "1.0"), cat)
    g2 = graph.retire_asset(g, "a3")
    with pytest.raises(UnknownAsset):
        graph.update_asset(g2, "a3", name("v", "p3", "2.0"), cat)


def test_update_preserves_structure():
    g, cat = chain_system()
    g2 = graph.update_asset(g, "a2", name("v", "p2", "2.0"), cat)
    active = graph.active_subgraph(g2)
    # same shape modulo the renamed node
    assert {(e.source, e.target) for e in active.edges} == {
        (ROOT_ID, "a1@0"), ("a1@0", "a2@1"), ("a2@1", "a3@0"),
        ("a3@0", "CVE-2020-0001"),
    }


def test_patch_flips_edge():
    g, cat = chain_system()
    g2 = graph.patch_vuln(g, "a3", "CVE-2020-0001")
    assert Edge(source="a3@0", target="CVE-2020-0001", kind="deprecated") in g2.edges
    assert graph.active_subgraph(g2).vulns == {}
    with pytest.raises(UnknownCve):
        graph.patch_vuln(g2, "a1", "CVE-2020-0001")  # not attached there


def test_discover_requires_catalog_entry():
    g, cat = chain_system()
    with pytest.raises(UnknownCve):
        graph.discover_vuln(g, "a1", "CVE-1999-9999", cat)
    g2 = graph.discover_vuln(g, "a1", "CVE-2020-0001", cat)
    assert Edge(source="a1@0", target="CVE-2020-0001") in g2.edges


def test_retire_deprecates_all_incident_edges():
    g, cat = chain_system()
    g2 = graph.retire_asset(g, "a3")
    assert g2.assets["a3@0"].deprecated
    assert Edge(source="a2@0", target="a3@0", kind="deprecated") in g2.edges
    assert Edge(source="a3@0", target="CVE-2020-0001", kind="deprecated") in g2.edges
    assert len(graph.active_subgraph(g2).vulns) == 0


def test_add_asset_wires_dependencies():
    g, cat = chain_system()
    g2 = graph.add_asset(
        g, ManifestEntry("a4", name("v", "p4", "1.0")),
        [("a4", "a3"), ("a1", "a4")], cat,
    )
    assert Edge(source="a4@0", target="a3@0") in g2.edges
    assert Edge(source="a1@0", target="a4@0") in g2.edges
    with pytest.raises(DuplicateId):
        graph.add_asset(g2, ManifestEntry("a4", name("v", "p9", "1.0")), [], cat)
    with pytest.raises(UnknownDependencyTarget):
        graph.add_asset(g2, ManifestEntry("a5", name("v", "p5", "1.0")),
                        [("a1", "a2")], cat)


def test_lineage_fresh_asset():
    g, _ = chain_system()
    assert lineage_cpes(g, "a1") == [name("v", "p1", "1.0")]
    assert g.lineage("ghost") == []


@pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
def test_lineage_links_two_updates(indexed):
    g, cat = chain_system()
    if indexed:  # as a replay's working graph is
        g.build_index()
    g = graph.update_asset(g, "a3", name("v", "p3", "2.0"), cat)
    g = graph.update_asset(g, "a3", name("v", "p3", "3.0"), cat)
    assert lineage_cpes(g, "a3") == [
        name("v", "p3", "1.0"), name("v", "p3", "2.0"), name("v", "p3", "3.0"),
    ]
    assert [(n.node_id, n.deprecated) for n in g.lineage("a3")] == [
        ("a3@0", True), ("a3@1", True), ("a3@2", False),
    ]


def test_impact_linear_chain():
    g, _ = chain_system()
    assert graph.impact_set(g, "CVE-2020-0001") == {"a1", "a2", "a3"}


def test_impact_leaf_without_dependents():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119", affected=[wstr("v", "leaf", "1.0")]),
    ])
    m = manifest([("leaf", wstr("v", "leaf", "1.0")), ("other", wstr("v", "o", "1.0"))])
    g = graph.build_edg(name("v", "s"), m, cat, AT)
    assert graph.impact_set(g, "CVE-2020-0001") == {"leaf"}


def test_impact_unknown_cve():
    g, _ = chain_system()
    with pytest.raises(UnknownCve):
        graph.impact_set(g, "CVE-1999-0001")


def test_impact_openplc_libc_reaches_everything(openplc_snapshots):
    g = openplc_snapshots["V1"]
    libc_cve = graph.active_subgraph(g).cves_of[g.require_active("libc").node_id][0]
    assert graph.impact_set(g, libc_cve) == {a.asset_id for a in g.active_assets()}


def test_impact_terminates_on_cycles():
    cat = make_catalog(records=[
        record("CVE-2020-0001", 7.5, "CWE-119", affected=[wstr("v", "p1", "1.0")]),
    ])
    m = manifest(
        [("a1", wstr("v", "p1", "1.0")), ("a2", wstr("v", "p2", "1.0"))],
        [("a1", "a2"), ("a2", "a1")],
    )
    g = graph.build_edg(name("v", "s"), m, cat, AT)
    result = graph.impact_set(g, "CVE-2020-0001")
    assert result == {"a1", "a2"}
    assert graph.impact_set(g, "CVE-2020-0001") == result  # idempotent


def test_active_subgraph_identity_without_deprecations():
    g, _ = chain_system()
    active = graph.active_subgraph(g)
    assert set(active.assets) == set(g.assets)
    assert active.edges == g.edges


def test_active_subgraph_after_patching_everything():
    g, cat = chain_system()
    g = graph.patch_vuln(g, "a3", "CVE-2020-0001")
    assert graph.active_subgraph(g).vulns == {}


def test_no_self_edges_anywhere(openplc_snapshots):
    for g in openplc_snapshots.values():
        assert all(e.source != e.target for e in g.edges)


def test_every_node_connected_to_root(openplc_snapshots):
    for g in openplc_snapshots.values():
        active = graph.active_subgraph(g)
        neighbours: dict[str, set[str]] = {}
        for e in active.edges:
            neighbours.setdefault(e.source, set()).add(e.target)
            neighbours.setdefault(e.target, set()).add(e.source)
        seen = {ROOT_ID}
        stack = [ROOT_ID]
        while stack:
            for nxt in neighbours.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        everything = set(active.assets) | set(active.vulns) | {ROOT_ID}
        assert everything <= seen


def test_serialization_roundtrip():
    g, cat = chain_system()
    g = graph.update_asset(g, "a3", name("v", "p3", "2.0"), cat)
    doc = graph.edg_to_dict(g)
    again = graph.edg_from_dict(doc)
    assert graph.edg_to_dict(again) == doc
