"""The traced benchmark (``perfbench/spans.py``) wraps public names of every
module from outside the package; these tests keep those names in place and
use the same wrappers to count replay passes and snapshot decodes.  They
also check that the benchmark's generated inputs hold no stale epoch."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from gen import random_timeline
from helpers import make_catalog, name, record, update_patch_scenario, wstr
from vulngraph import catalog as cat_mod, cli, cpe, fixtures, report, timeline as tl_mod
from vulngraph.graph import ClusterRule
from vulngraph.report import AlertRule, RenderOptions

_ROOT = Path(__file__).resolve().parents[1]
_SPANS_PATH = _ROOT / "perfbench" / "spans.py"


@pytest.fixture()
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooked = [(owner, attr) for owner, attr, _ in spans.SPANS + spans.COUNTERS]
    originals = {(owner, attr): owner.__dict__.get(attr) for owner, attr in hooked}
    tracer = spans.Tracer()
    tracer.install()  # a KeyError here names a hooked function that is gone
    tracer.set_op(0)
    try:
        yield tracer
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"


def test_embed_replays_once(tracer):
    tl, cat = update_patch_scenario()
    tl_mod.embed_snapshots(tl, cat)
    assert tracer.cur["timeline.replay"] == 1
    tl_mod.epoch_snapshots(tl, cat)
    assert tracer.cur["timeline.replay"] == 2


def test_report_decodes_each_epoch_once(tracer):
    tl, cat = update_patch_scenario()
    tl = tl_mod.embed_snapshots(tl, cat)
    tracer.cur.clear()
    report.report_payload(tl, cat)
    assert tracer.cur["graph.from_dict"] == len(tl.epochs)
    assert "timeline.replay" not in tracer.cur
    assert "graph.active_cves" not in tracer.cur


def test_lookup_tests_only_candidates(tracer):
    # 20 products with 5 records each, plus 3 records for any product of
    # vendor v0: a lookup tests one product's records and the wildcard ones.
    records = [record(f"CVE-2020-{p * 5 + i:04d}", 5.0, affected=[wstr("v0", f"p{p}", "1.0")])
               for p in range(20) for i in range(5)]
    records += [record(f"CVE-2021-{i:04d}", 5.0, affected=[wstr("v0", "*", "1.0")])
                for i in range(3)]
    cat = make_catalog(records=records)
    tracer.cur.clear()
    hits = cat.lookup_vulnerabilities(name("v0", "p7", "1.0"), "2030-01-01T00:00:00Z")
    assert len(hits) == 5 + 3
    assert tracer.cur["catalog.applies_to"] == 5 + 3


@pytest.fixture()
def version_keys(monkeypatch):
    """Counts ``cpe.version_key`` calls while the test runs."""
    calls = [0]
    original = cpe.version_key

    def counted(text):
        calls[0] += 1
        return original(text)

    monkeypatch.setattr(cpe, "version_key", counted)
    return calls


def test_repeated_lookup_keys_the_name_once(version_keys):
    records = [record(f"CVE-2020-{i:04d}", 5.0, affected=[(wstr("v", "p"), f"1.{i}", "9.0")])
               for i in range(5)]
    cat = make_catalog(records=records)
    at = "2030-01-01T00:00:00Z"
    first = cat.lookup_vulnerabilities(name("v", "p", "1.3"), at)
    assert version_keys[0] <= 1 + 2 * len(records)
    version_keys[0] = 0
    assert cat.lookup_vulnerabilities(name("v", "p", "1.3"), at) == first
    assert len(first) == 4
    assert version_keys[0] == 1


def test_embed_keys_each_bound_once(tracer, version_keys):
    lookups = calls = ranged_total = 0
    for seed in range(40):
        tl, cat = random_timeline(random.Random(seed))
        # a fresh load, so that no range holds keys from generating the timeline
        cat = cat_mod.catalog_from_dict(cat_mod.catalog_to_dict(cat))
        ranged = sum(entry.versions is not None
                     for r in cat.vulnerabilities.values() for entry in r.affected)
        tracer.cur.clear()
        version_keys[0] = 0
        tl_mod.embed_snapshots(tl, cat)
        looked_up = tracer.cur.get("catalog.lookup", 0)
        assert version_keys[0] <= looked_up + 2 * ranged, seed
        lookups += looked_up
        calls += version_keys[0]
        ranged_total += ranged
    assert lookups and ranged_total and calls


def _cpe_strings(doc) -> set[str]:
    """Every CPE name written anywhere in a timeline document."""
    if isinstance(doc, list):
        return set().union(*map(_cpe_strings, doc))
    if not isinstance(doc, dict):
        return set()
    found = {v for k, v in doc.items() if k in ("sut", "cpe", "cpe_previous") and v}
    return found.union(*map(_cpe_strings, doc.values()))


def test_load_parses_each_distinct_cpe_once(tracer):
    path = fixtures.openplc_timeline_path()
    distinct = _cpe_strings(json.loads(path.read_text()))
    tracer.cur.clear()
    tl = tl_mod.load_timeline(path)
    tl_mod.epoch_snapshots(tl, None)
    assert tracer.cur["graph.from_dict"] == len(tl.epochs)
    assert tracer.cur["cpe.parse"] == len(distinct)


def test_catalog_load_parses_each_distinct_pattern_once(tracer):
    path = fixtures.openplc_catalog_path()
    doc = json.loads(path.read_text())
    distinct = {entry["cpe"] for r in doc["vulnerabilities"] for entry in r["affected"]}
    tracer.cur.clear()
    cat_mod.load_catalog(path)
    assert tracer.cur["catalog.load"] == 2  # load_catalog and catalog_from_dict
    assert tracer.cur["cpe.parse"] == len(distinct)


def test_report_builds_one_active_view_per_epoch(tracer):
    tl, cat = update_patch_scenario()
    tl = tl_mod.embed_snapshots(tl, cat)
    tracer.cur.clear()
    report.report_payload(tl, cat)
    assert tracer.cur["graph.active_subgraph"] == len(tl.epochs)


def test_alerts_build_one_active_view(tracer):
    tl, cat = update_patch_scenario()
    g = tl_mod.epoch_snapshot(tl, cat, "t2")
    rules = [AlertRule.cvss_at_least(7.0), AlertRule.metric_bound("M1", ">=", 1),
             AlertRule.cvss_at_least(9.0)]
    tracer.cur.clear()
    assert len(report.check_alerts(g, rules)) == 2
    assert tracer.cur["graph.active_subgraph"] == 1


def test_report_reads_each_view_through_the_public_metrics(tracer):
    tl, cat = update_patch_scenario()
    tl = tl_mod.embed_snapshots(tl, cat)
    tracer.cur.clear()
    report.report_payload(tl, cat)
    assert tracer.cur["metrics.snapshot_report"] == len(tl.epochs)
    assert tracer.cur["metrics.prioritize"] == len(tl.epochs)


def test_export_clusters_the_view_it_draws(tracer):
    tl, cat = update_patch_scenario()
    g = tl_mod.epoch_snapshot(tl, cat, "t2")
    opts = RenderOptions(cluster_rule=ClusterRule.no_vulnerabilities(), show_deprecated=False)
    tracer.cur.clear()
    report.export_dot(g, opts)
    assert tracer.cur["graph.cluster"] == 1
    assert tracer.cur["graph.active_subgraph"] == 1


def _openplc():
    return (tl_mod.load_timeline(fixtures.openplc_timeline_path()),
            cat_mod.load_catalog(fixtures.openplc_catalog_path()))


def test_embed_clones_once_per_epoch_mark(tracer):
    tl, cat = _openplc()
    assert len(tl.events) > len(tl.epochs)
    tracer.cur.clear()
    tl_mod.embed_snapshots(tl, cat)
    assert tracer.cur["timeline.apply"] == len(tl.events)
    assert tracer.cur["graph.clone"] == len(tl.epochs)


def test_embed_binds_each_distinct_name_once(tracer):
    loaded, cat = _openplc()
    tl = tl_mod.Timeline(sut_cpe=loaded.sut_cpe, manifest=loaded.manifest,
                         built_at=loaded.built_at, events=loaded.events, epochs=loaded.epochs)
    tracer.cur.clear()
    embedded, _ = tl_mod.update_snapshots(tl, cat)
    binds = tracer.cur["cpe.bind"]
    assert 0 < binds <= len(_cpe_strings(tl_mod.timeline_to_dict(embedded)["snapshots"]))


def test_a_loaded_timeline_binds_no_name_the_file_held_as_its_binding(tracer):
    # Every CPE name of the bundled file is written as its binding, so
    # verifying the digests and embedding again bind none.
    tracer.cur.clear()
    tl, cat = _openplc()
    tl_mod.embed_snapshots(tl, cat)
    assert tracer.cur["cpe.parse"] > 0 and tracer.cur.get("cpe.bind", 0) == 0


@pytest.mark.parametrize("digests", [True, False], ids=["with-digests", "without-digests"])
def test_event_replays_only_without_verified_snapshots(tracer, tmp_path, digests):
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    if not digests:
        del doc["digests"]
    (tmp_path / "in.json").write_text(json.dumps(doc))
    argv = ["event", "--timeline", str(tmp_path / "in.json"),
            "--catalog", str(fixtures.openplc_catalog_path()), "--kind", "asset-updated",
            "--asset", "libc", "--cpe", wstr("gnu", "glibc", "2.99"),
            "--at", "2030-01-01T00:00:00Z", "--out", str(tmp_path / "out.json")]
    tracer.cur.clear()
    assert cli.main(argv) == 0
    if digests:
        assert "timeline.replay" not in tracer.cur
        assert tracer.cur["graph.from_dict"] == 1
    else:
        assert tracer.cur["timeline.replay"] == 1
    written = json.loads((tmp_path / "out.json").read_text())
    assert written["snapshots"] == json.loads(
        fixtures.openplc_timeline_path().read_text())["snapshots"]


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (_ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_benchmark_inputs_hold_no_stale_epoch(tmp_path, workload):
    # Every benchmark command then keeps every stored epoch and replays only
    # from the last one, so the benchmark times no rebuild of a stale epoch.
    spec = importlib.util.spec_from_file_location("perfbench_gen", _ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.make_inputs(workload, 1, tmp_path)
    tl = tl_mod.load_timeline(tmp_path / "timeline.json")
    assert tl.stale == frozenset()
    assert set(tl.digests) == set(tl.snapshots) == set(tl.epoch_labels())
