"""The traced benchmark (``perfbench/spans.py``) wraps public names of every
module from outside the package; these tests keep those names in place and
use the same wrappers to count replay passes and snapshot decodes."""

import importlib.util
from pathlib import Path

import pytest

from helpers import update_patch_scenario
from vulngraph import report, timeline as tl_mod

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
