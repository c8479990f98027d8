"""Hypothesis fuzzing of the CLI's exit-code contract on edited snapshots
that still verify.

One or two fields of the assets, vulnerabilities or edges of one embedded
epoch of the bundled OpenPLC timeline are deleted or replaced, and every
digest is recomputed, so that the edited epoch is verified: a read decodes
it rather than rebuilding it, and ``event`` replays from it.  The commands of
``test_fuzz._commands`` and an update and a retirement of a drawn manifest
asset then run on the result through ``cli.main``.  None may raise, and each
exits 0 or 2; only ``alerts`` may exit 1, and only after it prints a firing.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from test_fuzz import _WORDS, TEXTS, _commands, _near_misses
from test_snapshot_lines import _redigested
from vulngraph import fixtures, timeline as tl_mod
from vulngraph.cli import main

CASES = 40

DOC = json.loads(TEXTS["timeline"])
ASSET_IDS = sorted(entry["id"] for entry in DOC["manifest"]["assets"])


def _pool(snap) -> list:
    """Every node id of ``snap`` and every value one of its fields holds,
    so that an edit can put one field's well-formed value in another."""
    values = {"root", *_WORDS}
    for section in ("assets", "vulns", "edges"):
        for element in snap[section]:
            values.update(v for v in element.values() if isinstance(v, str))
    return sorted(values)


@st.composite
def _edited(draw):
    """The bundled timeline with one or two fields of one epoch's snapshot
    edited and every digest recomputed, the edited epoch's label, and a
    manifest asset, often one whose node was edited."""
    doc = json.loads(TEXTS["timeline"])
    label = draw(st.sampled_from(sorted(doc["snapshots"])), "label")
    snap = doc["snapshots"][label]
    touched = []
    for _ in range(draw(st.integers(1, 2), "edits")):
        elements = snap[draw(st.sampled_from(["assets", "vulns", "edges"]), "section")]
        element = elements[draw(st.integers(0, len(elements) - 1), "index")]
        touched.append(element.get("asset_id"))
        key = draw(st.sampled_from(sorted(element)), "key")
        old = element[key]
        if draw(st.sampled_from([False, False, False, True]), "delete"):
            del element[key]
            continue
        if isinstance(old, str):
            same_type = st.sampled_from(_pool(snap))
        elif isinstance(old, bool):
            same_type = st.just(not old)
        else:
            same_type = st.nothing()
        new = element[key] = draw(same_type | st.sampled_from(_near_misses(old)), "value")
        if key in ("node_id", "cve_id"):  # a rename, in the node's edges too
            for edge in snap["edges"]:
                for end in ("source", "target"):
                    if edge.get(end) == old:
                        edge[end] = new
    touched = sorted({a for a in touched if a in ASSET_IDS})
    asset_id = draw(st.sampled_from(touched if touched and draw(st.booleans()) else ASSET_IDS))
    return _redigested(doc), label, asset_id


@settings(max_examples=CASES, deadline=None, derandomize=True)
@given(_edited())
def test_commands_on_an_edited_verified_snapshot_exit_0_or_2(edited):
    doc, label, asset_id = edited
    with tempfile.TemporaryDirectory() as tmp:
        timeline, out = Path(tmp) / "timeline.json", str(Path(tmp) / "out.json")
        timeline.write_text(json.dumps(doc))
        assert not tl_mod.load_timeline(timeline).stale, label
        catalog = str(fixtures.openplc_catalog_path())
        snap = ["--timeline", str(timeline), "--catalog", catalog]
        event = ["event", *snap, "--at", "2021-02-01T00:00:00Z", "--asset", asset_id,
                 "--out", out]
        for argv, codes in [
                *_commands(str(timeline), catalog, out),
                ([*event, "--kind", "asset-updated",
                  "--cpe", "cpe:2.3:a:acme:fuzzed:1.0:*:*:*:*:*:*:*"], {0, 2}),
                ([*event, "--kind", "asset-retired"], {0, 2})]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in codes, (label, argv[0], code, stderr.getvalue())
            if code == 1:
                assert stdout.getvalue().startswith("["), stdout.getvalue()
