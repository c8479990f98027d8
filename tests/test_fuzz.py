"""Hypothesis fuzzing of the CLI's exit-code contract on edited documents.

One or two edits are made to the bundled OpenPLC timeline or catalog: a key
or list element is deleted, or a value is replaced by one of another type or
shape.  Every read command, and ``event``, then runs on the result through
``cli.main``.  None may raise, and each exits 0 or 2; only ``alerts`` may
exit 1, and only after it prints a firing.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vulngraph import fixtures
from vulngraph.cli import main

CASES = 100

TEXTS = {
    "timeline": fixtures.openplc_timeline_path().read_text(),
    "catalog": fixtures.openplc_catalog_path().read_text(),
}
DOCS = {name: json.loads(text) for name, text in TEXTS.items()}

# Strings of the two formats, so an edit can put a well-formed value of the
# wrong field, or a near miss, where another value was.
_WORDS = ["", "x", "V1", "V3", "libc", "libc@0", "root", "normal", "deprecated", "noop",
          "asset_updated", "CVE-2012-2333", "CVE-12-1", "CWE-119", "CWE-x", "CWE-NULL",
          "CAPEC-97", "2021-01-02T00:00:00Z", "2021-01-02", "1.0",
          "cpe:2.3:a:gnu:glibc:2.23:*:*:*:*:*:*:*", "cpe:2.3:a:gnu"]
_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(-1, 11) | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=2),
    max_leaves=4,
)


def _shapes(node, shape=()):
    """The paths of ``node`` with each list index written as None."""
    yield shape
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _shapes(child, shape + (key,))
    elif isinstance(node, list):
        for child in node:
            yield from _shapes(child, shape + (None,))


# Each document's shapes, so that an edit picks a kind of field evenly, not
# one of the thousands of snapshot fields.
SHAPES = {name: sorted(set(_shapes(doc)) - {()}, key=repr) for name, doc in DOCS.items()}


def _near_misses(node) -> list:
    """Values of the same type as ``node`` but of another shape, and the
    same value as another type."""
    if isinstance(node, str):
        return [node[:len(node) // 2], node.split("-", 1)[-1], node + "x", [node]]
    if isinstance(node, bool):
        return [int(node), str(node).lower()]
    if isinstance(node, (int, float)):
        return [-node - 1, node * 1000, node + 0.5, str(node)]
    if isinstance(node, list):
        return [node * 2, node[1:], [node], {}]
    if isinstance(node, dict):
        return [list(node.values()), {}, [node]]
    return [""]


def _edit(data, name, doc):
    """Follow a random shape of the document ``name`` down ``doc`` as far as
    it goes, drawing each list index, then delete the node reached or
    replace it; ``doc`` is edited in place."""
    parent, key, node = None, None, doc
    for step in data.draw(st.sampled_from(SHAPES[name]), "shape"):
        if isinstance(node, list) and step is None and node:
            step = data.draw(st.integers(0, len(node) - 1), "index")
        elif not (isinstance(node, dict) and step in node):
            break
        parent, key, node = node, step, node[step]
    if parent is None:  # an earlier edit deleted the shape's top-level key
        return
    if data.draw(st.booleans(), "delete"):
        del parent[key]
    else:
        parent[key] = data.draw(st.sampled_from(_near_misses(node)) | _value, "value")


def _commands(tl, cat, out):
    """Each command with the exit codes it may give."""
    snap = ["--timeline", tl, "--catalog", cat]
    return [
        (["metrics", *snap], {0, 2}),
        (["report", *snap], {0, 2}),
        (["event", *snap, "--kind", "noop", "--at", "2021-02-01T00:00:00Z", "--out", out],
         {0, 2}),
        (["diff", *snap, "--from-epoch", "V1", "--to-epoch", "V3"], {0, 2}),
        (["export", *snap, "--show-deprecated"], {0, 2}),
        (["impact", *snap, "--epoch", "V1", "--cve", "CVE-2012-2333"], {0, 2}),
        (["alerts", *snap, "--cvss-at-least", "9.0", "--metric-bound", "M1:>=:1"], {0, 1, 2}),
    ]


@settings(max_examples=CASES, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(DOCS)), st.integers(1, 2), st.data())
def test_commands_on_an_edited_document_exit_0_or_2(target, n_edits, data):
    doc = json.loads(TEXTS[target])
    for _ in range(n_edits):
        _edit(data, target, doc)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in TEXTS}
        for name, text in TEXTS.items():
            paths[name].write_text(json.dumps(doc) if name == target else text)
        for argv, codes in _commands(str(paths["timeline"]), str(paths["catalog"]),
                                     str(Path(tmp) / "out.json")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in codes, (argv[0], code, err.getvalue())
            if code == 1:
                assert out.getvalue().startswith("["), out.getvalue()
