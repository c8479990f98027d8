"""Metamorphic relations: what must not matter reaches no output.

The bundled study runs with its snapshots and digests dropped, so every read
replays the log through catalog lookups.  Each relation edits the catalog in
a way no number may depend on, and every command of the mix must then give
the same exit code, stdout and stderr as on the bundled catalog:

- the order of the catalog's vulnerabilities, weaknesses and attack
  patterns, and of each record's affected entries, does not matter (the
  remediation list stays in order: a report lists its entries in the
  catalog's order, by design);
- records for products no asset has do not matter.
"""

import contextlib
import io
import json
import random

import pytest

from vulngraph import fixtures
from vulngraph.cli import main

_EPOCHS = ("V1", "V2", "V3")
_COMMANDS = [
    ["report", "--format", "json"],
    ["report"],
    ["diff", "--from-epoch", "V1", "--to-epoch", "V3", "--json"],
    *([*command, "--epoch", epoch] for epoch in _EPOCHS for command in (
        ["metrics", "--json"],
        ["prioritize", "--json"],
        ["export", "--show-deprecated"],
        ["cluster", "--criterion", "cvss-below", "--threshold", "6.0"],
    )),
]


def _shuffled(doc: dict) -> dict:
    rng = random.Random(20_211)
    for key in ("vulnerabilities", "weaknesses", "attack_patterns"):
        rng.shuffle(doc[key])
    for record in doc["vulnerabilities"]:
        rng.shuffle(record["affected"])
    return doc


def _with_unused_products(doc: dict) -> dict:
    doc["vulnerabilities"] += [
        {"cve_id": f"CVE-2030-{10_000 + i}", "cvss": 9.8, "cwe_ids": ["CWE-119"],
         "affected": [{"cpe": f"cpe:2.3:a:nobody:thing{i}:1.0:*:*:*:*:*:*:*"}],
         "exploit_available": True, "published": "2010-01-01"}
        for i in range(500)
    ]
    return doc


_RELATIONS = {"shuffled": _shuffled, "unused-products": _with_unused_products}


def _outputs(catalog_doc: dict, timeline: str, work) -> list[tuple[int, str, str]]:
    """``(exit code, stdout, stderr)`` of every command of the mix."""
    catalog = work / "catalog.json"
    catalog.write_text(json.dumps(catalog_doc))
    outputs = []
    for command in _COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--timeline", timeline, "--catalog", str(catalog)])
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """The bundled timeline without snapshots or digests, and the mix's
    outputs on it with the bundled catalog."""
    work = tmp_path_factory.mktemp("metamorphic")
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    del doc["snapshots"], doc["digests"]
    timeline = work / "timeline.json"
    timeline.write_text(json.dumps(doc))
    catalog_doc = json.loads(fixtures.openplc_catalog_path().read_text())
    return str(timeline), _outputs(catalog_doc, str(timeline), work)


def test_the_mix_runs_cleanly_on_the_bundled_inputs(replayed):
    # Equal failures would make every relation hold trivially.
    _, want = replayed
    assert len(want) == 15
    assert all(code == 0 and out and not err for code, out, err in want)


@pytest.mark.parametrize("relation", sorted(_RELATIONS))
def test_a_catalog_edit_no_output_may_see_changes_no_output(replayed, tmp_path, relation):
    timeline, want = replayed
    catalog_doc = _RELATIONS[relation](json.loads(fixtures.openplc_catalog_path().read_text()))
    got = _outputs(catalog_doc, timeline, tmp_path)
    for command, before, after in zip(_COMMANDS, want, got):
        assert after == before, command
