"""Timestamps, dates and ids take ASCII digits only.

Python's ``\\d`` matches any Unicode decimal digit, so without ``re.ASCII``
a fullwidth ``２０２０`` or an Arabic-Indic ``٢٠٢٠`` passes as a year, and a
timestamp made of them sorts after every ASCII one.  Every field of that
form refuses them with exit 2 and its path, and a guard holds every pattern
of the package to ``re.ASCII`` where it uses a class escape.
"""

import ast
import importlib
import json
import re
import shutil
from pathlib import Path

import pytest

import vulngraph
from vulngraph import fixtures
from vulngraph.cli import main

MODULES = sorted(Path(vulngraph.__file__).parent.glob("*.py"))

# A backslash that no other backslash escapes, before d, w or s of either case.
_CLASS_ESCAPE = re.compile(r"(?<!\\)(?:\\\\)*\\[dDwWsS]")

DIGITS = pytest.mark.parametrize("digits", [
    pytest.param({ord("0") + i: 0xFF10 + i for i in range(10)}, id="fullwidth"),
    pytest.param({ord("0") + i: 0x0660 + i for i in range(10)}, id="arabic-indic"),
])


def _patterns():
    """Each ``re`` call of the package by its place, with the pattern it
    compiled.  Every call must be ``NAME = re.compile(...)`` at module level,
    so that the compiled pattern can be read off the module."""
    found = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        compiled = {id(node.value): node.targets[0].id for node in tree.body
                    if isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"):
                where = f"{path.name}:{node.lineno}"
                assert node.func.attr == "compile" and id(node) in compiled, where
                module = importlib.import_module(f"vulngraph.{path.stem}")
                found[where] = getattr(module, compiled[id(node)])
    return found


def test_every_pattern_with_a_class_escape_is_ascii():
    patterns = _patterns()
    assert len(patterns) >= 5
    loose = [where for where, pattern in patterns.items()
             if _CLASS_ESCAPE.search(pattern.pattern) and not pattern.flags & re.ASCII]
    assert loose == []


@DIGITS
def test_event_at_takes_ascii_digits_only(tmp_path, capsys, digits):
    tl = tmp_path / "timeline.json"
    shutil.copy(fixtures.openplc_timeline_path(), tl)
    at = "2031-01-01T00:00:00Z".translate(digits)
    assert main(["event", "--timeline", str(tl), "--catalog", str(fixtures.openplc_catalog_path()),
                 "--kind", "noop", "--at", at]) == 2
    assert f"SchemaError: --at: bad timestamp {at!r}" in capsys.readouterr().err
    assert tl.read_bytes() == fixtures.openplc_timeline_path().read_bytes()


def _translate(doc, keys, digits):
    """``doc`` with the string at ``keys`` written in ``digits``, in place."""
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = parent[keys[-1]].translate(digits)


@DIGITS
@pytest.mark.parametrize("keys,path", [
    pytest.param(("built_at",), "built_at", id="built-at"),
    pytest.param(("events", 0, "at"), "events[0].at", id="event-at"),
    pytest.param(("epochs", 0, "at"), "epochs[0].at", id="epoch-at"),
])
def test_timeline_fields_take_ascii_digits_only(tmp_path, capsys, digits, keys, path):
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    _translate(doc, keys, digits)
    tl = tmp_path / "timeline.json"
    tl.write_text(json.dumps(doc))
    assert main(["metrics", "--timeline", str(tl), "--epoch", "V1"]) == 2
    assert f"SchemaError: {path}: " in capsys.readouterr().err


@DIGITS
def test_snapshot_vulnerability_ids_take_ascii_digits_only(tmp_path, capsys, digits):
    # Without digests the snapshot is read unverified, so only its decode
    # can refuse the id, which its edges name too.
    doc = json.loads(fixtures.openplc_timeline_path().read_text())
    del doc["digests"]
    text = json.dumps(doc["snapshots"]["V1"])
    doc["snapshots"]["V1"] = json.loads(text.replace("CVE-2012-2333",
                                                     "CVE-2012-2333".translate(digits)))
    tl = tmp_path / "timeline.json"
    tl.write_text(json.dumps(doc))
    assert main(["metrics", "--timeline", str(tl), "--epoch", "V1"]) == 2
    assert ("SchemaError: snapshots.V1: malformed embedded snapshot: ValueError: vulns: bad "
            "CVE id 'CVE-" in capsys.readouterr().err)


@DIGITS
@pytest.mark.parametrize("keys,message", [
    pytest.param(("vulnerabilities", 0, "published"), "bad date", id="published"),
    pytest.param(("vulnerabilities", 0, "cve_id"), "bad CVE id", id="cve-id"),
    pytest.param(("vulnerabilities", 0, "cwe_ids", 0), "bad CWE id", id="record-cwe-id"),
    pytest.param(("weaknesses", 0, "cwe_id"), "bad CWE id", id="cwe-id"),
    pytest.param(("attack_patterns", 0, "capec_id"), "bad CAPEC id", id="capec-id"),
])
def test_catalog_fields_take_ascii_digits_only(tmp_path, capsys, digits, keys, message):
    doc = json.loads(fixtures.openplc_catalog_path().read_text())
    _translate(doc, keys, digits)
    cat = tmp_path / "catalog.json"
    cat.write_text(json.dumps(doc))
    assert main(["metrics", "--timeline", str(fixtures.openplc_timeline_path()),
                 "--catalog", str(cat), "--epoch", "V1"]) == 2
    path = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in keys)[1:]
    assert f"SchemaError: {path}: {message} " in capsys.readouterr().err
