"""Every name a module of the package imports is read in that module.

A name imported only to be found on the module, by a wrapper or a
re-export, says so: its import line carries ``noqa: F401``, or the module
lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import vulngraph

MODULES = sorted(Path(vulngraph.__file__).parent.glob("*.py"))


def _unread_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.split("\n")
    tree = ast.parse(source)
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert _unread_imports(path) == []
