"""Every name a module of the package imports is used in that module, and
every private helper the package defines is referenced in the package.

Deleting code tends to leave its imports and helpers behind; this catches
them.  `__init__.py` is left out of the import check because it imports
in order to re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "copoisson"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        (1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """Module-level `_name` functions and classes and `_name` methods of
    module-level classes; dunder names are not private helpers."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    out = []
    for node in tree.body:
        if isinstance(node, defs):
            if _is_private(node.name):
                out.append(node)
            if isinstance(node, ast.ClassDef):
                out.extend(n for n in node.body if isinstance(n, defs[:2])
                           and _is_private(n.name))
    return out


def orphaned_helpers(sources):
    """(source name, line, helper) of each private definition whose name
    is not referenced anywhere in `sources`, a {name: source text} map."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted((name, node.lineno, node.name)
                  for name, tree in trees.items()
                  for node in private_definitions(tree)
                  if node.name not in referenced)


def test_detects_an_orphaned_helper():
    a = ("def _used():\n    pass\n\ndef _orphan():\n    pass\n\n"
         "class _Box:\n    def _get(self):\n        pass\n"
         "    def __len__(self):\n        return 0\n")
    b = "from a import _used, _Box\n_used()\n"
    assert orphaned_helpers({"a": a, "b": b}) == [("a", 4, "_orphan"),
                                                 ("a", 8, "_get")]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert sum(len(private_definitions(ast.parse(text)))
               for text in sources.values()) > 0
    assert orphaned_helpers(sources) == []
