"""Lint gates: every name a module of the package imports is used in it, and
every private module-level helper is read by some module of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qrdyn"


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ are re-exports
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "import math\nfrom typing import List, Optional\nx: Optional[int] = math.pi\n"
    assert unused_imports(src) == [(2, "List")]


def test_all_counts_as_use():
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source):
    """(line, name) of each module-level private function, class or
    constant (one leading underscore) that the module defines."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(node.lineno, n) for n in names
                if n.startswith("_") and not n.startswith("__")]
    return out


def referenced_names(source):
    """Every name that the source reads, as a name, an attribute or an
    imported name."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def orphaned_helpers(sources):
    """(module, line, name) of each private definition that no module of
    ``sources`` (module name -> source) reads."""
    refs = set().union(*map(referenced_names, sources.values()))
    return sorted((module, line, name) for module, src in sources.items()
                  for line, name in private_definitions(src) if name not in refs)


def test_detects_an_orphaned_helper():
    sources = {"a": "_K = 2\n\ndef _used():\n    return _K\n\ndef _dead():\n    pass\n\n"
                    "class _Old:\n    pass\n\nx = _used()\n",
               "b": "from .a import _Other\n"}
    assert orphaned_helpers(sources) == [("a", 6, "_dead"), ("a", 9, "_Old")]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_helpers(sources) == []
