"""Package-level checks: declared console scripts resolve, and no module in
src/ or tests/ imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def unused_imports(path):
    """(line, name) of every imported name that the module never reads.

    A name listed in the module's __all__ counts as used (a re-export), and
    __future__ imports are directives, not names.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py"))
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in files for line, name in unused_imports(p)]
    assert not found, found


def test_unused_import_scan_sees_re_exports_and_future(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import os.path\n"
                   "from json import dumps, loads as ld\n"
                   "from math import pi\n"
                   "__all__ = ['pi']\n"
                   "print(os.path.sep, ld)\n")
    assert unused_imports(src) == [(3, "dumps")]
