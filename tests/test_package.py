"""Package-level checks: declared console scripts resolve, no module in
src/ or tests/ imports a name it never uses, no function in src/isorec goes
unnamed by the package and the bench, no module in src/ reads the
environment or runs text as code, only exactmath.adjoin_roots grows a
scalar field, the pipeline stages raise named errors, not bare builtin
ones, every named error is named in some test module, and the line trace
of tools/linetrace.py sees the statements that have code."""

import ast
import importlib.util
import re
from collections import Counter
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


DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def names_in(node):
    """How often each name is read under node: as a name, an attribute,
    an imported name or a part of a dotted-name string such as a trace
    target ("toprec.eo_differentials")."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and DOTTED_NAME.fullmatch(n.value)):
            out.update(n.value.split("."))
    return out


def unnamed_functions(defining, readers):
    """Qualified names of the functions and methods defined in `defining`
    that no module in `readers` names outside their own definition.
    Dunder methods are called by Python itself and are exempt."""
    named = Counter()
    for path in readers:
        named.update(names_in(ast.parse(path.read_text(), str(path))))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                visit(child, scope)
                continue
            qual = scope + (child.name,)
            name = child.name
            if (not isinstance(child, ast.ClassDef)
                    and not (name.startswith("__") and name.endswith("__"))
                    and named[name] <= names_in(child)[name]):
                found.append(".".join(qual))
            visit(child, qual)

    for path in defining:
        visit(ast.parse(path.read_text(), str(path)), ())
    return found


# functions that no stage calls yet, each kept for a stated next step
UNCALLED = {
    "hamiltonians": "ROADMAP item 6: a stage of the runner",
    "darboux": "ROADMAP item 6: a stage of the runner",
    "HamiltonianSet.reassemble": "ROADMAP item 6: with hamiltonians",
    "HamiltonianSet.classify": "ROADMAP item 6: with hamiltonians",
    "recombine": "test oracle: inverts partial_fractions",
}


def test_every_function_is_named_by_the_package_or_the_bench():
    # code that only tests reach is code no stage runs; a package's
    # __init__ re-exports names, and a re-export is no use
    src = sorted((ROOT / "src").rglob("*.py"))
    found = unnamed_functions(
        sorted((ROOT / "src" / "isorec").rglob("*.py")),
        [p for p in src if p.name != "__init__.py"]
        + sorted((ROOT / "isobench").rglob("*.py")))
    assert sorted(found) == sorted(UNCALLED)


def test_unnamed_function_scan_sees_names_strings_and_scopes(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from os import path as p\n"
                   "class A:\n"
                   "    def __eq__(self, other):\n"
                   "        return p\n"
                   "    def a(self):\n"
                   "        return 1\n"
                   "    def b(self):\n"
                   "        return self.b()\n"
                   "def c():\n"
                   "    def d():\n"
                   "        return 'e f'\n"
                   "    return d\n"
                   "def e():\n"
                   "    return 'mod.c'\n"
                   "def path():\n"
                   "    pass\n"
                   "def dumps():\n"
                   "    pass\n")
    reader = tmp_path / "bench.py"
    reader.write_text("TARGETS = ['mod.A.a']\n"
                      "import json.dumps\n")
    assert unnamed_functions([src], [src, reader]) == ["A.b", "e"]
    assert unnamed_functions([src], [src]) == ["A.a", "A.b", "e", "dumps"]


BARE_ERRORS = ("TypeError", "ValueError", "ZeroDivisionError")


def bare_raises(path):
    """(line, name) of every raise of a builtin error in BARE_ERRORS, as a
    class or a call, with or without a cause."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BARE_ERRORS:
            found.append((node.lineno, exc.id))
    return sorted(found)


def test_stages_raise_named_errors():
    # bad input to a stage raises an IsorecError; exactmath keeps the
    # builtin errors of the number types it extends
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in sorted((ROOT / "src" / "isorec").glob("*.py"))
             for line, name in bare_raises(p)]
    assert not found, found


def test_bare_raise_scan_sees_calls_classes_and_causes(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("try:\n"
                   "    raise TypeError('a')\n"
                   "except ZeroDivisionError as err:\n"
                   "    raise ValueError from err\n"
                   "except KeyError:\n"
                   "    raise\n"
                   "raise ZeroDivisionError\n"
                   "raise RuntimeError('TypeError')\n")
    assert bare_raises(src) == [(2, "TypeError"), (4, "ValueError"),
                                (7, "ZeroDivisionError")]


def unnamed_classes(defining, readers):
    """The top-level classes of the module `defining` that no module in
    `readers` names: as a name it reads, an import or an attribute."""
    tree = ast.parse(defining.read_text(), str(defining))
    classes = [node.name for node in tree.body
               if isinstance(node, ast.ClassDef)]
    named = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [name for name in classes if name not in named]


def test_every_named_error_is_named_by_a_test():
    # a refusal that no test names is one that no test has seen raised
    from isorec import errors
    defining = ROOT / "src" / "isorec" / "errors.py"
    assert all(issubclass(getattr(errors, name), errors.IsorecError)
               for name in unnamed_classes(defining, []))
    missing = unnamed_classes(defining,
                              sorted((ROOT / "tests").glob("test_*.py")))
    assert not missing, missing


def test_error_scan_sees_names_imports_and_attributes(tmp_path):
    defining = tmp_path / "errors.py"
    defining.write_text("".join("class %s(Exception):\n    pass\n" % c
                                for c in "ABCDE"))
    reader = tmp_path / "test_mod.py"
    reader.write_text("import errors\n"
                      "from errors import A\n"
                      "def test_b():\n"
                      "    raise errors.B('D')\n"
                      "try:\n"
                      "    pass\n"
                      "except C:  # E\n"
                      "    pass\n")
    assert unnamed_classes(defining, [reader]) == ["D", "E"]
    assert unnamed_classes(defining, []) == list("ABCDE")


CODE_RUNNERS = ("eval", "exec", "compile")


def code_runners(path):
    """(line, name) of every use of the builtins eval, exec and compile: by
    name, which covers calls and aliases alike, or through the builtins
    module."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in CODE_RUNNERS:
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.Attribute) and node.attr in CODE_RUNNERS
              and isinstance(node.value, ast.Name)
              and node.value.id == "builtins"):
            found.append((node.lineno, "builtins." + node.attr))
    return sorted(found)


def test_no_module_runs_text_as_code():
    # text becomes an element only through parse_element's whitelist walk
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in sorted((ROOT / "src").rglob("*.py"))
             for line, name in code_runners(p)]
    assert not found, found


def test_code_runner_scan_sees_builtins_not_methods(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import builtins, re\n"
                   "eval('1')\n"
                   "pattern = re.compile('eval')\n"
                   "builtins.exec('pass')\n"
                   "run = compile\n"
                   "print('exec(x)', pattern.compile)\n")
    assert code_runners(src) == [(2, "eval"), (4, "builtins.exec"),
                                 (5, "compile")]


ENV_READERS = ("environ", "environb", "getenv", "getenvb")


def environment_reads(path):
    """(line, name) of every use of os.environ or os.getenv in a module,
    whether through the os module under any name or imported from it."""
    tree = ast.parse(path.read_text(), str(path))
    os_names = {"os"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names |= {alias.asname for alias in node.names
                         if alias.name == "os" and alias.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, "os." + alias.name)
                      for alias in node.names if alias.name in ENV_READERS]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name)
                and node.value.id in os_names):
            found.append((node.lineno, "os." + node.attr))
    return sorted(found)


def test_no_module_reads_the_environment():
    # a code path is chosen by the inputs alone, never by a switch
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in sorted((ROOT / "src").rglob("*.py"))
             for line, name in environment_reads(p)]
    assert not found, found


def test_environment_scan_sees_aliases_and_imported_names(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\n"
                   "import os as system\n"
                   "from os import getenv as ge, sep\n"
                   "print(os.path.join('a', sep), 'os.environ')\n"
                   "print(os.environ.get('A'), system.getenv('B'))\n"
                   "print(ge('C'), os.getpid())\n")
    assert environment_reads(src) == [(3, "os.getenv"), (5, "os.environ"),
                                      (5, "os.getenv")]


def quadratic_extension_calls(path):
    """(line, scope) of every call of QuadraticExtension in a module, by its
    own name, an alias or an attribute; scope is the dotted path of the
    enclosing classes and functions, "" at module level."""
    tree = ast.parse(path.read_text(), str(path))
    names = {"QuadraticExtension"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname for alias in node.names
                      if alias.name == "QuadraticExtension" and alias.asname}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if ((isinstance(func, ast.Name) and func.id in names)
                        or (isinstance(func, ast.Attribute)
                            and func.attr == "QuadraticExtension")):
                    found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(tree, ())
    return sorted(found)


def test_only_adjoin_roots_grows_a_scalar_field():
    # the tower holds one square root, adjoined and named in one place, and
    # no other code of the package builds a quadratic extension
    found = {(p.relative_to(ROOT).as_posix(), scope)
             for p in sorted((ROOT / "src").rglob("*.py"))
             for _line, scope in quadratic_extension_calls(p)}
    assert found == {("src/isorec/exactmath/fields.py", "adjoin_roots")}


def test_extension_scan_sees_scopes_aliases_and_attributes(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from isorec import exactmath\n"
                   "from isorec.exactmath import QuadraticExtension as QE\n"
                   "K = QE(None, 2)\n"
                   "class C:\n"
                   "    def f(self):\n"
                   "        def g():\n"
                   "            return exactmath.QuadraticExtension(1, 2)\n"
                   "        return g, 'QuadraticExtension(1, 2)'\n"
                   "def h(ext=QE):\n"
                   "    return ext\n")
    assert quadratic_extension_calls(src) == [(3, ""), (7, "C.f.g")]


def load_linetrace():
    spec = importlib.util.spec_from_file_location(
        "linetrace", ROOT / "tools" / "linetrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_trace_lists_statements_with_code_and_marks_refusals(tmp_path):
    linetrace = load_linetrace()
    src = tmp_path / "mod.py"
    src.write_text("def f(x):\n"
                   "    \"\"\"A docstring has no code.\"\"\"\n"
                   "    if x:\n"
                   "        raise ValueError(x)\n"
                   "    def g():\n"
                   "        return 1\n"
                   "    try:\n"
                   "        x = g()\n"
                   "    except KeyError:\n"
                   "        x = 2\n"
                   "        raise\n"
                   "    return x\n")
    got = linetrace.unreached(str(src), set())
    assert [(line, refusal) for line, refusal, _ in got] == [
        (1, False), (3, False), (4, True), (5, False), (6, False),
        (7, False), (8, False), (10, True), (11, True), (12, False)]
    assert got[2][2] == "raise ValueError(x)"
    assert linetrace.unreached(str(src), {1, 3, 5, 6, 7, 8, 12}) == [
        (4, True, "raise ValueError(x)"), (10, True, "x = 2"),
        (11, True, "raise")]
