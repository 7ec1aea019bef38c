"""List the statements of src/isorec that neither tier-1 nor the bench runs.

    python tools/linetrace.py [PYTEST_ARGS...]

Runs the tier-1 suite in-process (pytest, by default on tests/) and then
every workload of isobench/workloads.py with its correctness gate, all
under one sys.settrace line tracer, and prints each statement of
src/isorec/**/*.py that no line event reached, as

    src/isorec/module.py:LINE  [refusal]  first line of the statement

A refusal is a raise, or a statement of a block that ends in one.  The
summary line counts the unreached statements and the refusals among them
and names the Hypothesis seed; the exit status is pytest's.  Unless the
arguments give one, pytest gets --hypothesis-seed=0, so that the property
tests draw the same examples, and the count repeats, from run to run.
The package is imported only after the tracer is installed, so its
import-time statements count.  Tracing makes tier-1 several times slower;
a code object stops being traced once every one of its lines has run.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "isorec")
DEFAULT_PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "tests"]
DEFAULT_SEED = "0"


class LineTracer:
    """Line events of the code objects under one directory, as
    {filename: set of line numbers}."""

    def __init__(self, directory):
        self.prefix = directory + os.sep
        self.hits = {}
        self.lines = {}  # code object -> its own line numbers, while traced
        self.done = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        elif event == "return":
            code = frame.f_code
            if self.lines[code] <= self.hits[code.co_filename]:
                self.done.add(code)
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        if code in self.done or not code.co_filename.startswith(self.prefix):
            return None
        if code not in self.lines:
            self.lines[code] = {line for _, _, line in code.co_lines()
                                if line}
            self.hits.setdefault(code.co_filename, set())
        return self._local

    def install(self):
        sys.settrace(self._global)

    def remove(self):
        sys.settrace(None)


def executable_lines(code):
    """The line numbers of a code object and of all its nested ones."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statements(tree):
    """(statement, is_refusal) for every statement of a module's tree."""
    out = []

    def visit(body):
        refusal = bool(body) and isinstance(body[-1], ast.Raise)
        for stmt in body:
            out.append((stmt, refusal or isinstance(stmt, ast.Raise)))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []))
            for block in getattr(stmt, "handlers", []) + getattr(
                    stmt, "cases", []):
                visit(block.body)

    visit(tree.body)
    return out


def unreached(path, hits):
    """(line, is_refusal, text) of the statements of a file that have code
    of their own (a docstring has none) and were never reached."""
    with open(path) as fh:
        source = fh.read()
    runnable = executable_lines(compile(source, path, "exec"))
    text = source.splitlines()
    return [(stmt.lineno, refusal, text[stmt.lineno - 1].strip())
            for stmt, refusal in statements(ast.parse(source, path))
            if stmt.lineno in runnable and stmt.lineno not in hits]


def run_workloads():
    sys.path.insert(0, os.path.join(ROOT, "isobench"))
    import gate
    import workloads
    for name in ("airy-g0n7", "twobranch-g2n1", "p1"):
        inputs = workloads.build(name)
        out = dict(inputs)
        workloads.run(name, inputs, out)
        gate.evaluate(name, out)


def seeded(pytest_args):
    """The pytest arguments with a Hypothesis seed, and that seed."""
    args = list(pytest_args or DEFAULT_PYTEST_ARGS)
    for i, arg in enumerate(args):
        if arg.startswith("--hypothesis-seed="):
            return args, arg.partition("=")[2]
        if arg == "--hypothesis-seed" and i + 1 < len(args):
            return args, args[i + 1]
    return args + ["--hypothesis-seed=" + DEFAULT_SEED], DEFAULT_SEED


def main(pytest_args):
    import pytest
    pytest_args, seed = seeded(pytest_args)
    print("hypothesis seed %s" % seed)
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = LineTracer(PACKAGE)
    tracer.install()
    try:
        status = pytest.main(pytest_args)
        run_workloads()
    finally:
        tracer.remove()
    total = refusals = 0
    for folder, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            for line, refusal, text in unreached(
                    path, tracer.hits.get(path, set())):
                total += 1
                refusals += refusal
                print("%s:%d  %s%s" % (os.path.relpath(path, ROOT), line,
                                       "[refusal]  " if refusal else "", text))
    print("%d statements unreached, %d of them refusals (pytest exit %d, "
          "hypothesis seed %s)" % (total, refusals, status, seed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
