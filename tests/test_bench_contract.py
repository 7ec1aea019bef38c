"""The names the benchmark reaches into must exist in isorec.

isobench/tracing.py wraps isorec functions and methods by name, the
workloads call the pipeline stages, and the benchmark's correctness gate
builds constant hbar series through HbarSeries.constant.  A refactor that
renames, moves or drops a parameter of one of them breaks the benchmark;
these tests fail first.  The workloads also run here: their outputs must
match the digests the benchmark has committed, and on p1 every check of the
correctness gate must pass.
"""

import ast
import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from isorec.exactmath import HbarSeries

BENCH = Path(__file__).resolve().parents[1] / "isobench"


def load_bench(name):
    """The benchmark module isobench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("isobench_" + name,
                                                  BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for stem, modname, attr, _ in load_bench("tracing").TARGETS:
        owner = importlib.import_module(modname)
        clsname, _, name = attr.rpartition(".")
        if clsname:
            # the tracer replaces the method in the class's own namespace
            cls = getattr(owner, clsname, None)
            found = cls is not None and name in cls.__dict__
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append("%s (%s.%s)" % (stem, modname, attr))
    assert not missing, "trace targets missing: %s" % ", ".join(missing)


def test_gate_constant_series():
    s = HbarSeries.constant(Fraction(3), 2, Fraction(0))
    assert s.coeff(0) == 3 and s.coeff(1) == 0


def _isorec_names(tree):
    """Names bound by ``from isorec... import ...``, mapped to the objects."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "isorec":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(owner, alias.name)
    return names


def _resolve(expr, names):
    """(dotted name, object) of a call target rooted at an isorec name."""
    if isinstance(expr, ast.Name):
        return (expr.id, names[expr.id]) if expr.id in names else None
    if isinstance(expr, ast.Attribute):
        base = _resolve(expr.value, names)
        if base is not None:
            dotted, obj = base
            return dotted + "." + expr.attr, getattr(obj, expr.attr)
    return None


def _bench_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = _isorec_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = _resolve(node.func, names)
            if target is not None and callable(target[1]):
                yield target[0], target[1], node


def test_bench_calls_match_signatures():
    bad = []
    seen = set()
    for path in (BENCH / "workloads.py", BENCH / "gate.py"):
        for dotted, fn, call in _bench_calls(path):
            seen.add(dotted)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
            sig = inspect.signature(fn)
            try:
                if starred:
                    sig.bind_partial(**kwargs)
                else:
                    sig.bind(*[None] * len(call.args), **kwargs)
            except TypeError as err:
                bad.append("%s:%d %s: %s" % (path.name, call.lineno, dotted,
                                             err))
    assert not bad, "; ".join(bad)
    assert {"detcheck.m_series", "detcheck.correlators", "detcheck.verify_tt",
            "hamflow.extend_flow", "isodeform.compatibility_residual",
            "spectralcurve.curve_from_system", "toprec.eo_differentials",
            "HbarSeries.constant", "substitute"} <= seen


@pytest.mark.parametrize("workload", ["airy-g0n7", "twobranch-g2n1"])
def test_recursion_matches_committed_digest(workload):
    workloads, gate = load_bench("workloads"), load_bench("gate")
    out = {}
    workloads.run(workload, workloads.build(workload), out)
    want = gate.load_digests()[workload]["RecursionResult"]
    assert gate.digest(out["eo"].to_json()) == want


def test_p1_matches_committed_digests():
    workloads, gate = load_bench("workloads"), load_bench("gate")
    inputs = workloads.build("p1")
    out = dict(inputs)
    workloads.run("p1", inputs, out)
    want = gate.load_digests()["p1"]
    for key, name in (("flow", "FlowSeries"), ("eo", "RecursionResult"),
                      ("tau", "TauSeries")):
        assert gate.digest(out[key].to_json()) == want[name], name
    failed = {v["name"] for v in gate.evaluate("p1", out) if not v["pass"]}
    assert not failed
