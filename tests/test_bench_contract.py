"""The names the benchmark reaches into must exist in isorec.

isobench/tracing.py wraps isorec functions and methods by name, and the
benchmark's correctness gate builds constant hbar series through
HbarSeries.constant.  A refactor that renames or moves one of them breaks
the traced run or the gate; these tests fail first.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from isorec.exactmath import HbarSeries

TRACING = Path(__file__).resolve().parents[1] / "isobench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("isobench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for stem, modname, attr, _ in load_tracing().TARGETS:
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
