"""Per-layer tracing from outside the program.

The layers are isorec's modules.  ``Tracer.install`` wraps their public
functions and methods named in ``TARGETS``; a function brought into another
module by ``from ... import`` is replaced there too, so every call site is
seen.  Each wrapped call is a span with a start, an end and the span that
caused it; a span's self time is its duration minus the time of the wrapped
calls made inside it.  The hot arithmetic methods are tallied (calls and
self time) without keeping a span per call, which would cost memory in the
millions; every other span is kept in memory and returned at the end.

Timed runs never install a tracer.
"""

import re
import sys
import time
from functools import wraps

# metric stem, defining module, attribute, per-layer metrics reported
TARGETS = (
    ("toprec.eo_differentials", "isorec.toprec", "eo_differentials", ("s",)),
    ("toprec.PoleBasisForm.is_symmetric", "isorec.toprec",
     "PoleBasisForm.is_symmetric", ("s",)),
    ("toprec.PoleBasisForm.involution_image", "isorec.toprec",
     "PoleBasisForm.involution_image", ("s",)),
    ("toprec.symplectic_invariants", "isorec.toprec",
     "symplectic_invariants", ("s",)),
    ("detcheck.tau_series", "isorec.detcheck", "tau_series", ("s",)),
    ("detcheck.m_series", "isorec.detcheck", "m_series", ("s",)),
    ("detcheck.correlators", "isorec.detcheck", "correlators", ("s",)),
    ("detcheck.verify_tt", "isorec.detcheck", "verify_tt", ("s",)),
    ("hamflow.leading_order", "isorec.hamflow", "leading_order", ("s",)),
    ("hamflow.extend_flow", "isorec.hamflow", "extend_flow", ("s",)),
    ("hamflow.hamilton_residuals", "isorec.hamflow", "hamilton_residuals",
     ("s",)),
    ("isodeform.build_isosystem", "isorec.isodeform", "build_isosystem",
     ("s",)),
    ("isodeform.compatibility_residual", "isorec.isodeform",
     "compatibility_residual", ("s",)),
    ("spectralcurve.curve_from_system", "isorec.spectralcurve",
     "curve_from_system", ("s",)),
    ("spectralcurve.uniformize", "isorec.spectralcurve", "uniformize",
     ("s",)),
    ("exactmath.LocalSeries.mul", "isorec.exactmath.series",
     "LocalSeries.__mul__", ("calls", "self_s")),
    ("exactmath.HbarSeries.mul", "isorec.exactmath.series",
     "HbarSeries.__mul__", ("calls", "self_s")),
    ("exactmath.Poly.mul", "isorec.exactmath.poly", "Poly.__mul__",
     ("calls",)),
    ("exactmath.RatFn.mul", "isorec.exactmath.ratfn", "RatFn.__mul__",
     ("calls",)),
    ("exactmath.RatFn.add", "isorec.exactmath.ratfn", "RatFn.__add__",
     ("calls",)),
    ("exactmath.ExtElem.mul", "isorec.exactmath.fields", "ExtElem.__mul__",
     ("calls",)),
    ("exactmath.poly_gcd", "isorec.exactmath.poly", "poly_gcd", ("calls",)),
    ("exactmath.local_expand", "isorec.exactmath.ratfn", "local_expand",
     ("calls",)),
    ("exactmath.roots_in_field", "isorec.exactmath.ratfn", "roots_in_field",
     ("calls",)),
)

# metrics computed from the recursion's outputs rather than from spans
OUTPUT_METRICS = (
    ("toprec.omega_terms", "count"),
    ("toprec.coef_bits_max", "bits"),
    ("exactmath.tower_depth", "count"),
)

OVERHEAD_METRIC = ("trace.overhead_s", "s")

_UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def layer_metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = [("%s.%s" % (stem, kind), _UNITS[kind])
           for stem, _, _, kinds in TARGETS for kind in kinds]
    return out + list(OUTPUT_METRICS) + [OVERHEAD_METRIC]


class Tracer:
    """Wraps the targets and collects spans, tallies and outputs."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None]
        self.tallies = {}      # stem -> [calls, inclusive s, self s, depth]
        self.recursions = []   # RecursionResult of every eo_differentials
        self._stack = []       # [start, child time, span index] per live call

    def install(self):
        for stem, modname, attr, kinds in TARGETS:
            owner = sys.modules[modname]
            clsname, _, meth = attr.rpartition(".")
            keep_spans = "s" in kinds
            if clsname:
                cls = getattr(owner, clsname)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(stem, orig, keep_spans)
                # aliases such as __rmul__ = __mul__ share the tally
                for name, value in list(cls.__dict__.items()):
                    if value is orig:
                        setattr(cls, name, wrapped)
            else:
                orig = getattr(owner, attr)
                wrapped = self._wrap(stem, orig, keep_spans)
                for mod in list(sys.modules.values()):
                    mname = getattr(mod, "__name__", "")
                    if mname != "isorec" and not mname.startswith("isorec."):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapped)

    def _wrap(self, stem, fn, keep_spans):
        tally = self.tallies.setdefault(stem, [0, 0.0, 0.0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        keep_result = stem == "toprec.eo_differentials"
        recursions = self.recursions

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep_spans:
                span = len(spans)
                spans.append([stem, 0.0, 0.0,
                              parent[2] if parent else None])
            else:
                span = parent[2] if parent else None
            frame = [clock(), 0.0, span]
            stack.append(frame)
            tally[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tally[3] -= 1
                dur = end - frame[0]
                tally[0] += 1
                tally[2] += dur - frame[1]
                if tally[3] == 0:  # count a recursive call's time once
                    tally[1] += dur
                if parent is not None:
                    parent[1] += dur
                if keep_spans:
                    spans[span][1:3] = [frame[0], end]
            if keep_result:
                recursions.append(result)
            return result

        return traced

    def metrics(self):
        """Per-layer metric values, without the tracing overhead."""
        out = {}
        for stem, _, _, kinds in TARGETS:
            calls, incl, self_s, _ = self.tallies[stem]
            for kind in kinds:
                out["%s.%s" % (stem, kind)] = {
                    "s": incl, "self_s": self_s, "calls": calls}[kind]
        forms = [(res.U.field, f) for res in self.recursions
                 for f in res.omegas.values()]
        out["toprec.omega_terms"] = sum(len(f.table) for _, f in forms)
        out["toprec.coef_bits_max"] = max(
            (coef_bits(E, f) for E, f in forms), default=0)
        out["exactmath.tower_depth"] = max(
            (tower_depth(res.U.field) for res in self.recursions), default=0)
        return out


_INT = re.compile(r"\d+")


def coef_bits(field, form):
    """Largest bit length of an integer written in the form's coefficients."""
    return max((int(m).bit_length() for c in form.table.values()
                for m in _INT.findall(field.to_str(c))), default=0)


def tower_depth(field):
    """0 for Q, one more for each function field or quadratic extension."""
    depth = 0
    while hasattr(field, "base"):
        field, depth = field.base, depth + 1
    return depth
