"""Correctness gate run on the outputs of every timed pass.

Three kinds of check, each counted once:

- digests: the SHA-256 of the canonical JSON of an output believed correct,
  committed in ``digests.json``;
- oracles coded here, independent of isorec's recursion: genus-0
  Witten-Kontsevich numbers for Airy, the Gaussian-model F_2 for the
  two-branch curve, and the closed-form Painleve I F_2 together with the
  tau reconstruction H_4 = -dF_2/dt along the Hamiltonian flow;
- the vanishing residuals and the ``verify_tt`` verdicts of Painleve I.

A check that raises fails.  ``KNOWN_FAILURES`` lists the ``verify_tt``
verdicts that fail because of a known defect of the determinantal check
(ROADMAP Open item 1): they stay in the count of failed checks, but they do
not make a pass incorrect.  Any other failed check does.
"""

import hashlib
import itertools
import json
import math
import os
from fractions import Fraction

from isorec.exactmath import HbarSeries, parse_element, substitute

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

KNOWN_FAILURES = {
    "p1": frozenset({"verify_tt.clause4", "verify_tt.row1,1",
                     "verify_tt.row1,2"}),
}

VERIFY_TT_CLAUSES = ("1", "2", "3", "4", "5", "6")
# the rows verify_tt compares for correlators through order 2 and n <= 2
VERIFY_TT_ROWS = ("0,1", "0,2", "1,1", "1,2")


def digest(obj):
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_digests():
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# --- oracles -----------------------------------------------------------------

def wk_genus0(ds):
    """<tau_{d_1} ... tau_{d_n}>_0 = (n-3)!/prod d_i! when sum d_i = n-3."""
    n = len(ds)
    if sum(ds) != n - 3:
        return Fraction(0)
    return Fraction(math.factorial(n - 3), math.prod(map(math.factorial, ds)))


def double_factorial(m):
    return math.prod(range(m, 0, -2))


# Convention factors of Airy y^2 = x in the y = +z orientation, read off
# omega_{0,3} = -1/2 dz1 dz2 dz3/(z1 z2 z3)^2 and the tau_0^3 tau_1 term of
# omega_{0,4}; the factor of omega_{0,n} is c_n = C3 (C4/C3)^(n-3).
AIRY_C3 = Fraction(-1, 2)
AIRY_C4 = Fraction(1, 4)


def airy_genus0_table(n):
    """The pole-basis table of omega_{0,n} for Airy from the WK numbers.

    The coefficient of prod dz_i/z_i^(2d_i+2) is
    c_n <tau_{d_1}...tau_{d_n}>_0 prod (2d_i+1)!!.
    """
    c = AIRY_C3 * (AIRY_C4 / AIRY_C3) ** (n - 3)
    table = {}
    for ds in itertools.product(range(n - 2), repeat=n):
        v = wk_genus0(ds)
        if v:
            key = tuple((0, 2 * d + 2) for d in ds)
            table[key] = c * v * math.prod(double_factorial(2 * d + 1)
                                           for d in ds)
    return table


def bernoulli(m):
    """Exact Bernoulli number B_m (B_1 = -1/2)."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k))
                 / (k + 1))
    return b[m]


def gaussian_F(g, t):
    """F_g of the Gaussian matrix model, B_{2g}/(2g(2g-2)) t^(2-2g), g >= 2."""
    return bernoulli(2 * g) / (2 * g * (2 * g - 2)) * t ** (2 - 2 * g)


def twobranch_F2():
    """y^2 = (x-1)(x-3) is the Gaussian curve y^2 = x^2 - 4t at t = 1/4 with
    y scaled by 2, which scales F_g by 2^(2-2g)."""
    return gaussian_F(2, Fraction(1, 4)) * Fraction(2) ** (2 - 2 * 2)


P1_F2 = "-7*u/(15360*t^3)"  # with u^2 = -2t/3


def hamiltonian_along_flow(H, flow):
    """H(q(t,h), p(t,h), t) as a series in h, through the flow's order."""
    E = flow.field
    prec = flow.order + 1
    zero = E.zero()
    values = {"t": HbarSeries.constant(parse_element("t", E), prec, zero),
              flow.qname: flow.q, flow.pname: flow.p}
    return substitute(H, values, HbarSeries.constant(E.one(), prec, zero))


# --- the checks ----------------------------------------------------------------

def _digest_check(out_key, want):
    def check(out):
        got = digest(out[out_key].to_json())
        return got == want, "sha256 %s, committed %s" % (got[:16], want[:16])
    return check


def _airy_wk_check(n):
    def check(out):
        form = out["eo"].omega(0, n)
        want = airy_genus0_table(n)
        bad = [k for k in set(want) | set(form.table)
               if form.table.get(k) != want.get(k)]
        return not bad, "%d of %d coefficients differ" % (len(bad), len(want))
    return check


def _twobranch_F2_check(out):
    got, want = out["F"][2], twobranch_F2()
    return got == want, "F_2 = %s, Gaussian model %s" % (got, want)


def _p1_F2_check(out):
    E = out["eo"].U.field
    got, want = out["tau"].coeff(2), parse_element(P1_F2, E)
    return got == want, "F_2 = %s, closed form %s" % (E.to_str(got),
                                                       E.to_str(want))


def _p1_H4_check(out):
    flow = out["flow"]
    E = flow.field
    h4 = hamiltonian_along_flow(out["H"], flow).coeff(4)
    want = -out["tau"].d_dt()[2]
    return h4 == want, "H_4 = %s, -dF_2/dt = %s" % (E.to_str(h4),
                                                   E.to_str(want))


def _vanishes(out_key):
    def check(out):
        val = out[out_key]
        parts = val if isinstance(val, tuple) else (val,)
        return not any(parts), "nonzero" if any(parts) else "vanishes"
    return check


def _clause_check(clause):
    def check(out):
        verdict = out["verify_tt"]["clauses"][clause]
        return verdict["pass"], json.dumps(verdict["witnesses"])
    return check


def _row_check(row):
    def check(out):
        verdict = out["verify_tt"]["tr_equality"][row]
        return verdict["pass"], verdict.get("reason", "")
    return check


def checks_for(workload, digests):
    """The named checks of a workload, in a fixed order.

    Each check takes ``out``, the workload's inputs and outputs by name, and
    returns (passed, detail).  ``digests`` maps each digested output's class
    name to its committed digest.
    """
    if workload == "airy-g0n7":
        return ([("digest.RecursionResult",
                  _digest_check("eo", digests["RecursionResult"]))]
                + [("oracle.wk_genus0.n%d" % n, _airy_wk_check(n))
                   for n in range(3, 8)])
    if workload == "twobranch-g2n1":
        return [("digest.RecursionResult",
                 _digest_check("eo", digests["RecursionResult"])),
                ("oracle.gaussian_F2", _twobranch_F2_check)]
    if workload == "p1":
        return ([("digest.FlowSeries",
                  _digest_check("flow", digests["FlowSeries"])),
                 ("digest.RecursionResult",
                  _digest_check("eo", digests["RecursionResult"])),
                 ("digest.TauSeries",
                  _digest_check("tau", digests["TauSeries"])),
                 ("oracle.F2_closed_form", _p1_F2_check),
                 ("oracle.H4_is_minus_dF2dt", _p1_H4_check),
                 ("residual.hamilton", _vanishes("hamilton_residuals")),
                 ("residual.energy_drift", _vanishes("energy_drift")),
                 ("residual.compatibility",
                  _vanishes("compatibility_residual"))]
                + [("verify_tt.clause" + c, _clause_check(c))
                   for c in VERIFY_TT_CLAUSES]
                + [("verify_tt.row" + r, _row_check(r))
                   for r in VERIFY_TT_ROWS])
    raise ValueError("unknown workload %r" % (workload,))


def evaluate(workload, out):
    """Run every check on ``out``; returns a list of verdict dicts."""
    known = KNOWN_FAILURES.get(workload, frozenset())
    verdicts = []
    for name, check in checks_for(workload, load_digests()[workload]):
        try:
            ok, detail = check(out)
        except Exception as err:  # a raising check is a failed check
            ok, detail = False, "%s: %s" % (type(err).__name__, err)
        verdicts.append({"name": name, "pass": bool(ok), "detail": detail,
                         "known": name in known})
    return verdicts


def is_correct(verdicts):
    """True when every failed check is a known failure."""
    return all(v["pass"] or v["known"] for v in verdicts)

