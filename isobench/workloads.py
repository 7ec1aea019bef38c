"""The benchmark's three workloads, built from the public API of isorec.

Each workload has two halves.  ``build`` parses the exact inputs and
assembles the Lax matrices; it is the set-up a user pays on every run.
``run`` executes every pipeline stage and stores each output under a name
in ``out`` as soon as it exists, so that a stage that raises leaves the
outputs of the earlier stages for the correctness gate.

Stages call isorec through module attributes (``toprec.eo_differentials``,
not a name imported from it), so that the traced run sees every call.
"""

from isorec import detcheck, hamflow, isodeform, spectralcurve, toprec
from isorec.exactmath import QQ, FunctionField, RatFn, parse_element
from isorec.laxsystem import SIGMA_PLUS, Mat2, PoleData, Sl2Lax

# Painleve I: the seed Lax matrix and Hamiltonian of the paper's chain.
P1_SEED = {
    (0, 2): ("0", "1", "0", "0"),
    (0, 1): ("0", "q", "1", "0"),
    (0, 0): ("p", "q^2", "-q", "-p"),
}
P1_HAMILTONIAN = "-2*p^2 + 2*q^3 + 4*t*q"
P1_FLOW_ORDER = 4
P1_M_ORDER = 2


def _curve_matrix(q_text):
    """The Lax matrix [[0, Q(x)], [1, 0]] of the curve y^2 = Q(x) over Q."""
    Fx = FunctionField(QQ, "x")
    one = RatFn.one(QQ, "x")
    return Mat2(0 * one, parse_element(q_text, Fx), one, 0 * one)


def build(workload):
    """Parse the workload's exact inputs; returns a dict of them."""
    if workload == "airy-g0n7":
        return {"L0": _curve_matrix("x")}
    if workload == "twobranch-g2n1":
        return {"L0": _curve_matrix("(x-1)*(x-3)")}
    if workload == "p1":
        F = QQ
        for name in ("t", "q", "p"):
            F = FunctionField(F, name)
        coeffs = {key: Mat2(*(parse_element(s, F) for s in entries))
                  for key, entries in P1_SEED.items()}
        seed = Sl2Lax(F, PoleData((), (), 2, SIGMA_PLUS), coeffs)
        return {"seed": seed, "H": parse_element(P1_HAMILTONIAN, F)}
    raise ValueError("unknown workload %r" % (workload,))


def run(workload, inputs, out):
    """Run every stage of the workload, filling ``out`` as it goes."""
    if workload == "airy-g0n7":
        U = spectralcurve.uniformize(spectralcurve.classical_curve(inputs["L0"]))
        out["eo"] = toprec.eo_differentials(U, 0, 7)
    elif workload == "twobranch-g2n1":
        U = spectralcurve.uniformize(spectralcurve.classical_curve(inputs["L0"]))
        out["eo"] = toprec.eo_differentials(U, 2, 1)
        out["F"] = toprec.symplectic_invariants(out["eo"])
    elif workload == "p1":
        _run_p1(inputs, out)
    else:
        raise ValueError("unknown workload %r" % (workload,))


def _run_p1(inputs, out):
    H = inputs["H"]
    iso = out["iso"] = isodeform.build_isosystem(inputs["seed"], beta="q")
    lead = hamflow.leading_order(H)
    flow = out["flow"] = hamflow.extend_flow(H, lead, P1_FLOW_ORDER)
    out["hamilton_residuals"] = hamflow.hamilton_residuals(H, flow)
    out["energy_drift"] = hamflow.energy_drift(H, flow)
    out["compatibility_residual"] = isodeform.compatibility_residual(
        iso, flow, P1_FLOW_ORDER)
    U = spectralcurve.uniformize(spectralcurve.curve_from_system(iso, lead))
    out["eo"] = toprec.eo_differentials(U, 2, 1)
    out["tau"] = detcheck.tau_series(out["eo"])
    mser = detcheck.m_series(iso, flow, P1_M_ORDER)
    cors = detcheck.correlators(mser, nmax=2)
    out["verify_tt"] = detcheck.verify_tt(mser, cors)
