"""De-autonomization of isospectral systems and the scaling bookkeeping.

Three constructions turn a commuting-flow system into an isomonodromic one
with a genuine time t: move a simple pole (Case 1), weight the top polar
coefficient of a higher pole (Case 2), or shift by the leading matrix at
infinity (Case 3).  In every case the auxiliary matrix A is the flow
generator of laxsystem.auxiliary_matrix scaled by a constant, so it is
linear, A = (Mx + B)/p(x) with deg p <= 1, and the explicit time dependence
obeys

    dL/dt|explicit = dA/dx.

The module also computes the rational scaling exponents (d_x, d_t, the
Hamiltonian degree table, Darboux weights) that make the pair homogeneous in
the expansion parameter.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (CasePreconditionViolated, IdentityFailed,
                     InvalidExpression, NoDeformation, PlanMismatch)
from .exactmath import RatFn, Series, parse_element, partial_derivation
from .exactmath.fields import FunctionField
from .hamflow import hbar_matrix_series
from .laxsystem import (SIGMA3, Mat2, PoleData, Sl2Lax, assemble,
                        auxiliary_matrix)

CASE_SIMPLE_POLE = 1
CASE_HIGHER_POLE = 2
CASE_INFINITY = 3


class DeformCase:
    """Which de-autonomization applies, and at which pole."""

    __slots__ = ("kind", "nu")

    def __init__(self, kind, nu=0):
        kind = int(kind)
        if kind not in (CASE_SIMPLE_POLE, CASE_HIGHER_POLE, CASE_INFINITY):
            raise CasePreconditionViolated("case kind must be 1, 2 or 3")
        if kind == CASE_INFINITY:
            if nu:
                raise CasePreconditionViolated(
                    "the infinity case carries no pole index")
        elif nu < 1:
            raise CasePreconditionViolated(
                "finite-pole cases need a pole index nu >= 1")
        self.kind = kind
        self.nu = int(nu)

    def validate(self, poles):
        """Check the preconditions against a pole structure; return the
        order of the pole the case acts on (r0 for the infinity case)."""
        if self.kind == CASE_INFINITY:
            if poles.r0 < 2:
                raise CasePreconditionViolated(
                    "infinity case needs r0 >= 2, got %s" % poles.r0)
            return poles.r0
        if not 1 <= self.nu <= poles.n:
            raise CasePreconditionViolated(
                "no finite pole with index %s" % self.nu)
        r = poles.orders[self.nu - 1]
        if self.kind == CASE_SIMPLE_POLE and r != 1:
            raise CasePreconditionViolated(
                "pole %s has order %s, the moving-pole case needs order 1"
                % (self.nu, r))
        if self.kind == CASE_HIGHER_POLE and r < 2:
            raise CasePreconditionViolated(
                "pole %s has order %s, the weighted-pole case needs >= 2"
                % (self.nu, r))
        return r

    def __eq__(self, other):
        if not isinstance(other, DeformCase):
            return NotImplemented
        return self.kind == other.kind and self.nu == other.nu


def select_case(poles):
    """Pick the default de-autonomization for a pole structure.

    Order of preference: moving a simple pole, then weighting a higher
    pole, then the shift at infinity; among eligible poles the last one
    wins (so appended poles become the time, matching the usual Fuchsian
    normalization t = a_n).
    """
    if poles.n == 0 and poles.r0 in (0, 1):
        raise NoDeformation(
            "constant and linear systems (Airy, Hermite-Weber) have a "
            "non-positive reduced phase space and admit no moving time")
    for nu in range(poles.n, 0, -1):
        if poles.orders[nu - 1] == 1:
            return DeformCase(CASE_SIMPLE_POLE, nu)
    for nu in range(poles.n, 0, -1):
        if poles.orders[nu - 1] >= 2:
            return DeformCase(CASE_HIGHER_POLE, nu)
    if poles.r0 >= 2:
        return DeformCase(CASE_INFINITY)
    raise NoDeformation("pole structure carries no deformable direction")


class IsoSystem:
    """An isomonodromic pair: the time-embedded Lax matrix and its linear
    companion A(x,t), plus the case that produced them."""

    __slots__ = ("lax", "aux", "tname", "case")

    def __init__(self, lax, aux, tname, case):
        self.lax = lax
        self.aux = aux
        self.tname = tname
        self.case = case


def _time_element(field):
    """Locate the time symbol t in the scalar tower, extending it on demand."""
    try:
        return field, parse_element("t", field), False
    except InvalidExpression:
        wrapped = FunctionField(field, "t")
        return wrapped, wrapped.gen(), True


def build_isosystem(system, case=None, beta=None):
    """De-autonomize an Sl2Lax along the given case.

    A is the flow generator of the case scaled by a constant: -L_{nu,1}/(x-t)
    for a pole moved to t, L_{nu,r}/(x-a) for a weighted pole of order r,
    and 2x L_{0,r0} + 2 L_{0,r0-1} at infinity.  `beta` adds 2 beta times
    the leading matrix (the kind matrix when r0 = -1), the stabilizer
    direction.  The pair satisfies dL/dt|explicit = dA/dx identically,
    which is checked here.
    """
    if case is None:
        case = select_case(system.poles)
    r = case.validate(system.poles)
    field, t, wrapped = _time_element(system.field)
    if wrapped:
        system = system.map_scalars(field.coerce, field)
    if isinstance(beta, str):
        beta = parse_element(beta, field)

    poles = system.poles
    two = field.coerce(2)
    half = field.one() / two
    if case.kind == CASE_SIMPLE_POLE:
        points = list(poles.points)
        points[case.nu - 1] = t
        new_poles = PoleData(points, poles.orders, poles.r0, poles.kind)
        lax = Sl2Lax(field, new_poles, system.coeffs, system.var)
        aux = auxiliary_matrix(lax, case.nu, 1) * half
    elif case.kind == CASE_HIGHER_POLE:
        top = system.coeff(case.nu, r)
        coeffs = dict(system.coeffs)
        coeffs[(case.nu, 2)] = (system.coeff(case.nu, 2)
                                - top.map(lambda e: e * t))
        lax = system.with_coeffs(coeffs)
        # from the seed: for r = 2 the deformed lax has a shifted L_{nu,2}
        aux = auxiliary_matrix(system, case.nu, r) * -half
    else:
        top = system.coeff(0, poles.r0)
        coeffs = dict(system.coeffs)
        coeffs[(0, 0)] = system.coeff(0, 0) + top.map(lambda e: e * (two * t))
        lax = system.with_coeffs(coeffs)
        aux = auxiliary_matrix(system, 0, poles.r0 - 2)

    if beta:
        stab = lax.leading() if poles.r0 >= 0 else lax.kind_matrix()
        b2 = field.coerce(beta) * two
        aux = aux + stab.map(lambda e: RatFn.const(field, e * b2, lax.var))

    iso = IsoSystem(lax, aux, "t", case)
    res = explicit_time_residual(iso)
    if res:
        raise IdentityFailed(
            "de-autonomization identity dL/dt|expl = dA/dx failed: %r"
            % (res,))
    return iso


def explicit_time_residual(iso):
    """dL/dt holding the dynamical symbols fixed, minus dA/dx."""
    dt = partial_derivation(iso.lax.field, iso.tname)
    L = assemble(iso.lax)
    dL = L.map(lambda e: e.tderiv(dt))
    dA = iso.aux.map(lambda e: e.deriv())
    return dL - dA


class ScalingPlan:
    """Rational homogeneity exponents for one de-autonomized system.

    d_x and d_t weight the spectral variable and the time; `degrees` maps
    each Hamiltonian slot (nu, i) to its weight; (d_q, d_p) weight the
    Darboux pair.  The defining constraint d_t + degree(main) = 2 is
    enforced at construction.
    """

    __slots__ = ("d_x", "d_t", "degrees", "d_q", "d_p", "rank", "main",
                 "case")

    def __init__(self, d_x, d_t, degrees, d_q, d_p, rank, main, case):
        self.d_x = Fraction(d_x)
        self.d_t = Fraction(d_t)
        self.degrees = {k: Fraction(v) for k, v in degrees.items()}
        self.d_q = Fraction(d_q)
        self.d_p = Fraction(d_p)
        self.rank = int(rank)
        self.main = main
        self.case = case
        if main not in self.degrees:
            raise PlanMismatch("main Hamiltonian slot %s has no degree"
                               % (main,))
        if self.d_t + self.degrees[main] != 2:
            raise PlanMismatch(
                "d_t + d_H(main) = %s, the time-energy pairing needs 2"
                % (self.d_t + self.degrees[main]))

    def to_json(self):
        return {
            "d_x": str(self.d_x),
            "d_t": str(self.d_t),
            "hamiltonian_degrees": {
                "%s,%s" % k: str(v) for k, v in sorted(self.degrees.items())
            },
            "darboux_exponents": {"p": str(self.d_p), "q": str(self.d_q)},
        }


def scaling_plan(poles, case=None):
    """Exponent tables making the deformed pair homogeneous.

    rank 2 leading matrix: d_x = 1/(r0+1); rank 1: d_x = 2/(2 r0+1).  The
    r0 = -1 (Fuchsian) plan is all-zero except for the Hamiltonian weight 2
    on dynamical slots: there the parameter enters through the flows alone.
    """
    if case is None:
        case = select_case(poles)
    r = case.validate(poles)
    rank = 2 if poles.kind == SIGMA3 else 1
    r0 = poles.r0
    degrees = {}
    if r0 == -1:
        d_x = Fraction(0)
        for nu in range(1, poles.n + 1):
            rv = poles.orders[nu - 1]
            for i in range(1, 2 * rv + 1):
                degrees[(nu, i)] = Fraction(2 if i <= rv else 0)
        d_q = d_p = Fraction(0)
    else:
        d_x = Fraction(1, r0 + 1) if rank == 2 else Fraction(2, 2 * r0 + 1)
        for i in range(0, 2 * r0 + 1):
            degrees[(0, i)] = d_x * ((2 * r0 - i) if rank == 2
                                     else (2 * r0 - 1 - i))
        for nu in range(1, poles.n + 1):
            rv = poles.orders[nu - 1]
            for i in range(1, 2 * rv + 1):
                degrees[(nu, i)] = d_x * ((2 * r0 + i) if rank == 2
                                          else (2 * r0 + i - 1))
        d_q = d_x
        d_p = r0 * d_x if rank == 2 else Fraction(2 * r0 - 1, 2) * d_x
    if case.kind == CASE_SIMPLE_POLE:
        d_t = d_x
        main = (case.nu, 1)
    elif case.kind == CASE_HIGHER_POLE:
        d_t = (2 - r) * d_x
        main = (case.nu, r)
    else:
        d_t = r0 * d_x
        main = (0, r0 - 2)
    return ScalingPlan(d_x, d_t, degrees, d_q, d_p, rank, main, case)


# --------------------------------------------------------------------------
# compatibility to a given order in the expansion parameter


def compatibility_residual(iso, flow, order):
    """h dL/dt - h dA/dx - [A, L] with the Darboux pair fed by `flow`.

    `flow` supplies truncated series q, p over a differential field that
    contains the time (anything with .q, .p, .field, .qname and .pname
    works).  Returns the residual as a truncated series whose
    coefficients are matrices of rational functions in x; it vanishes
    identically through the requested order iff the flow solves Hamilton's
    equations there.
    """
    prec = order + 1
    zero = Mat2.zero(RatFn.zero(flow.field, iso.lax.var))

    def along(mat):
        return Series(0, hbar_matrix_series(mat, flow, order), prec,
                      zero)

    L = along(assemble(iso.lax))
    A = along(iso.aux)
    dL = L.map_coeffs(lambda m: m.map(lambda e: e.tderiv()))
    dA = A.map_coeffs(lambda m: m.map(lambda e: e.deriv()))
    # [A, L] order by order: sum of [A_i, L_j] over i + j = k
    comm = [zero] * prec
    for i, a in A.known_items():
        for j, lj in L.known_items():
            if i + j < prec:
                comm[i + j] = comm[i + j] + a.commutator(lj)
    return (dL - dA).shift(1) - Series(0, comm, prec, zero)
