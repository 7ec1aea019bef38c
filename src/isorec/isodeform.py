"""De-autonomization of isospectral systems and the scaling bookkeeping.

Three constructions turn a commuting-flow system into an isomonodromic one
with a genuine time t: move a simple pole (Case 1), weight the top polar
coefficient of a higher pole (Case 2), or shift by the leading matrix at
infinity (Case 3).  In every case the auxiliary matrix is linear,
A = (Mx + B)/p(x) with deg p <= 1, and the explicit time dependence obeys

    dL/dt|explicit = dA/dx.

The module also computes the rational scaling exponents (d_x, d_t, the
Hamiltonian degree table, Darboux weights) that make the pair homogeneous in
the expansion parameter, and verifies the homogeneity entry by entry.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (CasePreconditionViolated, IdentityFailed, NoDeformation,
                     PlanMismatch)
from .exactmath import (Poly, RatFn, Series, parse_element,
                        partial_derivation, poly_gcd)
from .exactmath.fields import FunctionField
from .hamflow import hbar_matrix_series
from .laxsystem import SIGMA3, Mat2, PoleData, Sl2Lax, assemble

CASE_SIMPLE_POLE = 1
CASE_HIGHER_POLE = 2
CASE_INFINITY = 3


class DeformCase:
    """Which de-autonomization applies, and at which pole."""

    __slots__ = ("kind", "nu")

    def __init__(self, kind, nu=0):
        kind = int(kind)
        if kind not in (CASE_SIMPLE_POLE, CASE_HIGHER_POLE, CASE_INFINITY):
            raise ValueError("case kind must be 1, 2 or 3")
        if kind == CASE_INFINITY:
            if nu:
                raise ValueError("the infinity case carries no pole index")
        elif nu < 1:
            raise ValueError("finite-pole cases need a pole index nu >= 1")
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

    def __repr__(self):
        if self.kind == CASE_INFINITY:
            return "DeformCase(3)"
        return "DeformCase(%s, nu=%s)" % (self.kind, self.nu)


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
    companion A(x,t), plus the construction data that produced them."""

    __slots__ = ("lax", "aux", "tname", "case", "sigma", "beta", "normalized")

    def __init__(self, lax, aux, tname, case, sigma=None, beta=None,
                 normalized=False):
        self.lax = lax
        self.aux = aux
        self.tname = tname
        self.case = case
        self.sigma = sigma
        self.beta = beta
        self.normalized = normalized

    @property
    def field(self):
        return self.lax.field

    @property
    def var(self):
        return self.lax.var

    def __repr__(self):
        return ("IsoSystem(case=%r, t=%s, normalized=%s)"
                % (self.case, self.tname, self.normalized))


def _time_element(field):
    """Locate the time symbol t in the scalar tower, extending it on demand."""
    try:
        return field, parse_element("t", field), False
    except ValueError:
        wrapped = FunctionField(field, "t")
        return wrapped, wrapped.gen(), True


def build_isosystem(system, case=None, sigma=None, beta=None):
    """De-autonomize an Sl2Lax along the given case.

    The returned pair satisfies dL/dt|explicit = dA/dx identically (checked
    at construction).  `beta` shifts A along the stabilizer of the leading
    matrix; `sigma` (finite-pole cases only) adds (sigma/2)(x-a)^{i-1} L(x),
    which leaves the canonical linear normalization, so the identity check
    is skipped and the caller owns the compatibility bookkeeping.
    """
    if case is None:
        case = select_case(system.poles)
    r = case.validate(system.poles)
    field, t, wrapped = _time_element(system.field)
    if wrapped:
        system = system.map_scalars(field.coerce, field)
    if isinstance(beta, str):
        beta = parse_element(beta, field)
    if isinstance(sigma, str):
        sigma = parse_element(sigma, field)

    var = system.var
    poles = system.poles
    x = Poly.gen(field, var)
    zero_r = RatFn.zero(field, var)
    two = field.coerce(2)

    def lift(m, factor=None):
        out = m.map(lambda e: RatFn.const(field, e, var))
        return out if factor is None else out.map(lambda e: e * factor)

    if case.kind == CASE_SIMPLE_POLE:
        points = list(poles.points)
        points[case.nu - 1] = t
        new_poles = PoleData(points, poles.orders, poles.r0, poles.kind)
        lax = Sl2Lax(field, new_poles, system.coeffs, var, system.normalized)
        lin = RatFn(Poly(field, [-t, field.one()], var))
        aux = lift(system.coeff(case.nu, 1), -lin.inverse())
        pole_point = t
    elif case.kind == CASE_HIGHER_POLE:
        top = system.coeff(case.nu, r)
        coeffs = dict(system.coeffs)
        shifted = system.coeff(case.nu, 2) - top.map(lambda e: e * t)
        if shifted:
            coeffs[(case.nu, 2)] = shifted
        else:
            coeffs.pop((case.nu, 2), None)
        lax = system.with_coeffs(coeffs)
        a = poles.points[case.nu - 1]
        lin = RatFn(Poly(field, [-field.coerce(a), field.one()], var))
        aux = lift(top, lin.inverse())
        pole_point = a
    else:
        top = system.coeff(0, poles.r0)
        coeffs = dict(system.coeffs)
        shifted = system.coeff(0, 0) + top.map(lambda e: e * (two * t))
        if shifted:
            coeffs[(0, 0)] = shifted
        else:
            coeffs.pop((0, 0), None)
        lax = system.with_coeffs(coeffs)
        aux = (lift(top, RatFn(x) * two)
               + lift(system.coeff(0, poles.r0 - 1), RatFn.one(field, var) * two))
        pole_point = None

    if beta:
        stab = lax.leading() if poles.r0 >= 0 else lax.kind_matrix()
        b2 = field.coerce(beta) * two
        aux = aux + stab.map(lambda e: RatFn.const(field, e * b2, var))

    if sigma:
        if case.kind == CASE_INFINITY:
            raise CasePreconditionViolated(
                "the sigma shift applies to finite-pole cases only")
        s_half = field.coerce(sigma) / two
        lin = RatFn(Poly(field, [-field.coerce(pole_point), field.one()],
                         var))
        shift = lin ** (r - 1) * RatFn.const(field, s_half, var)
        Lx = assemble(lax)
        aux = aux + Lx.map(lambda e: e * shift)

    iso = IsoSystem(lax, aux, "t", case, sigma, beta)
    if not sigma:
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


def linear_form(aux):
    """Present A as ((M x + B), p) with deg p <= 1, A = (Mx+B)/p.

    Raises ValueError when A is not of that shape (e.g. after a sigma
    shift); this is the syntactic check of the linear-companion property.
    """
    entries = aux.entries()
    field = entries[0].field
    var = entries[0].var
    den = Poly.one(field, var)
    for e in entries:
        g = poly_gcd(den, e.den)
        den = den * (e.den // g)
    if den.degree() > 1:
        raise ValueError(
            "companion matrix has a denominator of degree %s, expected <= 1"
            % den.degree())
    mats = []
    for want in (1, 0):
        row = []
        for e in entries:
            ne = e * RatFn(den)
            if not ne.is_poly():
                raise ValueError("denominator %s does not clear entry %s"
                                 % (den, e))
            p = ne.as_poly()
            if p.degree() > 1:
                raise ValueError(
                    "companion numerator has degree %s, expected <= 1"
                    % p.degree())
            row.append(p.coeff(want))
        mats.append(Mat2(*row))
    return mats[0], mats[1], den


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

    def __repr__(self):
        return ("ScalingPlan(d_x=%s, d_t=%s, rank=%s, main=%r)"
                % (self.d_x, self.d_t, self.rank, self.main))


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


def _monomial_weight(e, weights):
    """Common weight of every monomial of e, or None when e = 0.

    Raises PlanMismatch on the first inhomogeneity; constants weigh 0 and
    symbols absent from the table default to weight 0.
    """
    if isinstance(e, RatFn):
        wn = _monomial_weight(e.num, weights)
        if wn is None:
            return None
        return wn - _monomial_weight(e.den, weights)
    if isinstance(e, Poly):
        step = weights.get(e.var, Fraction(0))
        found = None
        for i, c in enumerate(e.coeffs):
            wc = _monomial_weight(c, weights)
            if wc is None:
                continue
            total = wc + i * step
            if found is None:
                found = total
            elif found != total:
                raise PlanMismatch(
                    "mixed weights %s and %s inside %s" % (found, total, e))
        return found
    return None if not e else Fraction(0)


def gauge_normalize(iso, plan):
    """Check the plan's homogeneity entry by entry and mark the system.

    The exact matrices already are the post-gauge normal form (the
    expansion parameter enters only through the flow series), so the gauge
    step amounts to verifying that each entry of L carries the weight the
    conjugation diag(h^s, h^-s) expects: for a rank-2 leading matrix the
    diagonal weighs r0 d_x and the corners (r0 +- 1) d_x; for rank 1 the
    diagonal weighs (2 r0 - 1) d_x / 2 and the corners r0 d_x and
    (r0 - 1) d_x.  The r0 = -1 plan is all-zero, which every entry matches
    trivially; the parameter bookkeeping there lives in the flows alone.
    """
    kind_rank = 2 if iso.lax.poles.kind == SIGMA3 else 1
    if plan.rank != kind_rank:
        raise PlanMismatch("plan was drawn for rank %s, system leads with "
                           "rank %s" % (plan.rank, kind_rank))
    table = {iso.lax.var: plan.d_x, iso.tname: plan.d_t,
             "q": plan.d_q, "p": plan.d_p}
    r0 = iso.lax.poles.r0
    d_x = plan.d_x
    if plan.rank == 2:
        diag, up, low = r0 * d_x, (r0 + 1) * d_x, (r0 - 1) * d_x
    else:
        diag = Fraction(2 * r0 - 1, 2) * d_x
        up, low = r0 * d_x, (r0 - 1) * d_x
    L = assemble(iso.lax)
    for name, entry, want in (("(1,1)", L.a, diag), ("(1,2)", L.b, up),
                              ("(2,1)", L.c, low), ("(2,2)", L.d, diag)):
        got = _monomial_weight(entry, table)
        if got is not None and got != want:
            raise PlanMismatch(
                "entry %s weighs %s, the gauge expects %s"
                % (name, got, want))
    return IsoSystem(iso.lax, iso.aux, iso.tname, iso.case, iso.sigma,
                     iso.beta, normalized=True)


# --------------------------------------------------------------------------
# compatibility to a given order in the expansion parameter


def compatibility_residual(iso, flow, order):
    """h dL/dt - h dA/dx - [A, L] with the Darboux pair fed by `flow`.

    `flow` supplies truncated series q, p over a differential field that
    contains the time (anything with .q, .p, .field and optional
    .qname/.pname works).  Returns the residual as a truncated series whose
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
    res = (dL - dA).shift(1) - (A * L - L * A)
    return res.truncate(prec)
