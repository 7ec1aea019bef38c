"""The classical (h -> 0) spectral curve and its rational uniformization.

From the leading Lax matrix L0 the curve is y^2 = Q(x) := -det L0.  Even-order
vanishing of Q is split off as a square prefactor; only the odd part creates
branchpoints, and genus 0 limits it to the reduced forms

    y^2 = c (x - a)(x - b)        two finite branchpoints, or
    y^2 = c (x - a)               one finite branchpoint plus x = infinity.

Both are uniformized by degree-2 rational maps x(z) with involution sigma
exchanging the sheets.  Sheet 1 is the one where y ~ +sqrt(Q) as z -> inf.
Uniformization is the one owner of what depends on the kind: sigma as a
rational function of z and the branch z-points.
"""

from __future__ import annotations

from .errors import (ConfluentBranchpoints, HigherGenus, InvalidPoleStructure,
                     InvalidUniformization, NilpotentLeading, NoBranchpoints,
                     NotProportional)
from .exactmath import (Poly, RatFn, adjoin_roots, evaluate,
                        roots_in_one_extension, squarefree_decomposition)
from .exactmath.fields import FunctionField
from .laxsystem import assemble

TWO_BRANCH = "two"
ONE_BRANCH = "one"


class ClassicalCurve:
    """y^2 = Q(x) with Q = -det L0, split as Q = c * square^2 * reduced.

    `reduced` is monic squarefree (the odd part of Q), `square` a rational
    function, `c` a scalar; alpha is the proportionality A0 = alpha * L0
    when an auxiliary matrix was supplied.
    """

    __slots__ = ("field", "var", "Q", "square", "reduced", "c", "alpha",
                 "L0", "A0")

    def __init__(self, field, var, Q, square, reduced, c, alpha, L0, A0):
        self.field = field
        self.var = var
        self.Q = Q
        self.square = square
        self.reduced = reduced
        self.c = c
        self.alpha = alpha
        self.L0 = L0
        self.A0 = A0


def classical_curve(L0, A0=None):
    """Curve of a leading Lax matrix (entries: RatFn in x over a scalar
    field, trace-free).

    When A0 is given, checks [L0, A0] = 0 and extracts alpha with
    A0 = alpha L0; commuting with a non-nilpotent L0 forces
    proportionality, so a failure means inadmissible input.
    """
    if not L0.is_trace_free():
        raise InvalidPoleStructure("leading Lax matrix must be trace-free")
    some = L0.b or L0.a or L0.c
    if not some:
        raise NilpotentLeading("leading Lax matrix vanishes identically")
    var = some.var
    E = some.field
    Q = -L0.det()
    if not Q:
        raise NilpotentLeading(
            "det L0 = 0 with zero trace: nilpotent leading matrix")
    alpha = None
    if A0 is not None:
        comm = L0.commutator(A0)
        if comm.a or comm.b or comm.c or comm.d:
            raise NotProportional("[L0, A0] != 0")
        for le, ae in zip(L0.entries(), A0.entries()):
            if le:
                alpha = ae / le
                break
        scaled = L0.map(lambda e: e * alpha)
        if any(x != y for x, y in zip(scaled.entries(), A0.entries())):
            raise NotProportional(
                "A0 is not a rational multiple of L0")
    sq_n, red_n, lc_n = _odd_even_split(Q.num)
    sq_d, red_d, lc_d = _odd_even_split(Q.den)
    if red_d.degree() > 0:
        raise HigherGenus(
            "odd-order pole of Q at a zero of %s: outside the supported "
            "linear/quadratic reduced forms" % red_d.to_str())
    square = RatFn(sq_n, sq_d)
    c = lc_n / lc_d
    return ClassicalCurve(E, var, Q, square, red_n, c, alpha, L0, A0)


def _odd_even_split(p):
    """p = lc * (sq^2) * red with red monic squarefree (the odd part)."""
    field = p.field
    lc, factors = squarefree_decomposition(p)
    sq = Poly.one(field, p.var)
    red = Poly.one(field, p.var)
    for g, mult in factors:
        if mult // 2:
            sq = sq * g ** (mult // 2)
        if mult % 2:
            red = red * g
    return sq, red, lc


class Uniformization:
    """Rational parametrization of the reduced curve.

    kind TWO_BRANCH: x(z) = (a+b)/2 + ((b-a)/4)(z + 1/z), sigma(z) = 1/z,
    branch z-points +1, -1.  kind ONE_BRANCH: x(z) = a + z^2,
    sigma(z) = -z, branch z-point 0 (the second branchpoint is
    x = infinity).  y(z) is rational; y(sigma(z)) = -y(z).  `sigma` is the
    involution as a RatFn of z, `dx` is x'(z), derived once here, where it
    is checked to vanish exactly at the branch z-points, and read by every
    later stage; `branch_ints` are the branch z-points as ints and
    `branch_zpoints` the same points in the field.  `point` is None, or
    for a curve over Q(t) taken at one time (grading.TimePoint) that
    time, e.g. {"t": "-3/2", "u": "1"}.
    """

    __slots__ = ("kind", "field", "zvar", "a", "b", "x", "y", "sigma", "dx",
                 "branch_ints", "branch_zpoints", "modulus", "point")

    def __init__(self, kind, field, zvar, a, b, x, y, modulus=None,
                 point=None):
        self.kind = kind
        self.field = field
        self.zvar = zvar
        self.a = a
        self.b = b
        self.x = x
        self.y = y
        self.modulus = modulus
        self.point = point
        z = RatFn.gen(field, zvar)
        if kind == TWO_BRANCH:
            if a == b:
                raise ConfluentBranchpoints(
                    "branchpoints coincide at %s" % field.to_str(a))
            self.sigma = z.inverse()
            self.branch_ints = (1, -1)
        else:
            self.sigma = -z
            self.branch_ints = (0,)
        self.branch_zpoints = tuple(field.coerce(s) for s in self.branch_ints)
        if self.apply_sigma(x) != x:
            raise InvalidUniformization("x is not involution-invariant")
        if self.apply_sigma(y) != -y:
            raise InvalidUniformization("y is not involution-odd")
        self.dx = x.deriv()
        num = self.dx.num
        zg = Poly.gen(field, zvar)
        for s in self.branch_zpoints:
            num, rem = divmod(num, zg - s)
            if rem:
                raise InvalidUniformization(
                    "dx does not vanish at branch z-point %s"
                    % field.to_str(s))
        if num.degree() != 0:
            raise InvalidUniformization(
                "dx vanishes away from the branch z-points")

    def apply_sigma(self, f):
        """Pull a rational function of z back through sigma."""
        return f(self.sigma)

    def to_json(self):
        fmt = self.field.to_str
        blob = {"kind": self.kind, "a": fmt(self.a),
                "x": self.x.to_str(fmt), "y": self.y.to_str(fmt)}
        blob["b"] = fmt(self.b) if self.b is not None else None
        if self.modulus is not None:
            blob["extension"] = {"name": self.field.uname,
                                 "square": self.field.base.to_str(
                                     self.modulus)}
        else:
            blob["extension"] = None
        return blob


def uniformize(curve):
    """Exact rational parametrization of the reduced curve.

    Quadratic branchpoints and a non-square leading constant each need a
    square root; exactmath.adjoin_roots, the one place the scalar field
    grows, adjoins it and refuses a second one.
    """
    E = curve.field
    red = curve.reduced
    deg = red.degree()
    if deg == 0:
        raise NoBranchpoints(
            "Q has no odd-order vanishing; y is already rational")
    if deg > 2:
        raise HigherGenus(
            "%s odd-order branchpoints (plus infinity parity); genus > 0"
            % deg)
    modulus = None
    if deg == 2:
        (a, b), E2, modulus = roots_in_one_extension(red)
    else:
        a, b, E2 = -red.coeff(0), None, E
    c = E2.coerce(curve.c)
    yc = E2.sqrt(c)
    if yc is None:
        E2, modulus, (_, yc) = adjoin_roots(
            Poly(E2, [-c, E2.zero(), E2.one()], "X"))
        a = E2.coerce(a)
        b = None if b is None else E2.coerce(b)

    zf = FunctionField(E2, "z")
    z = zf.gen()
    one = zf.one()
    if deg == 2:
        half = E2.one() / E2.coerce(2)
        quarter = half * half
        mid = (a + b) * half
        rad = (b - a) * quarter
        x = mid * one + rad * (z + one / z)
        ysqrt = rad * (z - one / z)
    else:
        x = a * one + z * z
        ysqrt = z
    sq = curve.square
    if modulus is not None:
        sq = sq.map_coeffs(E2.coerce, E2)
    y = sq(x) * yc * ysqrt
    kind = TWO_BRANCH if deg == 2 else ONE_BRANCH
    return Uniformization(kind, E2, "z", a, b, x, y, modulus)


def curve_from_system(iso, lead):
    """classical_curve of an isomonodromic system at its leading flow."""
    L0, A0 = leading_matrices(iso, lead)
    return classical_curve(L0, A0)


def leading_matrices(iso, lead):
    """Substitute the leading Darboux values into (L, A).

    `lead` is a hamflow LeadingOrder, which knows the names of the pair.
    Returns matrices of RatFn in x over lead.field.
    """
    def down(m):
        return m.map(lambda e: e.map_coeffs(lead.at_point, lead.field))

    return down(assemble(iso.lax)), down(iso.aux)


def pullback(f, U):
    """f(x(z)): substitute the parametrization into a function of x, as a
    RatFn in z also when f is constant."""
    fz = evaluate(f, U.x, U.field)
    return fz if isinstance(fz, RatFn) else RatFn.const(U.field, fz, U.zvar)

