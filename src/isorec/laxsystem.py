"""Rank-2 rational Lax matrices with prescribed pole structure.

An Sl2Lax is a traceless 2x2 matrix of rational functions

    L(x) = sum_{i=0..r0} L_{0,i} x^i  +  sum_nu sum_{i=1..r_nu} L_{nu,i} (x-a_nu)^{-i}

given by its coefficient matrices over an exact scalar field.  This module
extracts the spectral invariants of Tr L(x)^2 (Hamiltonians and Casimirs),
the auxiliary matrices generating the commuting flows, and the spectral
Darboux coordinates.
"""

from __future__ import annotations

from .errors import (DegenerateOrbit, IndexOutOfRange, InvalidPoleStructure,
                     PoleCollision)
from .exactmath import Poly, RatFn, partial_fractions, roots_in_field


class Mat2:
    """2x2 matrix over any commutative ring; entries row-major a,b,c,d."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def zero(cls, z):
        return cls(z, z, z, z)

    @classmethod
    def sigma3(cls, one, zero):
        return cls(one, zero, zero, -one)

    @classmethod
    def sigma_plus(cls, one, zero):
        return cls(zero, one, zero, zero)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def map(self, fn):
        return Mat2(fn(self.a), fn(self.b), fn(self.c), fn(self.d))

    def __add__(self, other):
        return Mat2(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return Mat2(self.a - other.a, self.b - other.b,
                    self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(self.a * other.a + self.b * other.c,
                        self.a * other.b + self.b * other.d,
                        self.c * other.a + self.d * other.c,
                        self.c * other.b + self.d * other.d)
        return self.map(lambda e: e * other)

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def commutator(self, other):
        """[X, Y] = XY - YX in six products: with X = (a, b; c, d) and
        Y = (e, f; g, h) it is (bg - cf, f(a-d) - b(e-h); c(e-h) - g(a-d),
        cf - bg), exact over any commutative ring."""
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        diag = b * g - c * f
        ad, eh = a - d, e - h
        return Mat2(diag, f * ad - b * eh, c * eh - g * ad, -diag)

    def is_trace_free(self):
        return not self.trace()

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __bool__(self):
        return bool(self.a) or bool(self.b) or bool(self.c) or bool(self.d)

    def __repr__(self):
        return "[[%s, %s], [%s, %s]]" % (self.a, self.b, self.c, self.d)


SIGMA3 = "sigma3"
SIGMA_PLUS = "sigma_plus"


class PoleData:
    """Pole structure: finite points with orders, plus the order at infinity.

    kind names the standard form of the leading matrix L_{0,r0}; when
    r0 = -1 it names instead the fixed residue at infinity (so sigma3 there
    means sum_nu L_{nu,1} = -sigma3).
    """

    __slots__ = ("points", "orders", "r0", "kind")

    def __init__(self, points, orders, r0, kind):
        points = tuple(points)
        orders = tuple(int(o) for o in orders)
        if len(points) != len(orders):
            raise InvalidPoleStructure("one order per pole point required")
        if any(o < 1 for o in orders):
            raise InvalidPoleStructure("finite pole orders must be >= 1")
        if r0 < -1:
            raise InvalidPoleStructure("infinity order must be >= -1")
        if kind not in (SIGMA3, SIGMA_PLUS):
            raise InvalidPoleStructure(
                "leading kind must be sigma3 or sigma_plus")
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if points[i] == points[j]:
                    raise PoleCollision("pole points %s and %s coincide"
                                        % (points[i], points[j]))
        self.points = points
        self.orders = orders
        self.r0 = int(r0)
        self.kind = kind

    @property
    def n(self):
        return len(self.points)

    @property
    def finite_order_total(self):
        return sum(self.orders)

    @property
    def chart_size(self):
        """Number of spectral Darboux pairs: r0 + sum(r_nu) - 1."""
        return self.r0 + self.finite_order_total - 1


class Sl2Lax:
    """Coefficient-matrix form of a traceless rational Lax matrix.

    coeffs maps (nu, i) to a trace-free Mat2 of scalars: nu = 0 indexes the
    polynomial part (0 <= i <= r0), nu >= 1 the polar part at
    points[nu-1] (1 <= i <= r_nu).
    """

    def __init__(self, field, poles, coeffs, var="x"):
        self.field = field
        self.poles = poles
        self.var = var
        clean = {}
        for key, m in coeffs.items():
            nu, i = key
            self._check_index(nu, i)
            if not m.is_trace_free():
                raise InvalidPoleStructure(
                    "coefficient matrix %s is not trace-free" % (key,))
            if m:
                clean[key] = m
        self.coeffs = clean

    def _check_index(self, nu, i):
        if nu == 0:
            if not 0 <= i <= self.poles.r0:
                raise IndexOutOfRange("no polynomial coefficient x^%s" % i)
        else:
            if not 1 <= nu <= self.poles.n:
                raise IndexOutOfRange("no finite pole with index %s" % nu)
            if not 1 <= i <= self.poles.orders[nu - 1]:
                raise IndexOutOfRange(
                    "pole %s has order %s, got exponent %s"
                    % (nu, self.poles.orders[nu - 1], i))

    def coeff(self, nu, i):
        self._check_index(nu, i)
        z = self.field.zero()
        return self.coeffs.get((nu, i), Mat2.zero(z))

    def kind_matrix(self):
        one, z = self.field.one(), self.field.zero()
        if self.poles.kind == SIGMA3:
            return Mat2.sigma3(one, z)
        return Mat2.sigma_plus(one, z)

    def leading(self):
        """L_{0,r0}, or the residue at infinity when r0 = -1."""
        if self.poles.r0 >= 0:
            return self.coeff(0, self.poles.r0)
        z = self.field.zero()
        total = Mat2.zero(z)
        for nu in range(1, self.poles.n + 1):
            total = total + self.coeff(nu, 1)
        return -total

    def with_coeffs(self, coeffs):
        return Sl2Lax(self.field, self.poles, coeffs, self.var)

    def map_scalars(self, fn, field=None):
        """Apply fn to every matrix entry of every coefficient."""
        f = field if field is not None else self.field
        return Sl2Lax(f, self.poles,
                      {k: m.map(fn) for k, m in self.coeffs.items()},
                      self.var)


def assemble(system):
    """Evaluate the coefficient data as a 2x2 matrix of rational functions."""
    field, var = system.field, system.var
    x = Poly.gen(field, var)
    zero_r = RatFn.zero(field, var)
    total = Mat2.zero(zero_r)
    for i in range(0, system.poles.r0 + 1):
        m = system.coeff(0, i)
        if m:
            xi = RatFn(x ** i)
            total = total + m.map(lambda e: RatFn.const(field, e, var) * xi)
    for nu in range(1, system.poles.n + 1):
        a = system.poles.points[nu - 1]
        lin = RatFn(Poly(field, [-a, field.one()], var))
        for i in range(1, system.poles.orders[nu - 1] + 1):
            m = system.coeff(nu, i)
            if m:
                pw = lin ** (-i)
                total = total + m.map(
                    lambda e: RatFn.const(field, e, var) * pw)
    return total


class HamiltonianSet:
    """Spectral invariants of Tr L(x)^2, indexed by (nu, i).

    For nu = 0 the value is the x^i coefficient of the polynomial part; for
    nu >= 1 it is the coefficient of (x - a_nu)^{-i}.  Zero values are
    absent.  reassemble() rebuilds Tr L^2 exactly.
    """

    def __init__(self, field, poles, entries, var="x"):
        self.field = field
        self.poles = poles
        self.entries = dict(entries)
        self.var = var

    def value(self, nu, i):
        return self.entries.get((nu, i), self.field.zero())

    def reassemble(self):
        field, var = self.field, self.var
        x = Poly.gen(field, var)
        total = RatFn.zero(field, var)
        for (nu, i), h in self.entries.items():
            if nu == 0:
                total = total + RatFn(Poly.const(field, h, var) * x ** i)
            else:
                a = self.poles.points[nu - 1]
                lin = RatFn(Poly(field, [-a, field.one()], var))
                total = total + h * lin ** (-i)
        return total

    def classify(self):
        """Flag each entry casimir or dynamical per the invariant-ring lemma.

        At a finite pole of order r_nu the top half r_nu+1 <= i <= 2 r_nu
        is Casimir; at infinity the Casimir window is r0 <= i <= 2 r0.
        Every slot the pole structure allows is classified, including those
        whose value happens to vanish on the given system.
        """
        flags = {}
        for i in range(0, 2 * self.poles.r0 + 1):
            casimir = self.poles.r0 <= i
            flags[(0, i)] = "casimir" if casimir else "dynamical"
        for nu in range(1, self.poles.n + 1):
            r = self.poles.orders[nu - 1]
            for i in range(1, 2 * r + 1):
                flags[(nu, i)] = "casimir" if r + 1 <= i else "dynamical"
        # entries outside the allowed windows (e.g. from a 1/x tail) keep
        # their keys but are never casimir
        for key in self.entries:
            if key not in flags:
                flags[key] = "dynamical"
        return flags


def hamiltonians(system):
    """Expand Tr L(x)^2 over the declared pole structure."""
    L = assemble(system)
    t2 = (L * L).trace()
    polypart, terms = partial_fractions(t2, hints=system.poles.points)
    entries = {}
    for i, c in enumerate(polypart.coeffs):
        if c:
            entries[(0, i)] = c
    # keyed in the field: a point given as a Fraction hashes unlike the
    # field element partial_fractions returns for it
    by_point = {system.field.coerce(a): nu
                for nu, a in enumerate(system.poles.points, 1)}
    for pole, order, c in terms:
        nu = by_point.get(pole)
        if nu is None:
            raise InvalidPoleStructure(
                "Tr L^2 has a pole at %s outside the declared structure"
                % (pole,))
        entries[(nu, order)] = c
    return HamiltonianSet(system.field, system.poles, entries, system.var)


def auxiliary_matrix(system, nu, i):
    """The flow generator A_{2,nu,i}.

    2 [x^{-i-1} L]_+ at infinity (nu = 0), -2 [(x-a_nu)^{i-1} L]_- at a
    finite pole.
    """
    field, var = system.field, system.var
    x = Poly.gen(field, var)
    total = Mat2.zero(RatFn.zero(field, var))

    def lift(m, factor):
        return m.map(lambda e: RatFn.const(field, e, var) * factor)

    if nu == 0:
        r0 = system.poles.r0
        if not 0 <= i <= r0 - 1:
            raise IndexOutOfRange(
                "flow index (0, %s) needs 0 <= %s <= r0-1 = %s"
                % (i, i, r0 - 1))
        for j in range(i + 1, r0 + 1):
            m = system.coeff(0, j)
            if m:
                total = total + lift(m, RatFn(x ** (j - i - 1)) * 2)
        return total
    if not 1 <= nu <= system.poles.n:
        raise IndexOutOfRange("no finite pole with index %s" % nu)
    r_nu = system.poles.orders[nu - 1]
    if not 1 <= i <= r_nu:
        raise IndexOutOfRange(
            "flow index (%s, %s) needs 1 <= %s <= %s" % (nu, i, i, r_nu))
    a = system.poles.points[nu - 1]
    lin = RatFn(Poly(field, [-a, field.one()], var))
    # polar part of (x-a)^{i-1} L at a: only j >= i survives
    for j in range(i, r_nu + 1):
        m = system.coeff(nu, j)
        if m:
            total = total - lift(m, lin ** (i - 1 - j) * 2)
    return total


def darboux(system, hints=()):
    """The spectral Darboux pairs (q_i, p_i) of L, as a list.

    q_i are the zeros of entry (2,1) of L(x) and p_i is the value of entry
    (1,1) there.
    """
    L = assemble(system)
    if not L.c:
        raise DegenerateOrbit("entry (2,1) of L(x) vanishes identically")
    expected = system.poles.chart_size
    all_hints = tuple(hints) + tuple(system.poles.points)
    roots = roots_in_field(L.c.num, all_hints)
    pairs = []
    for q, mult in roots:
        if any(q == a for a in system.poles.points):
            continue  # zeros sitting on poles are spurious chart points
        if mult > 1:
            raise DegenerateOrbit(
                "coalesced chart points: %s is a multiple zero" % (q,))
        p = L.a(q)
        pairs.append((q, p))
    if len(pairs) != expected:
        raise DegenerateOrbit(
            "found %s chart points, pole structure demands %s"
            % (len(pairs), expected))
    return pairs
