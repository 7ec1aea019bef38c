"""Rational functions in one variable, plus the local expansions built on
them.

A RatFn is a reduced fraction of two Poly values over the same coefficient
field: denominator monic, gcd(num, den) = 1, sign carried by the numerator.
Canonical form makes equality a syntactic check.

Sums and products reduce by Henrici's cross-cancellation, never by a full
gcd, and two polynomials skip even that: when both denominators are 1, the
sum or product is that of the numerators over 1, with no gcd test and no
product of the denominators.  A sum with a zero operand is the other one.

The derivative follows Hermite's rule: with g = gcd(d, d'),

    (n/d)' = (n' (d/g) - n (d'/g)) / (d (d/g)),

which is already reduced.  In characteristic 0 a pole of order e becomes
one of order exactly e + 1, and d (d/g) is monic, so the result needs no
gcd of its own.  tderiv keeps its gcd: a derivation of the coefficients may
cancel a factor of the denominator.

The module-level functions (local_expand, partial_fractions,
roots_in_field) are the workhorses everything above this layer uses to take
residues without ever leaving exact arithmetic: the residue of f dx at a
point p is the coefficient at exponent -1 of local_expand(f, p, -1).
"""

from __future__ import annotations

from ..errors import IrreducibleDenominator, TruncationTooShort
from .poly import Poly, poly_gcd, squarefree_decomposition
from .series import Series


class RatFn:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            raise TypeError("numerator must be a Poly")
        if den is None:
            den = Poly.one(num.field, num.var)
        if num.field != den.field or num.var != den.var:
            raise ValueError("numerator and denominator disagree on field or variable")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            if den.degree() == 0:
                c = den.leading()
                if c != num.field.one():
                    num = num / c
                den = Poly.one(num.field, num.var)
            else:
                if num.degree() > 0:
                    g = poly_gcd(num, den)
                    if g.degree() > 0:
                        num = num // g
                        den = den // g
                lc = den.leading()
                if lc != num.field.one():
                    num = num / lc
                    den = den / lc
        else:
            den = Poly.one(num.field, num.var)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num, den):
        """Wrap num/den that is already canonical: coprime, den monic, and
        den = 1 when num = 0.  The arithmetic below keeps its operands in
        this form, so it never needs the full gcd of __init__."""
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, field, c, var):
        return cls._reduced(Poly.const(field, c, var), Poly.one(field, var))

    @classmethod
    def gen(cls, field, var):
        return cls._reduced(Poly.gen(field, var), Poly.one(field, var))

    @classmethod
    def zero(cls, field, var):
        return cls._reduced(Poly.zero(field, var), Poly.one(field, var))

    @classmethod
    def one(cls, field, var):
        return cls._reduced(Poly.one(field, var), Poly.one(field, var))

    # -- structure ---------------------------------------------------------

    @property
    def field(self):
        return self.num.field

    @property
    def var(self):
        return self.num.var

    def __bool__(self):
        return bool(self.num)

    def is_poly(self):
        return self.den.degree() == 0

    def as_poly(self):
        if not self.is_poly():
            raise ValueError("not a polynomial: %s" % self)
        return self.num

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.var, tuple(self.num.coeffs), tuple(self.den.coeffs)))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFn):
            f, g = self.num, other.num
            if (g.field is f.field or g.field == f.field) and g.var == f.var:
                return other
            # a rational function in another variable may still be a scalar
            # of our coefficient field; fall through to field coercion
        try:
            c = self.field.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return RatFn.const(self.field, c, self.var)

    def _lift_into(self, other):
        """Self as an element of another RatFn's ring, if its scalars allow.

        Needed because Python skips reflected dispatch for same-type
        operands: a scalar living deeper in the tower must climb up itself.
        """
        if isinstance(other, RatFn):
            lifted = other._coerce(self)
            if lifted is not NotImplemented:
                return lifted
        return NotImplemented

    def _sum(self, c, d):
        """self + c/d for canonical c/d, reducing only by gcds of factors of
        the denominators (Henrici; Knuth, TAOCP 2, 4.5.1)."""
        a, b = self.num, self.den
        if not c:
            return self
        if not a:
            return RatFn._reduced(c, d)
        if b.degree() == 0 and d.degree() == 0:
            return RatFn._reduced(a + c, b)
        if b == d:
            t = a + c
            g = poly_gcd(t, b)
            return RatFn._reduced(t // g, b // g)
        g = poly_gcd(b, d)
        if g.degree() == 0:
            return RatFn._reduced(a * d + c * b, b * d)
        # t = 0 would mean a/b = -c/d, and canonical forms then have b = d
        bg = b // g
        t = a * (d // g) + c * bg
        g2 = poly_gcd(t, g)
        return RatFn._reduced(t // g2, bg * (d // g2))

    def _product(self, c, d):
        """self * c/d for canonical c/d: a and d lose gcd(a, d), c and b
        lose gcd(c, b), and the products are then coprime."""
        a, b = self.num, self.den
        if not a:
            return self
        if not c:
            return RatFn._reduced(c, d)
        if b.degree() == 0 and d.degree() == 0:
            return RatFn._reduced(a * c, b)
        if a.degree() > 0 and d.degree() > 0:
            g = poly_gcd(a, d)
            if g.degree() > 0:
                a, d = a // g, d // g
        if c.degree() > 0 and b.degree() > 0:
            g = poly_gcd(c, b)
            if g.degree() > 0:
                c, b = c // g, b // g
        return RatFn._reduced(a * c, b * d)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(o.num, o.den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RatFn._reduced(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(-o.num, o.den)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            s = self._lift_into(other)
            return NotImplemented if s is NotImplemented else s * other
        return self._product(o.num, o.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        o = o.inverse()
        return self._product(o.num, o.den)

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverting the zero rational function")
        num, den = self.den, self.num
        lc = den.leading()
        if lc != den.field.one():
            num, den = num / lc, den / lc
        return RatFn._reduced(num, den)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFn._reduced(self.num ** n, self.den ** n)

    # -- calculus -----------------------------------------------------------

    def deriv(self):
        """Derivative in the main variable, by Hermite's rule."""
        n, d = self.num, self.den
        if d.degree() == 0:
            return RatFn._reduced(n.deriv(), d)
        dd = d.deriv()
        g = poly_gcd(d, dd)
        dg = d // g
        return RatFn._reduced(n.deriv() * dg - n * (dd // g), d * dg)

    def tderiv(self, derivation=None):
        """Derivative through the coefficients.

        Uses the field's own derivation by default; pass any map obeying the
        Leibniz rule to differentiate along another direction of the tower.
        """
        d = derivation if derivation is not None else self.field.diff
        nt = self.num.map_coeffs(d)
        dt = self.den.map_coeffs(d)
        return RatFn(nt * self.den - self.num * dt, self.den * self.den)

    def map_coeffs(self, fn, field=None):
        return RatFn(self.num.map_coeffs(fn, field),
                     self.den.map_coeffs(fn, field))

    def __call__(self, v):
        dv = self.den(v)
        if not dv:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num(v) / dv

    # -- display ------------------------------------------------------------

    def to_str(self, fmt=str):
        n = self.num.to_str(fmt)
        if self.is_poly():
            return n
        return "(%s)/(%s)" % (n, self.den.to_str(fmt))

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return "RatFn(%s)" % self.to_str()


def evaluate(f, value, ring):
    """f(value) for a value over `ring`: f's coefficients are coerced into
    `ring` first, so a constant f also lands there."""
    if f.field != ring:
        f = f.map_coeffs(ring.coerce, ring)
    return f(value)


# ---------------------------------------------------------------------------
# root finding in the coefficient field


def _drop_root(p, a):
    """p / (x - a) for a root a of p."""
    return p // Poly(p.field, [-a, p.field.one()], p.var)


def _peel_roots(g, hints):
    """Strip every discoverable linear factor off a squarefree g, each
    by one division: its roots are simple.

    Returns (roots, leftover); leftover is constant iff g split fully."""
    field = g.field
    roots = []
    for h in hints:
        h = field.coerce(h)
        if g.degree() >= 1 and not g(h):
            g = _drop_root(g, h)
            roots.append(h)
    # constant term zero means a root at the origin
    if g.degree() >= 1 and not g.constant():
        g = _drop_root(g, field.zero())
        roots.append(field.zero())
    rational_roots = getattr(field, "rational_roots", None)
    if rational_roots is not None and g.degree() > 2:
        for c in rational_roots(g.coeffs):
            g = _drop_root(g, c)
            roots.append(c)
    if g.degree() == 1:
        roots.append(-g.coeff(0) / g.coeff(1))
        g = Poly.one(field, g.var)
    elif g.degree() == 2:
        a, b, c = g.coeff(2), g.coeff(1), g.coeff(0)
        four = field.coerce(4)
        disc = b * b - four * a * c
        s = field.sqrt(disc)
        if s is not None:
            two_a = (field.one() + field.one()) * a
            roots.append((-b + s) / two_a)
            roots.append((-b - s) / two_a)
            g = Poly.one(field, g.var)
    return roots, g


def split_linear_factors(p, hints=()):
    """Partial factorization: ([(root, mult), ...], rootless remainder).

    Unlike roots_in_field this never raises on irreducible factors; they
    are multiplied into the returned remainder polynomial instead.
    """
    field = p.field
    out = []
    rest = Poly.one(field, p.var)
    if p.degree() <= 0:
        return out, rest
    _, factors = squarefree_decomposition(p)
    for g, mult in factors:
        roots, leftover = _peel_roots(g, hints)
        out.extend((r, mult) for r in roots)
        if leftover.degree() >= 1:
            rest = rest * leftover ** mult
    out.sort(key=lambda rm: (field.to_str(rm[0]), rm[1]))
    return out, rest


def roots_in_field(p, hints=()):
    """Roots of p with multiplicities, as [(root, mult), ...].

    hints are candidate roots tried before any systematic search; the field
    may additionally expose rational_roots() (the rationals do, by exact
    real-root isolation).  Raises IrreducibleDenominator when p does not
    split into linear factors over its own coefficient field.
    """
    roots, rest = split_linear_factors(p, hints)
    if rest.degree() > 0:
        raise IrreducibleDenominator(
            "factor %s does not split over the working field"
            % rest.to_str())
    return roots


# ---------------------------------------------------------------------------
# local expansion and partial fractions


def local_expand(f, p, K):
    """Laurent window of f at the point p, exponents up to K inclusive.

    The residue of f dx at p is its coefficient at exponent -1.  Raises
    TruncationTooShort when K lies below the leading exponent, i.e. the
    requested window is empty.  The order of p as a root of the numerator
    and of the denominator is the number of leading zeros of its shift.
    """
    field = f.field
    if not f:
        return Series(K + 1, [], K + 1, field.zero(), p)
    p = field.coerce(p)
    tn = f.num.taylor_at(p, f.num.degree() + 1)
    td = f.den.taylor_at(p, f.den.degree() + 1)
    an = next(i for i, c in enumerate(tn) if c)
    ad = next(i for i, c in enumerate(td) if c)
    v = an - ad
    if K < v:
        if v < 0:
            raise TruncationTooShort(
                "window to order %s cannot hold a pole of order %s" % (K, -v))
        # the function vanishes to order v > K: the window is honestly zero
        return Series(K + 1, [], K + 1, field.zero(), p)
    terms = K - v + 1
    zero = field.zero()
    ns = Series(0, tn[an:an + terms], terms, zero, p)
    ds = Series(0, td[ad:ad + terms], terms, zero, p)
    return (ns * ds.inverse()).shift(v)


def partial_fractions(f, hints=()):
    """Split f into a polynomial part plus simple-pole terms.

    Returns (polypart, terms) where terms is a list of (pole, order, coeff)
    triples, sorted by pole then order, with zero coefficients dropped;
    recombine() inverts this exactly.  Raises IrreducibleDenominator when
    the denominator does not split over the field (hints are candidate
    poles to try first).
    """
    field = f.field
    polypart, rem = divmod(f.num, f.den)
    terms = []
    if f.den.degree() > 0 and rem:
        tail = RatFn(rem, f.den)
        for pole, mult in roots_in_field(f.den, hints):
            window = local_expand(tail, pole, -1)
            for j in range(1, mult + 1):
                c = window.coeff(-j)
                if c:
                    terms.append((pole, j, c))
    terms.sort(key=lambda t: (field.to_str(t[0]), t[1]))
    return polypart, terms


def recombine(polypart, terms):
    """Rebuild the RatFn described by a partial-fraction decomposition."""
    field, var = polypart.field, polypart.var
    total = RatFn(polypart)
    for pole, order, coeff in terms:
        lin = Poly(field, [-pole, field.one()], var)
        total = total + RatFn(Poly.const(field, coeff, var), lin ** order)
    return total
