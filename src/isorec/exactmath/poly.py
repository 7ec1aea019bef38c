"""Dense univariate polynomials over an exact coefficient field.

Coefficients are stored ascending by degree with trailing zeros stripped,
so the zero polynomial has an empty list. The coefficient field is a field
object (see fields.py) supplying zero/one/coerce; the elements themselves
carry the ring operators. Everything here is immutable and exact.

There are two constructors. `Poly(field, coeffs, var)` coerces every
coefficient into the field. `Poly._trusted(field, coeffs, var)` only strips
trailing zeros: its caller vouches that the coefficients already are
elements of that field object, as they are once an operand over another
field has been coerced into it (cf. `RatFn._reduced`). When the other
operand's field does not coerce into self's, self is lifted into the other
field instead; when neither coerces, the operator gives NotImplemented.

Against a monomial c*x^k no Euclid or long division runs:
gcd(a, c*x^k) = x^min(k, v) with v the index of the first nonzero
coefficient of a (x^k when a = 0), and a divided by c*x^k is the
coefficients of a from degree k up, times 1/c, with the coefficients below
degree k as the remainder (Knuth, TAOCP 2, 4.6.1).

Trivial operands cost no work either: an operand that is a Poly over the
same field object and in the same variable is used as it is, with no
coercion, and a product by the constant field.one() returns the other
factor itself, which is safe because a Poly is immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

def square_and_multiply(one, base, n):
    """one * base^n for n >= 0, multiplying by the squares of base whose
    bit of n is set, lowest first, each on the right."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class Poly:
    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field, coeffs, var="x"):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.var = var
        self.coeffs = tuple(coeffs)

    # --- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, field, coeffs, var):
        """A Poly from coefficients the caller vouches are elements of
        `field`; only trailing zeros are stripped.

        The caller hands over `coeffs`, a fresh list (or ()), which this
        strips in place instead of copying.
        """
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        p = object.__new__(cls)
        p.field = field
        p.var = var
        p.coeffs = tuple(coeffs)
        return p

    @classmethod
    def zero(cls, field, var="x"):
        return cls._trusted(field, (), var)

    @classmethod
    def one(cls, field, var="x"):
        return cls._trusted(field, [field.one()], var)

    @classmethod
    def const(cls, field, c, var="x"):
        return cls(field, [c], var)

    @classmethod
    def gen(cls, field, var="x"):
        """The polynomial `var` itself."""
        return cls._trusted(field, [field.zero(), field.one()], var)

    # --- structure ---------------------------------------------------------

    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def _is_monomial(self):
        """True when exactly one coefficient is nonzero: self = c*x^k."""
        c = self.coeffs
        return bool(c) and not any(c[:-1])

    def leading(self):
        """The leading coefficient of a nonzero polynomial."""
        return self.coeffs[-1]

    def constant(self):
        """The constant coefficient of a nonzero polynomial."""
        return self.coeffs[0]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0].coeffs == pair[1].coeffs

    # --- arithmetic --------------------------------------------------------

    def _coerce_operand(self, other):
        """other as a Poly over self.field, or NotImplemented."""
        try:
            if isinstance(other, Poly):
                if other.var != self.var:
                    return NotImplemented
                coerce = self.field.coerce
                return Poly._trusted(self.field,
                                     [coerce(c) for c in other.coeffs],
                                     self.var)
            c = self.field.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return Poly._trusted(self.field, [c] if c else (), self.var)

    def _pair(self, other):
        """(self, other) over one field object, or None.

        other is coerced into self.field; failing that, a Poly self is
        lifted into the field of a Poly other, because Python never tries
        the reflected operator of an operand of the same type.
        """
        if isinstance(other, Poly) and other.field is self.field \
                and other.var == self.var:
            return self, other
        o = self._coerce_operand(other)
        if o is not NotImplemented:
            return self, o
        if isinstance(other, Poly):
            lifted = other._coerce_operand(self)
            if lifted is not NotImplemented:
                return lifted, other
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        p, q = pair
        a, b = p.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._trusted(p.field, out, p.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.field, [-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0] + (-pair[1])

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        p, q = pair
        field, a, b = p.field, p.coeffs, q.coeffs
        if not a or not b:
            return Poly.zero(field, p.var)
        one = field.one()
        if len(a) == 1:
            c = a[0]
            if c == one:
                return q
            return Poly._trusted(field, [c * bj for bj in b], p.var)
        if len(b) == 1:
            c = b[0]
            if c == one:
                return p
            return Poly._trusted(field, [ai * c for ai in a], p.var)
        zero = field.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return Poly._trusted(field, out, p.var)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return square_and_multiply(
            Poly.const(self.field, self.field.one(), self.var), self, n)

    def __divmod__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        p, other = pair
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        field, var = p.field, p.var
        rem = list(p.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(field, var), p
        one = field.one()
        if other._is_monomial():
            k = other.degree()
            quot = rem[k:]
            if other.leading() != one:
                inv_lead = one / other.leading()
                quot = [c * inv_lead for c in quot]
            return (Poly._trusted(field, quot, var),
                    Poly._trusted(field, rem[:k], var))
        inv_lead = one / other.leading()
        quot = [field.zero()] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lead
            quot[k] = c
            if c:
                for j, bj in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * bj
        return (Poly._trusted(field, quot, var),
                Poly._trusted(field, rem, var))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        """Exact division by a scalar (or a polynomial that divides exactly)."""
        if isinstance(other, Poly):
            q, r = divmod(self, other)
            if r:
                raise ValueError("inexact polynomial division")
            return q
        c = self.field.coerce(other)
        inv = self.field.one() / c
        return Poly._trusted(self.field, [a * inv for a in self.coeffs], self.var)

    # --- calculus & evaluation --------------------------------------------

    def deriv(self):
        """Derivative with respect to the polynomial's own variable."""
        if len(self.coeffs) <= 1:
            return Poly.zero(self.field, self.var)
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * self.field.coerce(i))
        return Poly(self.field, out, self.var)

    def map_coeffs(self, fn, field=None):
        """Apply fn to every coefficient (e.g. a coefficient derivation)."""
        f = field if field is not None else self.field
        return Poly(f, [fn(c) for c in self.coeffs], self.var)

    def __call__(self, v):
        """Horner evaluation; v may live in any ring the coefficients embed in.

        For a constant polynomial the bare coefficient is returned; callers
        composing into a bigger ring coerce it there themselves.
        """
        if not self.coeffs:
            return self.field.zero()
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * v + c
        return acc

    def taylor_at(self, a, n):
        """First n coefficients of self(a + w) as a list (ascending in w).

        Computed by repeated synthetic division, which stays exact and cheap;
        at a = 0 the shift is the identity and reads the coefficients.
        """
        a = self.field.coerce(a)
        zero = self.field.zero()
        if not a:
            return (list(self.coeffs) + [zero] * n)[:n]
        rem = list(self.coeffs)
        out = []
        for _ in range(n):
            if not rem:
                out.append(zero)
                continue
            if len(rem) == 1:
                out.append(rem[0])
                rem = []
                continue
            q = [zero] * (len(rem) - 1)
            carry = rem[-1]
            q[-1] = carry
            for i in range(len(rem) - 2, 0, -1):
                carry = rem[i] + carry * a
                q[i - 1] = carry
            out.append(rem[0] + carry * a)
            rem = q
        return out

    def monic(self):
        """(monic polynomial, leading coefficient) of a nonzero polynomial."""
        lc = self.leading()
        if lc == self.field.one():
            return self, lc
        return self / lc, lc

    # --- display -----------------------------------------------------------

    def to_str(self, fmt=str):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = fmt(c)
            needs_paren = ("+" in cs[1:]) or ("-" in cs[1:]) or ("/" in cs) or (" " in cs)
            if i == 0:
                parts.append(f"({cs})" if needs_paren and parts else cs)
            else:
                xs = self.var if i == 1 else f"{self.var}^{i}"
                if cs == "1":
                    parts.append(xs)
                elif cs == "-1":
                    parts.append(f"-{xs}")
                else:
                    parts.append(f"({cs})*{xs}" if needs_paren else f"{cs}*{xs}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def poly_gcd(a, b):
    """Monic gcd (coefficients form a field): x^min(k, v) against a monomial
    c*x^k, with v the valuation of the other operand.  Over Q and over a
    function field K(t) the coefficients are cleared into Z or K[t] and the
    gcd is taken there by the primitive remainder sequence; over any other
    field by the Euclidean algorithm."""
    if a.var != b.var:
        raise TypeError("gcd of polynomials in %s and in %s" % (a.var, b.var))
    if (a and a.degree() == 0) or (b and b.degree() == 0):
        return Poly.one(a.field, a.var)
    if a._is_monomial():
        a, b = b, a
    if b._is_monomial():
        k = b.degree()
        if a:
            k = min(k, next(i for i, c in enumerate(a.coeffs) if c))
        field = b.field
        return Poly._trusted(field, [field.zero()] * k + [field.one()], b.var)
    if not (a and b):
        return (a or b).monic()[0]
    from .ratfn import RatFn  # ratfn imports this module
    kind = type(a.field.zero())
    if kind is Fraction or kind is RatFn:
        g = _primitive_gcd(_cleared(a.coeffs), _cleared(b.coeffs))
        return Poly._trusted(a.field, [kind(c, g[-1]) for c in g], a.var)
    while b:
        a, b = b, a % b
    return a.monic()[0]


def integer_numerators(coeffs):
    """Integer numerators of rationals over their least common denominator."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _cleared(coeffs):
    """Rationals, or rational functions over K, times the least common
    multiple of their denominators: a primitive list of integers or of
    polynomials over K."""
    if type(coeffs[0]) is Fraction:
        return _primitive(integer_numerators(coeffs)[0])
    den = coeffs[0].den
    for c in coeffs[1:]:
        den = den // poly_gcd(den, c.den) * c.den
    return _primitive([c.num * (den // c.den) for c in coeffs])


def _primitive(row):
    """Integers, or polynomials over a field, not all zero, divided by their
    gcd: the last one comes out positive, or monic."""
    if type(row[-1]) is int:
        g = gcd(*row) if row[-1] > 0 else -gcd(*row)
    else:
        g = row[-1]
        for c in row:
            g = poly_gcd(g, c)
        g = g * row[-1].leading()
    return [c // g for c in row]


def _primitive_gcd(u, v):
    """The gcd of two primitive coefficient lists over Z or K[t], by
    pseudo-division, each remainder made primitive (Knuth, TAOCP 2, 4.6.1,
    Algorithm E).  No fraction is built on the way; Euclid over Q or K(t)
    reduces one at every coefficient operation, on entries that swell."""
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        lead, n, r = v[-1], len(v), u
        while len(r) >= n:
            c, k = r[-1], len(r) - n
            r = [lead * x for x in r[:k]] + [
                lead * x - c * y for x, y in zip(r[k:-1], v)]
            while r and not r[-1]:
                r.pop()
        if not r:
            return v
        u, v = v, _primitive(r)
    return v[-1:]


def squarefree_decomposition(p):
    """Yun's algorithm. Returns (lc, [(g_1,1), (g_2,2), ...]) with
    p = lc * prod g_i^i, the g_i monic, squarefree and pairwise coprime.
    Factors with g_i == 1 are omitted."""
    if not p:
        raise ValueError("squarefree decomposition of zero")
    p, lc = p.monic()
    if p.degree() == 0:
        return lc, []
    dp = p.deriv()
    a0 = poly_gcd(p, dp)
    if a0.degree() == 0:
        return lc, [(p, 1)]
    b = p / a0
    c = dp / a0
    d = c - b.deriv()
    out = []
    i = 1
    while b.degree() > 0:
        a = poly_gcd(b, d)
        if a.degree() > 0:
            out.append((a, i))
        b = b / a
        c = d / a
        d = c - b.deriv()
        i += 1
    return lc, out


def poly_sqrt(p):
    """Exact square root of a polynomial, or None.

    The leading coefficient must be a square in the coefficient field
    (checked through field.sqrt)."""
    if not p:
        return p
    deg = p.degree()
    if deg % 2:
        return None
    field = p.field
    lead = field.sqrt(p.leading())
    if lead is None:
        return None
    m = deg // 2
    b = [field.zero()] * (m + 1)
    b[m] = lead
    inv2lead = field.one() / (lead + lead)
    # match coefficients downward from degree 2m-1; at step k the only
    # unknown in sum_{i+j=k} b_i b_j is b_{k-m} (twice, against b_m)
    for k in range(2 * m - 1, m - 1, -1):
        acc = field.zero()
        for i in range(k - m + 1, m):
            acc = acc + b[i] * b[k - i]
        b[k - m] = (p.coeff(k) - acc) * inv2lead
    q = Poly(field, b, p.var)
    if q * q == p:
        return q
    return None
