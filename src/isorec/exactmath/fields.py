"""Coefficient fields for the exact tower Q -> Q(t) -> Q(t)[u]/(u^2 - r(t)).

A field object bundles what the polynomial/series layers need without caring
about the element type: zero()/one(), coerce(), an exact derivation diff(),
a partial square root sqrt() returning None when no root exists in the field,
and to_str() for canonical printing.  Elements are plain values: Fraction
over Q, RatFn over Q(t), ExtElem over a quadratic extension.

An ExtElem operand of the same extension object is used as it is, and a
product where either factor has no u-part is two base products,
(a + b u) a' = a a' + b a' u, with no product by the modulus r and no
sums.  On weighted-homogeneous data every scalar is a monomial c t^i u^j,
so one of its two parts is zero and most tower products take this path.
The derivation's u'/u = r'/(2r) is made by the first diff(), since most
extensions are never differentiated.

Escalation up the tower is always explicit — nothing here invents new
algebraic numbers behind the caller's back.  adjoin_roots is the only code
that grows a scalar field, by one square root u at most, and the only code
of the package that builds a QuadraticExtension.

parse_element reads text with Python's own parser once the characters pass
a whitelist (ASCII digits and letters, _ + - * / ^ ( ), whitespace, and no
number running into a name, so 0x2, 1_0 and 1e3 are refused).  The tree is
walked against a whitelist too: integers, the tower's names, + - * /, unary
signs, ^ or ** by an integer literal.  Each refusal is an InvalidExpression.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import string
from fractions import Fraction

from ..errors import InvalidExpression, UnsolvableInTower
from .poly import (Poly, integer_numerators, poly_sqrt, square_and_multiply,
                   squarefree_decomposition)
from .ratfn import RatFn, split_linear_factors

def _integer_roots(q):
    """The integer roots of a squarefree monic polynomial q over Z.

    Sturm's theorem counts the distinct real roots in a half-open bracket
    (a, b].  Brackets with integer ends inside the Cauchy bound are halved
    while they hold a root, down to width one; the only integer in (a, a+1]
    is a+1, and it is tested exactly.
    """
    chain = [q, q.deriv()]
    while chain[-1].degree() > 0:
        rem = chain[-2] % chain[-1]
        chain.append(-rem)

    def changes(x):
        signs = [v > 0 for v in (p(Fraction(x)) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = int(1 + max(abs(c) for c in q.coeffs))  # Cauchy: |root| < bound
    out = []
    brackets = [(-bound, bound, changes(-bound), changes(bound))]
    while brackets:
        a, b, va, vb = brackets.pop()
        if va == vb:
            continue
        if b - a == 1:
            if not q(Fraction(b)):
                out.append(b)
            continue
        mid = (a + b) // 2
        vm = changes(mid)
        brackets += [(a, mid, va, vm), (mid, b, vm, vb)]
    return sorted(out)


class RationalField:
    """The rationals, with Fraction elements."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    _ZERO = Fraction(0)
    _ONE = Fraction(1)

    def zero(self):
        return RationalField._ZERO

    def one(self):
        return RationalField._ONE

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError("cannot coerce %r into Q" % (v,))

    def diff(self, e):
        return Fraction(0)

    def sqrt(self, e):
        e = self.coerce(e)
        if e < 0:
            return None
        rn = math.isqrt(e.numerator)
        rd = math.isqrt(e.denominator)
        if rn * rn == e.numerator and rd * rd == e.denominator:
            return Fraction(rn, rd)
        return None

    def rational_roots(self, coeffs):
        """The distinct rational roots of a squarefree polynomial over Q.

        With integer coefficients a_0..a_n, the integer-monic transform
        a_n^(n-1) p(y/a_n) has leading coefficient 1, so its rational roots
        are integers y, and the roots of p are the y/a_n.
        """
        ints, _ = integer_numerators([self.coerce(c) for c in coeffs])
        n, lead = len(ints) - 1, ints[-1]
        monic = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])]
        q = Poly(self, [Fraction(c) for c in monic] + [self.one()])
        return [Fraction(y, lead) for y in _integer_roots(q)]

    def to_str(self, e):
        return str(self.coerce(e))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FunctionField:
    """Rational functions over a base field, e.g. Q(t).

    diff() differentiates in this field's own variable, which is the
    canonical derivation when the base consists of constants.  Deeper
    towers are for algebra only; don't differentiate through them.
    """

    def __init__(self, base, var):
        self.base = base
        self.var = var
        self._zero = None
        self._one = None

    def zero(self):
        # elements are immutable, so sharing the cached instance is safe
        if self._zero is None:
            self._zero = RatFn.zero(self.base, self.var)
        return self._zero

    def one(self):
        if self._one is None:
            self._one = RatFn.one(self.base, self.var)
        return self._one

    def gen(self):
        return RatFn.gen(self.base, self.var)

    def coerce(self, v):
        if isinstance(v, RatFn) and v.field == self.base and v.var == self.var:
            return v
        return RatFn.const(self.base, self.base.coerce(v), self.var)

    def diff(self, e):
        return self.coerce(e).deriv()

    def sqrt(self, e):
        e = self.coerce(e)
        sn = poly_sqrt(e.num)
        if sn is None:
            return None
        sd = poly_sqrt(e.den)
        if sd is None:
            return None
        return RatFn(sn, sd)

    def to_str(self, e):
        return self.coerce(e).to_str(self.base.to_str)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FunctionField)
                and self.base == other.base and self.var == other.var)

    def __repr__(self):
        return "%r(%s)" % (self.base, self.var)


class ExtElem:
    """a + b*u with u^2 = r, over the base of a QuadraticExtension."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def _coerce(self, other):
        if isinstance(other, ExtElem) and other.field is self.field:
            return other
        try:
            return self.field.coerce(other)
        except (TypeError, ValueError):
            return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((str(self.a), str(self.b), self.field.uname))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, self.a + o.a,
                       self.b + o.b if o.b else self.b)

    __radd__ = __add__

    def __neg__(self):
        return ExtElem(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, self.a - o.a,
                       self.b - o.b if o.b else self.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.b:
            return ExtElem(self.field, self.a * o.a, self.a * o.b)
        if not o.b:
            return ExtElem(self.field, self.a * o.a, self.b * o.a)
        r = self.field.r
        return ExtElem(self.field,
                       self.a * o.a + self.b * o.b * r,
                       self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverting zero")
        r = self.field.r
        n = self.a * self.a - self.b * self.b * r
        if not n:
            raise ZeroDivisionError(
                "norm vanishes: the extension modulus is a square")
        return ExtElem(self.field, self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return square_and_multiply(self.field.one(), self, n)

    def __str__(self):
        return self.field.to_str(self)

    def __repr__(self):
        return self.field.to_str(self)


class QuadraticExtension:
    """base[u] / (u^2 - r) with the derivation extended by u' = r'/(2r) u."""

    def __init__(self, base, r, uname="u"):
        self.base = base
        self.r = base.coerce(r)
        if not self.r:
            raise ValueError("extension modulus must be nonzero")
        self.uname = uname
        self._du = None  # r'/(2r), made by the first diff()
        self._half = base.one() / base.coerce(2)
        self._zero = ExtElem(self, base.zero(), base.zero())
        self._one = ExtElem(self, base.one(), base.zero())

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def u(self):
        return ExtElem(self, self.base.zero(), self.base.one())

    def coerce(self, v):
        if isinstance(v, ExtElem):
            if v.field == self:
                return v
            raise TypeError("element of a different extension")
        return ExtElem(self, self.base.coerce(v), self.base.zero())

    def diff(self, e):
        e = self.coerce(e)
        if self._du is None:
            self._du = self.base.diff(self.r) / (self.base.coerce(2) * self.r)
        da = self.base.diff(e.a)
        db = self.base.diff(e.b)
        return ExtElem(self, da, db + e.b * self._du)

    def sqrt(self, e):
        e = self.coerce(e)
        if not e.b:
            s = self.base.sqrt(e.a)
            if s is not None:
                return ExtElem(self, s, self.base.zero())
            s = self.base.sqrt(e.a / self.r)
            if s is not None:
                return ExtElem(self, self.base.zero(), s)
            return None
        # (c + d u)^2 = e needs c^2 = (a ± sqrt(a^2 - b^2 r)) / 2, d = b/(2c)
        norm = e.a * e.a - e.b * e.b * self.r
        s = self.base.sqrt(norm)
        if s is None:
            return None
        # c^2 = 0 would make b^2 r = 0, so neither candidate is zero
        for c2 in ((e.a + s) * self._half, (e.a - s) * self._half):
            c = self.base.sqrt(c2)
            if c is not None:
                d = e.b * self._half / c
                cand = ExtElem(self, c, d)
                if cand * cand == e:
                    return cand
        return None

    def to_str(self, e):
        e = self.coerce(e)
        bs = self.base.to_str
        if not e.b:
            return bs(e.a)
        one = self.base.one()
        if e.b == one:
            upart = self.uname
        elif e.b == -one:
            upart = "-%s" % self.uname
        else:
            upart = "(%s)*%s" % (bs(e.b), self.uname)
        if not e.a:
            return upart
        s = "%s + %s" % (bs(e.a), upart)
        return s.replace("+ -", "- ")

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, QuadraticExtension)
                and self.base == other.base and self.uname == other.uname
                and self.r == other.r)

    def __repr__(self):
        return "%r[%s^2=%s]" % (self.base, self.uname,
                                self.base.to_str(self.r))


def adjoin_roots(quad):
    """Both roots of a monic irreducible quadratic X^2 + bX + c over E.

    The one place a scalar field grows: adjoins u with u^2 = -c when b = 0,
    else u^2 = b^2 - 4c.  Returns (extension, modulus, (minus, plus)) with
    the roots -u and u, or (-b - u)/2 and (-b + u)/2.  When E is already a
    quadratic extension it raises UnsolvableInTower: the tower holds one
    root at most.
    """
    E = quad.field
    if isinstance(E, QuadraticExtension):
        raise UnsolvableInTower(
            "%s = 0 needs a second quadratic extension of %r"
            % (quad.to_str(E.to_str), E))
    b, c = quad.coeff(1), quad.coeff(0)
    modulus = b * b - E.coerce(4) * c if b else -c
    ext = QuadraticExtension(E, modulus, "u")
    u = ext.u()
    if not b:
        return ext, modulus, (-u, u)
    half = ext.one() / ext.coerce(2)
    bb = ext.coerce(b)
    return ext, modulus, ((-bb - u) * half, (-bb + u) * half)


def roots_in_one_extension(p):
    """(roots, field, modulus): the roots of p over E in split_linear_factors
    order, with field E and modulus None, or else adjoin_roots' (minus, plus)
    of p's first quadratic factor with the extension and its modulus.  With
    neither, or over an extension already, raises UnsolvableInTower."""
    E = p.field
    roots, rest = split_linear_factors(p)
    if roots:
        return [r for r, _ in roots], E, None
    _, factors = squarefree_decomposition(rest)
    quad = next((g for g, _ in factors if g.degree() == 2), None)
    if quad is None:
        raise UnsolvableInTower(
            "%s = 0 has no root within one quadratic extension of %r"
            % (p.to_str(E.to_str), E))
    ext, modulus, pair = adjoin_roots(quad)
    return list(pair), ext, modulus


# ---------------------------------------------------------------------------
# derivations along a chosen tower variable, and substitution


def partial_derivation(field, name):
    """The derivation d/d(name) on the given tower, as a callable on elements.

    `name` is one of the tower's function-field variables.  The others are
    held fixed; a quadratic generator u is chained through u' = r'/(2r) u
    using the derivative of its modulus.
    """
    if isinstance(field, QuadraticExtension):
        if name == field.uname:
            raise ValueError("%s is algebraic, not an independent variable"
                             % name)
        dbase = partial_derivation(field.base, name)
        dr = dbase(field.r)
        du = dr / ((field.base.coerce(2)) * field.r)

        def d(e):
            e = field.coerce(e)
            return ExtElem(field, dbase(e.a), dbase(e.b) + e.b * du)
        return d
    if name == field.var:
        return lambda e: field.coerce(e).deriv()
    dbase = partial_derivation(field.base, name)
    return lambda e: field.coerce(e).tderiv(dbase)


def substitute(elem, values, one):
    """Evaluate a tower element, variable by variable from the top.

    values maps function-field variable names to elements of some common
    target ring; `one` is that ring's unit.  A variable without a value
    stands for itself, and so does the rest of the tower below it: the
    element is lifted into the target as one * elem, as a bare rational is,
    and raises TypeError when that product is undefined.  A quadratic
    generator takes no value, so an element of an extension is lifted whole.
    Division in the target ring must be available for denominators that
    appear.
    """
    if isinstance(elem, RatFn) and elem.var in values:
        x = values[elem.var]
        num = _subst_poly(elem.num, x, values, one)
        if elem.is_poly():
            return num  # RatFn keeps a constant denominator at 1
        return num / _subst_poly(elem.den, x, values, one)
    return one * elem


def _subst_poly(p, x, values, one):
    acc = None
    for c in reversed(p.coeffs):
        cv = substitute(c, values, one)
        acc = cv if acc is None else acc * x + cv
    return 0 * one if acc is None else acc


# ---------------------------------------------------------------------------
# element parsing


def _generators(field):
    """Map of variable names to elements, walked up the tower."""
    if isinstance(field, QuadraticExtension):
        top = {field.uname: field.u()}
    elif isinstance(field, FunctionField):
        top = {field.var: field.gen()}
    else:
        return {}
    gens = {name: field.coerce(g)
            for name, g in _generators(field.base).items()}
    return gens | top


_SYMBOLS = frozenset(string.ascii_letters + string.digits + "_+-*/^()")
_NUMBER_INTO_NAME = re.compile(r"(?<![A-Za-z0-9_])[0-9]+[A-Za-z_]")
_LEADING_ZEROS = re.compile(r"(?<![A-Za-z0-9_])0+(?=[0-9])")
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}
# the largest exponent literal parse_element accepts; it bounds what one
# literal can build, so a few characters cannot ask for a huge power
MAX_EXPONENT = 1000


def parse_element(text, field):
    """Parse an arithmetic expression into an element of the given field.

    Understands integers, the tower's variable names, + - * / ^ (or **)
    and parentheses: "-(3/2)*t^2 + u/2" in Q(t)[u].  An exponent is an
    integer literal of absolute value at most MAX_EXPONENT.
    """
    for ch in text:
        if ch not in _SYMBOLS and not ch.isspace():
            raise InvalidExpression("unexpected character %r in %r"
                                    % (ch, text))
    if _NUMBER_INTO_NAME.search(text):
        raise InvalidExpression("a number runs into a name in %r" % text)
    # one line, so a newline ends nothing and _exponent compares columns
    source = _LEADING_ZEROS.sub("", " ".join(text.split())).replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as err:
        # CPython reports an integer over its digit limit as ValueError and
        # a tree too deep as RecursionError or MemoryError
        raise InvalidExpression("cannot parse %r: %s" % (text, err)) from None
    return _evaluate(tree.body, field, _generators(field))


def _evaluate(node, field, gens):
    """The value of a parsed tree whose every node is whitelisted.

    The + - * / of the left spine and a run of unary signs are walked in
    loops, so only parentheses and powers recurse; CPython's parser itself
    stops at about 3,000 operands in one chain.
    """
    spine = []
    while isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
        spine.append(node)
        node = node.left
    negate = False
    while isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd,
                                                              ast.USub):
        negate ^= isinstance(node.op, ast.USub)
        node = node.operand
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
        value = _evaluate(node, field, gens)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exponent = _exponent(node)
        value = _evaluate(node.left, field, gens) ** exponent
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        value = field.coerce(node.value)
    elif isinstance(node, ast.Name) and node.id in gens:
        value = gens[node.id]
    else:
        raise InvalidExpression("%s is not allowed in %r"
                                % (ast.unparse(node), field))
    if negate:
        value = -value
    for op in reversed(spine):
        value = _ARITHMETIC[type(op.op)](value,
                                         _evaluate(op.right, field, gens))
    return value


def _exponent(power):
    """The exponent of a power: an integer literal, negated or not, with no
    parentheses of its own and at most MAX_EXPONENT in absolute value."""
    node, sign = power.right, 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node, sign = node.operand, -1
    if not (isinstance(node, ast.Constant) and type(node.value) is int
            and node.end_col_offset == power.end_col_offset):
        raise InvalidExpression("the exponent of %s is not an integer"
                                % ast.unparse(power))
    if node.value > MAX_EXPONENT:
        raise InvalidExpression("the exponent of %s is above %d"
                                % (ast.unparse(power), MAX_EXPONENT))
    return sign * node.value
