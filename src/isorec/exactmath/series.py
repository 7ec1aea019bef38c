"""Truncated Laurent series.

One type serves both expansions of the chain: Laurent windows at a point of
the x-line or z-line (the point is tagged) and power series in the formal
expansion parameter hbar (no point).  Coefficients live in any ring the
caller supplies, together with its zero; products keep the order a*b of
their factors, so matrix coefficients work too.

Series refuse to answer coefficient queries beyond their guaranteed
precision: silent zeros are how truncation bugs hide.

Every product, on every ring, runs one kernel (cleared_product): each
factor is cleared to numerators over one denominator (clear), integers over
their lcm when both factors are over Q, the coefficients over 1 on any
other ring, and only the coefficients the product reads are cleared.  Over
Q one Fraction is built per output coefficient; Fraction is canonical, so
the results are those of Fraction arithmetic, byte for byte when printed.
toprec's residue rows and separated's slot vectors read the same kernel.

Every inverse runs one kernel too (cleared_inverse), which keeps two
recurrences.  Over Q it is fraction-free on integers, with numerators in
lowest terms over a positive denominator: Series.inverse builds one
Fraction per coefficient from them, toprec's branch windows none.
Elsewhere it divides by the leading coefficient, where the fraction-free
one made the tower F_2 run of the tests about a fifth slower.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..errors import TruncationTooShort
from .poly import integer_numerators, square_and_multiply


class Series:
    """Finite window of a Laurent expansion.

    Exponents count powers of the local uniformizer: (x - p) at the point
    p, hbar when `point` is None.  `prec` is the first exponent that is
    *not* known; everything from `kmin` up to prec - 1 is guaranteed, and
    exponents below kmin are known zeros.  `zero` is the coefficient ring's
    zero.
    """

    __slots__ = ("kmin", "coeffs", "prec", "zero", "point")

    def __init__(self, kmin, coeffs, prec, zero, point=None):
        coeffs = list(coeffs)
        if kmin + len(coeffs) > prec:
            raise ValueError("more coefficients than the precision admits")
        # pad the window up to prec with explicit zeros
        while kmin + len(coeffs) < prec:
            coeffs.append(zero)
        # strip known-zero leading terms so kmin is informative
        lead = next((i for i, c in enumerate(coeffs) if c), None)
        if lead is None:
            coeffs, kmin = [], prec
        elif lead:
            coeffs, kmin = coeffs[lead:], kmin + lead
        self.kmin = kmin
        self.coeffs = coeffs
        self.prec = prec
        self.zero = zero
        self.point = point

    @classmethod
    def constant(cls, value, prec, zero):
        """The hbar series value + O(hbar^prec)."""
        return cls(0, [value], prec, zero)

    def _like(self, kmin, coeffs, prec):
        return Series(kmin, coeffs, prec, self.zero, self.point)

    # -- basics ---------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def valuation(self):
        """Exponent of the first nonzero known coefficient.

        For an all-zero window this returns prec: the true valuation is
        only known to be at least that.
        """
        return self.kmin

    def coeff(self, k):
        if k >= self.prec:
            raise TruncationTooShort(
                "coefficient at exponent %s requested, series only known below %s"
                % (k, self.prec))
        if k < self.kmin:
            return self.zero
        return self.coeffs[k - self.kmin]

    def known_items(self):
        """(exponent, coefficient) pairs for the nonzero known terms."""
        return [(self.kmin + i, c) for i, c in enumerate(self.coeffs) if c]

    def _same_point(self, other):
        a, b = self.point, other.point
        return a is b or a == b

    def _check_point(self, other):
        if not self._same_point(other):
            raise ValueError("series live at different points")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        self._check_point(other)
        prec = min(self.prec, other.prec)
        kmin = min(self.kmin, other.kmin, prec)
        out = [self.zero] * (prec - kmin)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                k = src.kmin + i
                if k < prec:
                    out[k - kmin] = out[k - kmin] + c
        return self._like(kmin, out, prec)

    def __neg__(self):
        return self._like(self.kmin, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self._like(self.kmin, [c * other for c in self.coeffs],
                              self.prec)
        self._check_point(other)
        # a zero factor is exact up to its guaranteed order
        prec = min(self.prec + other.kmin, other.prec + self.kmin)
        if not self.coeffs or not other.coeffs:
            return self._like(prec, [], prec)
        rational = type(self.zero) is type(other.zero) is Fraction
        n = prec - self.kmin - other.kmin
        kmin, prec, nums, den = cleared_product(
            cleared(self, rational, n), cleared(other, rational, n),
            0 if rational else self.zero)
        if rational:
            nums = [Fraction(c, den) if c else self.zero for c in nums]
        return self._like(kmin, nums, prec)

    def __rmul__(self, other):
        # scalar * series, with the scalar acting on the left of each term
        return self._like(self.kmin, [other * c for c in self.coeffs],
                          self.prec)

    def inverse(self):
        """Multiplicative inverse, precise to prec - 2*kmin exponents."""
        rational = type(self.zero) is Fraction
        kmin, prec, nums, den = cleared_inverse(cleared(self, rational),
                                                rational)
        if rational:
            nums = [Fraction(c, den) if c else self.zero for c in nums]
        return self._like(kmin, nums, prec)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        # 1 + O(w^(prec - kmin)); with no known term, O(w^0)
        seed = [self.zero + 1] if self.prec > self.kmin else []
        return square_and_multiply(
            self._like(0, seed, self.prec - self.kmin), self, n)

    # -- reshaping --------------------------------------------------------

    def truncate(self, prec):
        if prec > self.prec:
            raise TruncationTooShort(
                "cannot extend precision from %s to %s" % (self.prec, prec))
        if prec <= self.kmin:
            return self._like(prec, [], prec)
        return self._like(self.kmin, self.coeffs[:prec - self.kmin], prec)

    def shift(self, d):
        """Multiply by uniformizer^d (exponent shift)."""
        return self._like(self.kmin + d, self.coeffs, self.prec + d)

    def deriv(self):
        """Termwise derivative with respect to the uniformizer."""
        out = [c * (self.kmin + i) for i, c in enumerate(self.coeffs)]
        return self._like(self.kmin - 1, out, self.prec - 1)

    def map_coeffs(self, fn):
        return self._like(self.kmin, [fn(c) for c in self.coeffs], self.prec)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self._same_point(other) and self.prec == other.prec
                and self.kmin == other.kmin and self.coeffs == other.coeffs)


def clear(coeffs, rational):
    """Coefficients as (numerators, denominator): over Q (rational) integer
    numerators over their lcm, on any other ring the coefficients over 1."""
    return integer_numerators(coeffs) if rational else (coeffs, 1)


def integer_product(a, b, n, zero=0):
    """The first n coefficients of the product a*b of two sequences, summed
    onto zero (0 for integers, the ring's zero otherwise)."""
    out = [zero] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                out[j] += x * y
    return out


def cleared(series, rational, n=None):
    """A window as (kmin, prec, numerators, denominator), its first n
    coefficients cleared (all of them, read in place, when n is None)."""
    coeffs = series.coeffs if n is None else series.coeffs[:n]
    return (series.kmin, series.prec) + clear(coeffs, rational)


def cleared_product(x, y, zero, top=None):
    """The product of two cleared windows, as one, with numerators summed
    onto zero and only below the exponent top (when top is not None).  The
    leading numerators are nonzero, so kmin is the product's valuation."""
    xk, xp, xn, xd = x
    yk, yp, yn, yd = y
    kmin = xk + yk
    prec = min(xp + yk, yp + xk)
    n = (prec if top is None else min(prec, top)) - kmin
    return kmin, prec, integer_product(xn, yn, max(n, 0), zero), xd * yd


def cleared_inverse(x, rational):
    """The inverse of a cleared window x, as one, as long as x (numerators
    past the end of x's list are zeros).  Over Q (rational) its integer
    numerators in lowest terms over a positive denominator, by the
    fraction-free recurrence; on any other ring the coefficients over 1,
    dividing by the leading one."""
    kmin, prec, nums, den = x
    if not nums:
        raise ZeroDivisionError(
            "inverting a window with no known nonzero term")
    n = prec - kmin
    if not rational:
        return -kmin, n - kmin, _inverse_divided(nums, n, 0), 1
    # x = A/den: 1/x = den * sum_k C_k w^k / A_0^(k+1), where C_0 = 1 and
    # C_k = -sum_{j=1..k} A_j A_0^(j-1) C_{k-j} stay integers; put over A_0^n
    lead = nums[0]
    terms = [(j, c * lead ** (j - 1)) for j, c in enumerate(nums) if j and c]
    out = [1]
    for k in range(1, n):
        out.append(-sum(c * out[k - j] for j, c in terms if j <= k))
    scale = den
    for k in range(n - 1, -1, -1):
        out[k] *= scale
        scale *= lead
    scale //= den
    if scale < 0:
        scale, out = -scale, [-c for c in out]
    common = gcd(scale, *out)
    return -kmin, n - kmin, [c // common for c in out], scale // common


def _inverse_divided(coeffs, n, zero):
    """The first n coefficients of 1/a on any field, dividing by a_0 =
    coeffs[0] != 0; the sums start from zero."""
    inv_lead = 1 / coeffs[0]
    out = [zero] * n
    out[0] = inv_lead
    for k in range(1, n):
        acc = zero
        for j in range(1, min(k, len(coeffs) - 1) + 1):
            acc = acc + coeffs[j] * out[k - j]
        out[k] = -(inv_lead * acc)
    return out


# plain aliases, not subclasses: isobench wraps Series methods through the
# class namespace under both names and builds constants via HbarSeries
LocalSeries = HbarSeries = Series
