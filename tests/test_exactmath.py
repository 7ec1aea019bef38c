"""Exact arithmetic layer: ring axioms, partial fractions and local
expansions, the field tower."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isorec.errors import (InvalidExpression, IrreducibleDenominator,
                           TruncationTooShort, UnsolvableInTower)
from isorec.exactmath import (
    ExtElem, FunctionField, HbarSeries, Poly, QQ, QuadraticExtension, RatFn,
    adjoin_roots, cleared, cleared_inverse, integer_product, local_expand,
    parse_element, partial_derivation,
    Series, partial_fractions, poly_gcd, poly_sqrt, recombine,
    roots_in_field, roots_in_one_extension, split_linear_factors,
    squarefree_decomposition, substitute,
)
from isorec.exactmath.fields import MAX_EXPONENT
from isorec.isodeform import CASE_INFINITY, DeformCase
from isorec.laxsystem import Mat2

Qt = FunctionField(QQ, "t")


def X():
    return RatFn.gen(QQ, "x")


# --- strategies -----------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))

small_polys = st.builds(
    lambda cs: Poly(QQ, cs, "x"),
    st.lists(rationals, min_size=0, max_size=5),
)

nonzero_polys = small_polys.filter(bool)

ratfns = st.builds(lambda n, d: RatFn(n, d), small_polys, nonzero_polys)


@st.composite
def pole_sums(draw):
    """Rational function built from explicit poles of order <= 4 plus a polynomial."""
    x = X()
    f = RatFn(draw(small_polys))
    npoles = draw(st.integers(1, 3))
    for _ in range(npoles):
        p = draw(st.integers(-5, 5))
        order = draw(st.integers(1, 4))
        c = draw(rationals)
        if c:
            f = f + c / (x - p) ** order
    return f


# --- ring axioms ------------------------------------------------------------


@given(ratfns, ratfns, ratfns)
def test_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


@given(ratfns, ratfns)
def test_commutativity_and_inverse(f, g):
    assert f + g == g + f
    assert f * g == g * f
    if g:
        assert (f / g) * g == f


@given(ratfns)
def test_canonical_form(f):
    assert f.den.leading() == 1
    assert poly_gcd(f.num, f.den).degree() <= 0 or not f.num


# --- partial fractions ------------------------------------------------------


def test_difference_of_squares():
    f = 1 / (X() ** 2 - 1)
    pp, terms = partial_fractions(f)
    assert not pp
    assert terms == [(Fraction(-1), 1, Fraction(-1, 2)),
                     (Fraction(1), 1, Fraction(1, 2))]


def test_pure_polynomial_has_no_poles():
    f = X() ** 3
    pp, terms = partial_fractions(f)
    assert pp == Poly(QQ, [0, 0, 0, 1], "x")
    assert terms == []


def test_double_pole():
    x = X()
    pp, terms = partial_fractions(2 * x / (x - 3) ** 2)
    assert not pp
    assert terms == [(Fraction(3), 1, Fraction(2)),
                     (Fraction(3), 2, Fraction(6))]


@settings(max_examples=200, deadline=None)
@given(pole_sums())
def test_partial_fraction_round_trip(f):
    pp, terms = partial_fractions(f)
    assert recombine(pp, terms) == f


def test_irreducible_denominator_refused():
    f = 1 / (X() ** 2 + 1)
    with pytest.raises(IrreducibleDenominator):
        partial_fractions(f)


def test_splitting_over_the_extension():
    K = QuadraticExtension(QQ, -1, "i")
    x = RatFn.gen(K, "x")
    pp, terms = partial_fractions(1 / (x * x + 1))
    assert len(terms) == 2
    assert recombine(pp, terms) == 1 / (x * x + 1)


# --- local expansion --------------------------------------------------------


def test_geometric_series():
    s = local_expand(1 / (1 - X()), Fraction(0), 3)
    assert [s.coeff(k) for k in range(4)] == [1, 1, 1, 1]
    with pytest.raises(TruncationTooShort):
        s.coeff(4)


def test_pure_double_pole_window():
    s = local_expand(1 / X() ** 2, Fraction(0), 0)
    assert s.coeff(-2) == 1
    assert s.coeff(-1) == 0
    assert s.coeff(0) == 0


def test_window_below_leading_exponent_refused():
    with pytest.raises(TruncationTooShort):
        local_expand(1 / X() ** 3, Fraction(0), -4)


def strip_then_taylor(f, p, K):
    """(v, window): local_expand the long way.  (x - p) is divided out of
    the numerator and the denominator as often as it goes, v is the
    difference of the two counts, and what is left of each is expanded at p
    and divided."""
    field = f.num.field
    lin = Poly(field, [-p, field.one()], f.num.var)
    orders, rests = [], []
    for q in (f.num, f.den):
        k = 0
        while True:
            quo, rem = divmod(q, lin)
            if rem:
                break
            q, k = quo, k + 1
        orders.append(k)
        rests.append(q)
    v = orders[0] - orders[1]
    terms = K - v + 1
    num, den = (Series(0, q.taylor_at(p, terms), terms, field.zero(), p)
                for q in rests)
    return v, (num * den.inverse()).shift(v)


# a field, a point p of it other than 0, and g, h with g(p), h(p) != 0
EXPANSION_POINTS = {
    "Q": (QQ, "3/2", "x^2 + 1", "2*x - 1"),
    "Q(t)": (Qt, "t + 1", "x^2 + t", "t*x - 2"),
    "Q(t)[u]": (QuadraticExtension(Qt, Qt.gen(), "u"), "u + 1", "x^2 - t",
                "x + u"),
}


@pytest.mark.parametrize("name", sorted(EXPANSION_POINTS))
@pytest.mark.parametrize("i, j", [(i, j) for i in range(4)
                                  for j in range(4)])
def test_local_expand_at_a_root_of_the_numerator_and_the_denominator(
        name, i, j):
    # f = (x-p)^i g / ((x-p)^j h) has order v = i - j at p: every window
    # from K = v on is the reference's, below it a pole is refused and a
    # zero gives the honestly zero window O(w^(K+1))
    F, p_text, g_text, h_text = EXPANSION_POINTS[name]
    p = parse_element(p_text, F)
    f = parse_element("(x - (%s))^%d*(%s)/((x - (%s))^%d*(%s))"
                      % (p_text, i, g_text, p_text, j, h_text),
                      FunctionField(F, "x"))
    v = i - j
    for K in range(v - 2, v + 4):
        if K >= v:
            assert strip_then_taylor(f, p, K) == (v, local_expand(f, p, K))
        elif v < 0:
            with pytest.raises(TruncationTooShort):
                local_expand(f, p, K)
        else:
            assert local_expand(f, p, K) == Series(K + 1, [], K + 1,
                                                   F.zero(), p)


@settings(deadline=None)
@given(ratfns, ratfns, st.integers(0, 4))
def test_local_expand_is_multiplicative(f, g, K):
    if not f or not g:
        return
    lhs = local_expand(f * g, Fraction(0), K)
    rhs = local_expand(f, Fraction(0), K) * local_expand(g, Fraction(0), K)
    prec = min(lhs.prec, rhs.prec)
    assert lhs.truncate(prec) == rhs.truncate(prec)


@given(st.lists(st.integers(-9, 9), max_size=6),
       st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 8))
def test_integer_product_is_the_truncated_convolution(a, b, n):
    want = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(n)]
    assert integer_product(a, b, n) == want


# --- the field tower --------------------------------------------------------


def ext_field():
    return QuadraticExtension(Qt, parse_element("-2*t/3", Qt), "u")


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6))
def test_extension_product_rule(a0, a1, b0, b1):
    K = ext_field()
    t = K.coerce(Qt.gen())
    u = K.u()
    a = a0 + a1 * t * u
    b = b0 * t + b1 * u
    assert K.diff(a * b) == K.diff(a) * b + a * K.diff(b)


EXT_PARTS = ["0", "1", "-3/2", "t", "t^2 - 1", "2/t", "(t + 1)/(t - 2)"]


@st.composite
def ext_operands(draw, K):
    """a + b*u of one shape: zero, base-only (b = 0), u-only (a = 0) or
    general."""
    shape = draw(st.sampled_from(["zero", "base", "u-only", "general"]))
    a, b = (parse_element(draw(st.sampled_from(EXT_PARTS)), Qt)
            for _ in range(2))
    if shape in ("zero", "u-only"):
        a = Qt.zero()
    if shape in ("zero", "base"):
        b = Qt.zero()
    return ExtElem(K, a, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extension_products_of_trivial_operands(data):
    # (a + b u)(a' + b' u) = (a a' + b b' r) + (a b' + b a') u, built here
    # from Q(t) arithmetic alone; a Q(t) factor is coerced as b' = 0
    K = ext_field()
    x, y = data.draw(ext_operands(K)), data.draw(ext_operands(K))
    got = x * y
    assert got.field is K
    assert (got.a, got.b) == (x.a * y.a + x.b * y.b * K.r,
                              x.a * y.b + x.b * y.a)
    assert y.a * x == ExtElem(K, x.a * y.a, x.b * y.a)


def test_derivation_of_u_squared():
    K = ext_field()
    u = K.u()
    lhs = K.diff(u * u)
    r = K.coerce(parse_element("-2*t/3", Qt))
    # (u^2)' must equal r'(t)
    assert lhs == K.diff(r)
    assert Qt.to_str(K.diff(r).a) == "-2/3"


def test_extension_inverse_and_norm():
    K = ext_field()
    e = parse_element("t + u", K)
    assert e * e.inverse() == K.one()


def test_sqrt_cases_in_extension():
    K = ext_field()
    t = K.coerce(Qt.gen())
    u = K.u()
    s = K.sqrt(K.coerce(parse_element("-2*t/3", Qt)))
    assert s == u or s == -u
    s2 = K.sqrt(t * t)
    assert s2 == t or s2 == -t
    # (1 + u)^2 = 1 - 2t/3 + 2u is a square with both parts nonzero
    s3 = K.sqrt((1 + u) * (1 + u))
    assert s3 == 1 + u or s3 == -(1 + u)
    assert K.sqrt(K.coerce(Qt.gen() + 1) * u) is None  # norm not a square
    # 9 + 6v = 3 (1 + v)^2 in Q(v), v^2 = 2: its norm 9 is a square, and
    # neither candidate (9 +- 3)/2 for c^2 is
    v = QuadraticExtension(QQ, 2, "v").u()
    assert v.field.sqrt(9 + 6 * v) is None


def test_function_field_sqrt():
    f = parse_element("(t^2 + 2*t + 1)/(4*t^2)", Qt)
    s = Qt.sqrt(f)
    assert s is not None and s * s == f
    assert Qt.sqrt(Qt.gen()) is None
    assert Qt.sqrt(1 / Qt.gen()) is None  # a square numerator, not a square


def test_parse_element_round_trip():
    K = ext_field()
    e = parse_element("-(3/2)*t^2 + u/2 - 1", K)
    again = parse_element(K.to_str(e), K)
    assert again == e


def test_parse_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        parse_element("x + 1", Qt)


T = Qt.gen()


@pytest.mark.parametrize("text,want", [
    ("t**2", T * T),
    ("+t", T),
    ("t^-2 * 007", 7 / (T * T)),
    ("t ^ - 2", 1 / (T * T)),
    ("2*(t - (1 + (t - 1)))^3 + ((t))", T),
    ("-(-t)/-2", -T / 2),
    ("t^1000", T ** 1000),
])
def test_parse_element_accepts(text, want):
    assert parse_element(text, Qt) == want


def test_parse_element_walks_long_chains_in_loops():
    assert parse_element(" + ".join(["t"] * 1000), Qt) == 1000 * T
    assert parse_element("-" * 1001 + "t", Qt) == -T


@pytest.mark.parametrize("text", [
    "0x2", "1_0", "1.5", "1e3", "2t", "t^q", "t^(1/2)", "t^(2)", "t^-(2)",
    "t^2^2", "t//2", "f(t)", "t.real", "[t]", "True", "not t",
    '__import__("os")', "\u0663", "", "t +", "x",
    pytest.param("(" * 300 + "t" + ")" * 300, id="300-nested-parentheses"),
])
def test_parse_element_refuses(text):
    with pytest.raises(InvalidExpression):
        parse_element(text, Qt)


@pytest.mark.parametrize("text,field", [
    ("p**-3466204", FunctionField(FunctionField(Qt, "q"), "p")),
    ("2/u^593108/0^0", ext_field()),
    ("9**8529749", QQ),
    ("t^-1001", Qt),
    ("(t^2)^1001", Qt),
])
def test_parse_element_refuses_an_exponent_over_the_bound(text, field):
    # refused before any power is computed, so each returns at once
    assert MAX_EXPONENT == 1000
    with pytest.raises(InvalidExpression, match="above 1000"):
        parse_element(text, field)


def test_adjoin_roots_with_a_linear_term():
    # X^2 + X + t has the roots (-1 -+ u)/2 with u^2 = 1 - 4t
    ext, modulus, (minus, plus) = adjoin_roots(Poly(Qt, [T, 1, 1], "X"))
    assert modulus == 1 - 4 * T
    assert minus == parse_element("(-1 - u)/2", ext)
    assert plus == parse_element("(-1 + u)/2", ext)
    for root in (minus, plus):
        assert not root * root + root + T


def test_roots_in_one_extension_keeps_the_split_order():
    # (X - 3)(X + 1)(X - 1/2)(X^2 + 1): the roots in the field, as
    # split_linear_factors sorts them, and no extension for the quadratic
    p = (Poly(QQ, [-3, 1], "X") * Poly(QQ, [1, 1], "X")
         * Poly(QQ, [Fraction(-1, 2), 1], "X") * Poly(QQ, [1, 0, 1], "X"))
    roots, field, modulus = roots_in_one_extension(p)
    assert roots == [r for r, _ in split_linear_factors(p)[0]]
    assert roots == [-1, Fraction(1, 2), 3]
    assert field is QQ and modulus is None


@pytest.mark.parametrize("quad,power,square", [
    ([-T, 0, 1], 1, T),          # X^2 - t: u^2 = t
    ([T, 1, 1], 1, 1 - 4 * T),   # X^2 + X + t: u^2 = 1 - 4t
    ([T, 1, 1], 2, 1 - 4 * T),   # its square has the same factor
])
def test_roots_in_one_extension_adjoins_minus_then_plus(quad, power, square):
    p = Poly(Qt, quad, "X") ** power
    roots, ext, modulus = roots_in_one_extension(p)
    assert modulus == square and ext.r == square
    u = ext.u()
    if quad[1]:
        assert roots == [(-1 - u) / 2, (-1 + u) / 2]
    else:
        assert roots == [-u, u]
    for root in roots:
        assert not p(root)


def test_roots_in_one_extension_refuses_a_cubic_without_roots():
    # X^3 - 2 over Q has no root and no quadratic factor
    with pytest.raises(UnsolvableInTower, match="within one quadratic"):
        roots_in_one_extension(Poly(QQ, [-2, 0, 0, 1], "X"))


def test_roots_in_one_extension_refuses_a_second_extension():
    # over Q(sqrt 2), X^2 - 3 needs sqrt 3 as well
    ext, _, _ = adjoin_roots(Poly(QQ, [-2, 0, 1], "X"))
    with pytest.raises(UnsolvableInTower, match="second quadratic extension"):
        roots_in_one_extension(Poly(ext, [-3, 0, 1], "X"))
    # a root the extension already holds needs none
    roots, field, modulus = roots_in_one_extension(Poly(ext, [-8, 0, 1], "X"))
    assert field is ext and modulus is None
    assert roots == sorted(roots, key=ext.to_str) and len(roots) == 2



# --- an extension over a function field: y^2 = Q(x) over Q(t)(x) ------------


def curve_x2():
    """(Q(t)(x), Q, the extension y^2 = Q) for Q = x^2 + 4t."""
    Fx = FunctionField(Qt, "x")
    Q = parse_element("x^2 + 4*t", Fx)
    return Fx, Q, QuadraticExtension(Fx, Q, "y")


def test_curvefn_norm_and_inverse():
    Fx, Q, K = curve_x2()
    f = ExtElem(K, Fx.gen(), Fx.one())
    n = f * ExtElem(K, f.a, -f.b)
    assert not n.b
    assert n.a == Fx.gen() ** 2 - Q
    inv = f.inverse()
    assert f * inv == K.coerce(Fx.one())


def test_curvefn_square_of_y():
    _, Q, K = curve_x2()
    y = K.u()
    ysq = y * y
    assert not ysq.b
    assert ysq.a == Q


def test_curvefn_dx_leibniz_and_y():
    Fx, Q, K = curve_x2()
    y = K.u()
    f = ExtElem(K, Fx.gen() ** 2, Fx.gen())
    lhs = K.diff(f * y)
    rhs = K.diff(f) * y + f * K.diff(y)
    assert lhs == rhs
    # (y^2)' = Q' both ways
    assert K.diff(y * y).a == Q.deriv()


def test_curvefn_dt_of_y():
    Fx, Q, K = curve_x2()
    dy = partial_derivation(K, "t")(K.u())
    # y_t = Q_t/(2y) = (Q_t/(2Q)) y with Q_t = 4
    assert not dy.a
    assert dy.b == Fx.coerce(2) / Q

# --- polynomial utilities ---------------------------------------------------


def test_taylor_shift():
    p = Poly(QQ, [1, 0, 1], "x")  # 1 + x^2
    assert p.taylor_at(Fraction(2), 3) == [5, 4, 1]


def test_squarefree_decomposition():
    x = Poly.gen(QQ, "x")
    p = (x - 1) ** 2 * (x + 2) ** 3 * (x - 5)
    lc, factors = squarefree_decomposition(p)
    assert lc == 1
    got = {(g.to_str(), m) for g, m in factors}
    assert got == {("x - 5", 1), ("x - 1", 2), ("x + 2", 3)}


def test_poly_sqrt():
    x = Poly.gen(QQ, "x")
    p = (x ** 2 + 3 * x - 2) ** 2
    q = poly_sqrt(p)
    assert q is not None and q * q == p
    assert poly_sqrt(x ** 2 + 1) is None
    assert poly_sqrt(2 * x ** 2) is None  # leading 2 is not a rational square
    zero = Poly.zero(QQ, "x")
    assert poly_sqrt(zero) == zero and Qt.sqrt(Qt.zero()) == 0


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert not (a % g)
    assert not (b % g)


def test_roots_with_multiplicity():
    x = Poly.gen(QQ, "x")
    p = (x - 1) ** 2 * (2 * x + 3)
    assert roots_in_field(p) == [(Fraction(-3, 2), 1), (Fraction(1), 2)]


def test_roots_beyond_the_old_divisor_bound():
    # the constant term 2*10007*10009 exceeds 10^8
    x = Poly.gen(QQ, "x")
    p = (x - 10007) * (x - 10009) * (x - 2)
    assert roots_in_field(p) == [(Fraction(10007), 1), (Fraction(10009), 1),
                                 (Fraction(2), 1)]
    q = (3 * x - 10007) * (x + 100000007) * (2 * x - 1) * (x - 5)
    assert sorted(r for r, _ in roots_in_field(q)) == [
        -100000007, Fraction(1, 2), 5, Fraction(10007, 3)]


def test_non_splitting_cubic_still_refused():
    # three real roots, none rational
    x = Poly.gen(QQ, "x")
    with pytest.raises(IrreducibleDenominator):
        roots_in_field(x ** 3 - 3 * x - 1)
    with pytest.raises(IrreducibleDenominator):
        roots_in_field((x - 10007) * (x ** 3 - 10009))


def test_roots_via_quadratic_over_function_field():
    t = Qt.gen()
    x = Poly.gen(Qt, "x")
    p = x * x - Poly.const(Qt, t * t, "x")
    roots = roots_in_field(p)
    assert sorted(Qt.to_str(r) for r, _ in roots) == ["-t", "t"]


# --- truncated series -------------------------------------------------------


def test_hbar_series_truncation_is_an_error():
    s = HbarSeries(0, [Fraction(1), Fraction(2)], 2, Fraction(0))
    assert s.coeff(1) == 2
    with pytest.raises(TruncationTooShort):
        s.coeff(2)


def test_hbar_series_product_precision():
    # the O(h^2) tail of the first factor hits the unit term of the second,
    # so only the h coefficient of the product is certain
    a = HbarSeries(1, [Fraction(1)], 2, Fraction(0))
    b = HbarSeries(0, [Fraction(1), Fraction(1), Fraction(1)], 3, Fraction(0))
    p = a * b
    assert p.kmin == 1 and p.prec == 2
    assert p.coeff(1) == 1
    with pytest.raises(TruncationTooShort):
        p.coeff(2)


def test_hbar_series_inverse():
    s = HbarSeries(0, [Fraction(1), Fraction(-1)], 4, Fraction(0))  # 1 - h
    inv = s.inverse()
    assert [inv.coeff(k) for k in range(4)] == [1, 1, 1, 1]


def test_series_product_keeps_coefficient_order():
    # matrix coefficients do not commute: (A + B h)(C + D h) has h term AD + BC
    def m(*entries):
        return Mat2(*(Fraction(e) for e in entries))

    A, B, C, D = m(1, 2, 0, 1), m(0, 1, 1, 0), m(1, 0, 3, 1), m(2, 0, 0, -1)
    assert A * D + B * C != D * A + C * B
    zero = m(0, 0, 0, 0)
    prod = HbarSeries(0, [A, B], 2, zero) * HbarSeries(0, [C, D], 2, zero)
    assert prod.coeff(0) == A * C
    assert prod.coeff(1) == A * D + B * C


def test_local_series_inverse_precision():
    s = local_expand(1 / (1 - X()), Fraction(0), 4)
    inv = s.inverse()
    assert inv.coeff(0) == 1 and inv.coeff(1) == -1
    assert all(inv.coeff(k) == 0 for k in range(2, 5))


@st.composite
def rational_windows(draw):
    """A Series over Q with kmin possibly negative, zeros anywhere in the
    window (leading ones are stripped) and, now and then, no nonzero term."""
    kmin = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), rationals),
                           max_size=6))
    prec = kmin + len(coeffs) + draw(st.integers(0, 2))
    return Series(kmin, coeffs, prec, QQ.zero())


def over_qt(s):
    """The same window with its coefficients embedded as constants of Q(t),
    where every operation takes the generic field path."""
    return Series(s.kmin, [Qt.coerce(c) for c in s.coeffs], s.prec,
                  Qt.zero(), s.point)


def cleared_inverse_qq(a):
    """a's inverse by cleared_inverse over Q, checked to be in lowest terms
    over a positive denominator, as a window of Fractions."""
    kmin, prec, nums, den = cleared_inverse(cleared(a, True), True)
    assert den > 0 and math.gcd(den, *nums) == 1
    return Series(kmin, [Fraction(c, den) for c in nums], prec, QQ.zero())


@settings(max_examples=150, deadline=None)
@given(rational_windows(), rational_windows(), st.integers(-3, 3))
def test_rational_series_kernel_matches_field_path(a, b, e):
    ea, eb = over_qt(a), over_qt(b)
    pairs = [(lambda: a + b, lambda: ea + eb),
             (lambda: a - b, lambda: ea - eb),
             (lambda: a * b, lambda: ea * eb),
             (lambda: b * a, lambda: eb * ea),
             (a.inverse, ea.inverse),
             (lambda: cleared_inverse_qq(a), ea.inverse),
             (lambda: a ** e, lambda: ea ** e)]
    for on_q, on_qt in pairs:
        try:
            want = on_qt()
        except ZeroDivisionError as err:
            # no nonzero term to invert
            with pytest.raises(type(err)):
                on_q()
            continue
        got = on_q()
        assert over_qt(got) == want
        assert all(type(c) is Fraction and c.denominator > 0
                   for c in got.coeffs)
        for k in (got.prec, got.prec + 1):
            with pytest.raises(TruncationTooShort):
                got.coeff(k)


def convolution(a, b):
    """a * b by the double loop over both windows: the product starts at
    kmin_a + kmin_b and is known below the first exponent where either
    factor's unknown terms reach it."""
    prec = min(a.prec + b.kmin, b.prec + a.kmin)
    kmin = min(a.kmin + b.kmin, prec)
    out = [a.zero] * (prec - kmin)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            k = a.kmin + b.kmin + i + j
            if k < prec:
                out[k - kmin] = out[k - kmin] + x * y
    return Series(kmin, out, prec, a.zero)


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name", ["Q", "Q(t)", "Q(t)[u]"])
@given(data=st.data())
def test_series_product_is_the_convolution_on_every_field(name, data):
    # the one product kernel against the double loop, with kmin and prec,
    # on integers over Q and on the coefficients over Q(t) and Q(t)[u]
    F, scalars = KERNEL_FIELDS[name][:2]
    pool = [F.zero()] + [parse_element(c, F) for c in scalars]

    def window():
        kmin = data.draw(st.integers(-3, 3))
        coeffs = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        prec = kmin + len(coeffs) + data.draw(st.integers(0, 2))
        return Series(kmin, coeffs, prec, F.zero())

    a, b = window(), window()
    for x, y in ((a, b), (b, a), (a, a)):
        got, want = x * y, convolution(x, y)
        assert (got.kmin, got.prec, got.coeffs) == (
            want.kmin, want.prec, want.coeffs)
        assert all(type(c) is type(F.zero()) for c in got.coeffs)


@pytest.mark.parametrize("zero", [QQ.zero(), Qt.zero()],
                         ids=["Q", "Q(t)"])
def test_power_of_a_window_with_no_known_term(zero):
    s = Series(0, [], 3, zero)
    assert (s.kmin, s.prec) == (3, 3)
    unit = s ** 0
    assert (unit.coeffs, unit.prec) == ([], 0)
    product = s
    for e in range(1, 4):
        # O(w^3) ** e is O(w^(3e)), as repeated products give
        assert (product.coeffs, product.prec) == ([], 3 * e)
        assert s ** e == product
        product = product * s


def test_series_strips_leading_zeros_in_one_pass():
    s = Series(-2, [Fraction(0)] * 3 + [Fraction(5), Fraction(0)], 4,
               QQ.zero())
    assert (s.kmin, s.coeffs, s.prec) == (1, [5, 0, 0], 4)
    empty = Series(-2, [Fraction(0)] * 3, 3, QQ.zero())
    assert (empty.kmin, empty.coeffs, empty.prec) == (3, [], 3)


# --- the canonical-in, canonical-out kernels ------------------------------------
#
# Every RatFn result must be the fraction RatFn(num, den) normalizes from the
# unreduced cross products, over Q, Q(t) and Q(t)[u].

KERNEL_FIELDS = {
    # field, scalars, factor pool, most factors in a numerator or denominator
    "Q": (QQ, ["1", "-2", "1/3"], ["x", "x - 1", "x + 2"], 2),
    "Q(t)": (Qt, ["1", "t", "-1/t", "(t + 1)/(t - 2)"],
             ["x", "x - t", "x^2 - t^2", "t*x - 1"], 1),
    "Q(t)[u]": (QuadraticExtension(Qt, Qt.gen(), "u"),
                ["1", "u", "-t", "t*u"], ["x", "x - u", "x^2 - t"], 1),
}


def _kernel_pools(name):
    F, scalars, factors, most = KERNEL_FIELDS[name]
    Fx = FunctionField(F, "x")
    return (Fx, [parse_element(s, F) for s in scalars],
            [parse_element(f, Fx) for f in factors], most)


KERNEL_POOLS = {name: _kernel_pools(name) for name in KERNEL_FIELDS}


@st.composite
def kernel_fractions(draw, name):
    """(c*P + e)/D over the named field, with P and D products of factors
    from one small pool, so that operands often share denominator factors
    and sums often cancel.  The pools stay small over the towers, where the
    full gcd of the reference fraction swells quickly with the degree."""
    Fx, scalars, factors, most = KERNEL_POOLS[name]
    pool = st.lists(st.sampled_from(factors), max_size=most)
    num, den = Fx.one(), Fx.one()
    for f in draw(pool):
        num = num * f
    for f in draw(pool):
        den = den * f
    c = draw(st.sampled_from(scalars))
    e = draw(st.sampled_from([0 * c] + scalars))
    return (c * num + e) / den


# Test-local references: schoolbook division and Euclid on coefficient
# lists, so that neither the monomial paths of poly.py nor RatFn's own
# reduction checks itself.


def ref_divmod(a, b):
    """Long division of a by b, one coefficient of the quotient at a time."""
    F, lead, db = a.field, b.coeffs[-1], b.degree()
    rem = list(a.coeffs)
    quot = [F.zero()] * max(len(rem) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db] / lead
        quot[k] = c
        for j, bj in enumerate(b.coeffs):
            rem[k + j] = rem[k + j] - c * bj
    return Poly(F, quot, a.var), Poly(F, rem, a.var)


def ref_gcd(a, b):
    """Monic gcd by the Euclidean algorithm on ref_divmod."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    if not a:
        return a
    lead = a.coeffs[-1]
    return Poly(a.field, [c / lead for c in a.coeffs], a.var)


def ref_fraction(num, den):
    """(num, den) reduced by ref_gcd, with a monic denominator and the
    denominator 1 for zero."""
    F, var = num.field, num.var
    if not num:
        return Poly(F, [], var), Poly(F, [1], var)
    g = ref_gcd(num, den)
    num, den = ref_divmod(num, g)[0], ref_divmod(den, g)[0]
    lead = den.coeffs[-1]
    return (Poly(F, [c / lead for c in num.coeffs], var),
            Poly(F, [c / lead for c in den.coeffs], var))


def assert_canonical(f):
    assert f.den.leading() == f.field.one()
    if f:
        assert ref_gcd(f.num, f.den).degree() == 0
    else:
        assert f.den.degree() == 0


def naive_results(f, g, k):
    """Each kernel's result, next to the (num, den) that the test-local
    Euclid reduces from the unreduced products."""
    a, b, c, d = f.num, f.den, g.num, g.den
    out = {"add": (f + g, ref_fraction(a * d + c * b, b * d)),
           "sub": (f - g, ref_fraction(a * d - c * b, b * d)),
           "mul": (f * g, ref_fraction(a * c, b * d)),
           "neg": (-f, ref_fraction(-a, b)),
           "pow": (f ** k, ref_fraction(a ** k, b ** k))}
    if g:
        out["div"] = (f / g, ref_fraction(a * d, b * c))
    if f:
        out["inverse"] = (f.inverse(), ref_fraction(b, a))
        out["negpow"] = (f ** -k, ref_fraction(b ** k, a ** k))
    return out


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernels_match_cross_products(name):
    @settings(max_examples=40, deadline=None)
    @given(kernel_fractions(name), kernel_fractions(name), st.integers(0, 3))
    def check(f, g, k):
        for op, (got, want) in naive_results(f, g, k).items():
            assert (got.num, got.den) == want, op
            assert_canonical(got)
    check()


@pytest.mark.parametrize("name", ["Q", "Q(t)"])
def test_deriv_is_the_reduced_quotient_rule(name):
    # h^e gives the denominator a repeated factor (unless f's numerator
    # cancels it); Hermite's rule must still land on RatFn's reduction of
    # (n' d - n d') / d^2
    factors = KERNEL_POOLS[name][2]

    @settings(max_examples=40, deadline=None)
    @given(kernel_fractions(name), st.sampled_from(factors),
           st.integers(1, 3))
    def check(f, h, e):
        g = f / h ** e
        n, d = g.num, g.den
        got = g.deriv()
        want = RatFn(n.deriv() * d - n * d.deriv(), d * d)
        assert (got.num, got.den) == (want.num, want.den)
        assert_canonical(got)
    check()


# a field, a common factor g and two coprime cofactors p, q over it
GCD_CASES = {
    "Q": (QQ, "(x - 2/3)^2*(3*x + 1)", "x^3 - 5/7", "x^2 + x/4 + 9"),
    "Q(t)": (Qt, "(x - t)^2*(t*x - 1)", "x^3 - (t + 1)/(t - 2)",
             "x^2 + x/t + t^2"),
    "Q(s)(t)": (FunctionField(FunctionField(QQ, "s"), "t"),
                "(x - t)^2*(s*x - t)", "x^3 - s/(t - 2)", "x^2 + s*x/t + 1"),
}


@pytest.mark.parametrize("name", sorted(GCD_CASES))
def test_gcd_by_primitive_remainders_is_euclids(name):
    # over Q and K(t) poly_gcd runs on cleared coefficients; it must land on
    # the monic gcd of the test-local Euclid, whatever the operands' order,
    # signs or difference of degrees
    F, g, p, q = GCD_CASES[name]
    g, p, q = (parse_element(s, FunctionField(F, "x")).num
               for s in (g, p, q))
    a, b = g * p, g * q
    assert ref_gcd(a, b) == g.monic()[0]
    for u, v in [(a, b), (b, a), (-a, b), (a * q, b)]:
        assert poly_gcd(u, v) == ref_gcd(u, v)


def test_deriv_raises_each_pole_order_by_one():
    x = X()
    f = (x + 1) / (x ** 2 * (x - 1) ** 3)
    df = f.deriv()
    # poles of order 2 and 3 become poles of order 3 and 4
    assert df.den == (x ** 3 * (x - 1) ** 4).num
    assert df == -(4 * x ** 2 + 4 * x - 2) / (x ** 3 * (x - 1) ** 4)
    assert RatFn.one(QQ, "x").deriv() == 0 and x.deriv() == 1


def test_substitute_lifts_an_unassigned_variable():
    # t gets no value, so a Q(t) coefficient stands for itself and is
    # lifted as a constant series; giving t its own value changes nothing
    Fq = FunctionField(Qt, "q")
    e = parse_element("t*q^2 + 1/t", Fq)
    one = HbarSeries.constant(Qt.one(), 3, Qt.zero())
    q = Series(0, [Qt.gen(), Qt.one()], 3, Qt.zero())  # t + hbar
    got = substitute(e, {"q": q}, one)
    assert [got.coeff(k) for k in range(3)] == [
        parse_element(v, Qt) for v in ("t^3 + 1/t", "2*t^2", "t")]
    t = HbarSeries.constant(Qt.gen(), 3, Qt.zero())
    assert substitute(e, {"q": q, "t": t}, one) == got
    # with no value for u, an element of Q(t)[u] is lifted whole
    K = QuadraticExtension(Qt, Qt.gen(), "u")
    w = parse_element("t*u + 1", K)
    lifted = substitute(w, {}, HbarSeries.constant(K.one(), 2, K.zero()))
    assert lifted == HbarSeries.constant(w, 2, K.zero())


def test_substitute_refuses_an_element_the_target_cannot_hold():
    # s gets no value, and Q(t) cannot hold an element of Q(s)
    Qs = FunctionField(QQ, "s")
    with pytest.raises(TypeError):
        substitute(Qs.gen(), {}, Qt.one())
    e = parse_element("s*q + 1", FunctionField(Qs, "q"))
    with pytest.raises(TypeError):
        substitute(e, {"q": Qt.gen()}, Qt.one())


def test_kernel_explicit_cases():
    x = X()
    one = RatFn.one(QQ, "x")
    # shared denominator factor x: the sum reduces by gcd(2x, x)
    s = one / (x * (x - 1)) + one / (x * (x + 1))
    assert (s.num, s.den) == (Poly(QQ, [2]), Poly(QQ, [-1, 0, 1]))
    assert_canonical(s)
    # equal denominators whose numerators cancel the whole denominator
    s = x / (x - 1) - one / (x - 1)
    assert s == 1 and s.den.degree() == 0
    # cancellation to zero leaves the denominator 1
    for z in ((x + 2) / (x - 3) - (x + 2) / (x - 3),
              one / x + (-one) / x, (x / 3) * 0, 0 * (one / (x - 1))):
        assert not z and z.den == Poly.one(QQ, "x")
    # constant denominators are folded into the numerator
    f = RatFn(Poly(QQ, [1, 1]), Poly(QQ, [3]))
    assert f.den == Poly.one(QQ, "x") and f.num == Poly(QQ, [Fraction(1, 3)] * 2)
    g = f * 6 + f / 2
    assert g.num == Poly(QQ, [Fraction(13, 6)] * 2) and g.den.degree() == 0
    # the inverse of a non-monic numerator becomes monic
    h = (2 * x + 4).inverse()
    assert (h.num, h.den) == (Poly(QQ, [Fraction(1, 2)]), Poly(QQ, [2, 1]))


def test_separately_built_fields_agree():
    Qt2 = FunctionField(QQ, "t")
    assert Qt2 == Qt and Qt2 is not Qt
    K1 = QuadraticExtension(Qt, Qt.gen(), "u")
    K2 = QuadraticExtension(Qt2, Qt2.gen(), "u")
    assert K1 == K2 and K1 is not K2
    assert K2.coerce(K1.u()) * K1.u() == K2.coerce(Qt2.gen())
    F1, F2 = FunctionField(K1, "x"), FunctionField(K2, "x")
    assert F1 == F2
    e1 = parse_element("1/(x - u)", F1)
    e2 = parse_element("x - u", F2)
    assert F2.coerce(e1) is e1
    assert e1 * e2 == F1.one() and e2 * e1 == F2.one()


# --- monomial gcd and division, and the trusted constructor ------------------


@st.composite
def monomial_pairs(draw, name, relation):
    """(a, c*x^k) over the named field: k in 0..4, c a scalar of the pool or
    2, and a of valuation below, equal to or above k, or a = 0."""
    F = KERNEL_FIELDS[name][0]
    scalars = KERNEL_POOLS[name][1] + [F.coerce(2)]
    k = draw(st.integers(1 if relation == "below" else 0, 4))
    m = Poly(F, [F.zero()] * k + [draw(st.sampled_from(scalars))], "x")
    if relation == "zero":
        return Poly.zero(F, "x"), m
    if relation == "below":
        v = draw(st.integers(0, k - 1))
    elif relation == "equal":
        v = k
    else:
        v = draw(st.integers(k + 1, k + 3))
    tail = draw(st.lists(st.sampled_from([F.zero()] + scalars), max_size=3))
    first = draw(st.sampled_from(scalars))
    return Poly(F, [F.zero()] * v + [first] + tail, "x"), m


@pytest.mark.parametrize("relation", ["below", "equal", "above", "zero"])
@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_monomial_gcd_and_division_match_euclid(name, relation):
    @settings(max_examples=25, deadline=None)
    @given(monomial_pairs(name, relation))
    def check(pair):
        a, m = pair
        want = ref_gcd(a, m)
        assert poly_gcd(a, m) == want and poly_gcd(m, a) == want
        assert divmod(a, m) == ref_divmod(a, m)
    check()


def assert_trusted(p, F):
    assert not p.coeffs or p.coeffs[-1]
    assert all(F.coerce(c) is c for c in p.coeffs)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_arithmetic_results_are_stripped_field_elements(name):
    F = KERNEL_FIELDS[name][0]
    polys = st.lists(st.sampled_from([F.zero()] + KERNEL_POOLS[name][1]),
                     max_size=4).map(lambda cs: Poly(F, cs, "x"))

    @settings(max_examples=30, deadline=None)
    @given(polys, polys, st.integers(0, 3))
    def check(a, b, k):
        results = [a + b, a - b, a - a, a * b, a ** k, -a]
        if b:
            results += [a // b, a % b, *divmod(a, b), (a * b) / b,
                        a / b.leading()]
        for p in results:
            assert p.field is F
            assert_trusted(p, F)
    check()


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_product_by_the_unit_polynomial(name):
    F = KERNEL_FIELDS[name][0]
    polys = st.lists(st.sampled_from([F.zero()] + KERNEL_POOLS[name][1]),
                     max_size=4).map(lambda cs: Poly(F, cs, "x"))

    @settings(max_examples=30, deadline=None)
    @given(polys)
    def check(p):
        coeffs = p.coeffs
        for one in (Poly.one(F, "x"), Poly(F, [1], "x")):
            assert p * one == p and one * p == p
            assert (p.coeffs, one.coeffs) == (coeffs, (F.one(),))
    check()


def test_mixed_fields_keep_the_coercing_constructor():
    # pq is the longer operand, so its top coefficients reach the sum as
    # Fractions and only the coercing constructor makes them Q(t) elements
    t = parse_element("t", Qt)
    pt = Poly(Qt, [t, 1, 0, 1 / t], "x")
    for pq in (Poly(QQ, [Fraction(1, 2), 0, 3, 0, 0, 7], "x"),
               Poly(QQ, [0, 0, 2], "x")):
        # Q cannot hold Q(t) coefficients: with pq on the left, pq is
        # lifted into Q(t) instead
        for p in (pt + pq, pt - pq, pt * pq, *divmod(pt, pq),
                  pq + pt, pq - pt, pq * pt, *divmod(pq * pt, pt)):
            assert p.field is Qt
            assert all(isinstance(c, RatFn) for c in p.coeffs)
            assert_trusted(p, Qt)
        assert pq + pt == pt + pq and pq * pt == pt * pq
        assert pq - pt == -(pt - pq)
        assert divmod(pq * pt, pt) == (pq, 0) and pq * pt != pq


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                divmod])
def test_polys_in_different_variables_do_not_mix(op):
    with pytest.raises(TypeError):
        op(Poly(QQ, [1, 1], "x"), Poly(QQ, [1, 1], "y"))


def test_mixed_operands_are_unequal_and_do_not_mix():
    # each operator gives NotImplemented: == falls back to identity, and
    # + - / raise TypeError
    x, y = X(), RatFn.gen(QQ, "y")
    u2, u3 = (QuadraticExtension(QQ, r, "u").u() for r in (2, 3))
    for a, b in ((x, y), (u2, u3)):
        assert a != b
        for op in (operator.add, operator.sub, operator.truediv):
            with pytest.raises(TypeError):
                op(a, b)
    series = HbarSeries.constant(QQ.one(), 2, QQ.zero())
    for a in (series, Mat2.zero(x), DeformCase(CASE_INFINITY)):
        assert a != 0


def test_polynomial_coefficients_outside_the_degrees_are_zero():
    p = Poly(QQ, [1, 2], "x")
    assert p.coeff(-1) == 0 and p.coeff(2) == 0


def test_split_linear_factors_keeps_a_quadratic_with_negative_discriminant():
    p = Poly(QQ, [1, 0, 1], "x")
    assert split_linear_factors(p) == ([], p)


@pytest.mark.parametrize("make, error, match", [
    (lambda: QuadraticExtension(QQ, 2, "u").zero().inverse(),
     ZeroDivisionError, "inverting zero"),
    (lambda: (2 + QuadraticExtension(QQ, 4, "u").u()).inverse(),
     ZeroDivisionError, "norm vanishes"),
    (lambda: QuadraticExtension(QQ, 0, "u"), ValueError, "nonzero"),
    (lambda: partial_derivation(QuadraticExtension(Qt, Qt.gen(), "u"), "u"),
     ValueError, "algebraic"),
    (lambda: Poly(QQ, [1, 1]) ** -1, ValueError, "negative power"),
    (lambda: divmod(Poly(QQ, [1, 1]), Poly.zero(QQ)), ZeroDivisionError,
     "division by zero"),
    (lambda: Poly(QQ, [1, 1]) / Poly(QQ, [1, 0, 1]), ValueError, "inexact"),
    (lambda: squarefree_decomposition(Poly.zero(QQ)), ValueError, "of zero"),
    (lambda: RatFn(Fraction(1)), TypeError, "must be a Poly"),
    (lambda: RatFn(Poly(QQ, [1], "x"), Poly(QQ, [1], "y")), ValueError,
     "disagree"),
    (lambda: RatFn(Poly(QQ, [1]), Poly.zero(QQ)), ZeroDivisionError,
     "zero denominator"),
    (lambda: (1 / X()).as_poly(), ValueError, "not a polynomial"),
    (lambda: X() / RatFn.zero(QQ, "x"), ZeroDivisionError, "division by"),
    (lambda: RatFn.zero(QQ, "x").inverse(), ZeroDivisionError, "inverting"),
    (lambda: (1 / X())(0), ZeroDivisionError, "at a pole"),
    (lambda: Series(0, [1, 2, 3], 2, 0), ValueError, "more coefficients"),
    (lambda: Series(0, [1], 2, 0, 0) + Series(0, [1], 2, 0, 1), ValueError,
     "different points"),
    (lambda: Series(0, [1], 2, 0).truncate(3), TruncationTooShort,
     "cannot extend"),
])
def test_exactmath_refuses(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_polys_in_different_variables_are_unequal():
    px, py = Poly(QQ, [1, 1], "x"), Poly(QQ, [1, 1], "y")
    assert not px == py
    assert px != py


def test_gcd_of_polys_in_different_variables_is_refused():
    with pytest.raises(TypeError):
        poly_gcd(Poly(QQ, [1, 1], "x"), Poly(QQ, [1, 1], "y"))
