import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorec.errors import (ConfluentBranchpoints, HigherGenus,
                           InvalidPoleStructure, InvalidUniformization,
                           NilpotentLeading, NoBranchpoints, NotProportional,
                           UnsolvableInTower)
from isorec.exactmath import (QQ, FunctionField, QuadraticExtension,
                              parse_element)
from isorec.hamflow import leading_order
from isorec.isodeform import build_isosystem
from isorec.laxsystem import Mat2, PoleData, SIGMA_PLUS, Sl2Lax
from isorec.spectralcurve import (ONE_BRANCH, TWO_BRANCH, classical_curve,
                                  curve_from_system, leading_matrices,
                                  pullback, uniformize)
from isorec.toprec import eo_differentials


def tower(*names):
    f = QQ
    for name in names:
        f = FunctionField(f, name)
    return f


def xmat(E, entries):
    Fx = FunctionField(E, "x")
    return Mat2(*(parse_element(s, Fx) for s in entries))


def airy_matrix():
    return xmat(QQ, ("0", "x", "1", "0"))


def painleve1_setup(q="q", p="p"):
    """Painleve I with its Darboux pair named q and p."""
    names = str.maketrans({"q": q, "p": p})
    F = tower("t", q, p)

    def parse(text):
        return parse_element(text.translate(names), F)
    coeffs = {
        (0, 2): Mat2(*(parse(s) for s in ("0", "1", "0", "0"))),
        (0, 1): Mat2(*(parse(s) for s in ("0", "q", "1", "0"))),
        (0, 0): Mat2(*(parse(s) for s in ("p", "q^2", "-q", "-p"))),
    }
    seed = Sl2Lax(F, PoleData((), (), 2, SIGMA_PLUS), coeffs)
    iso = build_isosystem(seed, beta=q)
    H = parse("-2*p^2 + 2*q^3 + 4*t*q")
    lead = leading_order(H)
    return iso, lead


# --- classical curve -----------------------------------------------------------


def test_airy_curve():
    C = classical_curve(airy_matrix())
    Fx = FunctionField(QQ, "x")
    assert C.Q == parse_element("x", Fx)
    assert C.reduced.degree() == 1
    assert C.c == Fraction(1)


def test_leading_matrix_with_trace_rejected():
    with pytest.raises(InvalidPoleStructure, match="trace-free"):
        classical_curve(xmat(QQ, ("1", "x", "1", "1")))


def test_nilpotent_leading_rejected():
    with pytest.raises(NilpotentLeading):
        classical_curve(xmat(QQ, ("0", "1", "0", "0")))


def test_constant_curve_has_no_branchpoints():
    C = classical_curve(xmat(QQ, ("1", "0", "0", "-1")))
    assert C.Q == FunctionField(QQ, "x").one()
    with pytest.raises(NoBranchpoints):
        uniformize(C)


def test_not_proportional_rejected():
    L0 = xmat(QQ, ("1", "0", "0", "-1"))
    A0 = xmat(QQ, ("0", "1", "1", "0"))
    with pytest.raises(NotProportional):
        classical_curve(L0, A0)


@pytest.mark.parametrize("L0, A0, error, match", [
    (("0", "0", "0", "0"), None, NilpotentLeading, "vanishes identically"),
    # L0 + I commutes with L0 and is no multiple of it
    (("0", "x", "1", "0"), ("1", "x", "1", "1"), NotProportional,
     "not a rational multiple"),
    (("0", "1/x", "1", "0"), None, HigherGenus, "odd-order pole"),
])
def test_classical_curve_refuses(L0, A0, error, match):
    with pytest.raises(error, match=match):
        classical_curve(xmat(QQ, L0), A0 and xmat(QQ, A0))


def test_proportional_aux_extracts_alpha():
    L0 = xmat(QQ, ("0", "x", "1", "0"))
    A0 = xmat(QQ, ("0", "2*x", "2", "0"))
    C = classical_curve(L0, A0)
    assert C.alpha == parse_element("2", FunctionField(QQ, "x"))


def test_painleve1_curve_is_degenerate_cubic():
    iso, lead = painleve1_setup()
    C = curve_from_system(iso, lead)
    E = lead.field
    Fx = FunctionField(E, "x")
    u = Fx.coerce(parse_element("u", E))
    x = Fx.gen()
    assert C.Q == (x - u) ** 2 * (x + u + u)
    assert C.square == x - u
    assert C.reduced.degree() == 1
    # A0 = alpha L0 with alpha = 2/(x - u)
    assert C.alpha == Fx.coerce(2) / (x - u)


def test_painleve1_curve_does_not_depend_on_the_names_of_the_pair():
    iso, lead = painleve1_setup(q="Q", p="P")
    assert (lead.qname, lead.pname) == ("Q", "P")
    got = uniformize(curve_from_system(iso, lead)).to_json()
    assert got == uniformize(curve_from_system(*painleve1_setup())).to_json()


# --- uniformization -------------------------------------------------------------


def test_two_branch_rational_roots():
    # y^2 = (x-1)(x-3): x(z) = 2 + (z + 1/z)/2
    Fx = FunctionField(QQ, "x")
    L0 = xmat(QQ, ("0", "x^2 - 4*x + 3", "1", "0"))
    U = uniformize(classical_curve(L0))
    assert U.kind == TWO_BRANCH
    assert (U.a, U.b) == (Fraction(1), Fraction(3))
    zf = FunctionField(QQ, "z")
    assert U.x == parse_element("2 + (z + z^-1)/2", zf)
    assert U.y == parse_element("(z - z^-1)/2", zf)


def test_one_branch_airy():
    C = classical_curve(airy_matrix())
    U = uniformize(C)
    assert U.kind == ONE_BRANCH
    zf = FunctionField(QQ, "z")
    assert U.x == parse_element("z^2", zf)
    assert U.y == parse_element("z", zf)
    assert U.y * U.x.deriv() == parse_element("2*z^2", zf)


def test_painleve1_uniformization_frozen():
    iso, lead = painleve1_setup()
    C = classical_curve(*leading_matrices(iso, lead))
    U = uniformize(C)
    E = lead.field
    zf = FunctionField(E, "z")
    assert U.kind == ONE_BRANCH
    assert U.a == parse_element("-2*u", E)
    assert U.x == parse_element("z^2 - 2*u", zf)
    assert U.y == parse_element("z^3 - 3*u*z", zf)
    assert U.y * U.x.deriv() == parse_element("2*z^4 - 6*u*z^2", zf)


def test_quadratic_extension_branchpoints():
    # y^2 = x^2 + 4t forces u^2 = -4t
    E = tower("t")
    L0 = xmat(E, ("0", "x^2 + 4*t", "1", "0"))
    C = classical_curve(L0)
    U = uniformize(C)
    assert U.kind == TWO_BRANCH
    assert U.modulus == parse_element("-4*t", E)
    E2 = U.field
    u = parse_element("u", E2)
    assert (U.a, U.b) == (-u, u)
    assert pullback(C.Q, U) == U.y * U.y


def test_uniformization_json():
    keys = {"kind", "a", "b", "x", "y", "extension"}
    airy = uniformize(classical_curve(airy_matrix())).to_json()
    assert set(airy) == keys
    assert (airy["kind"], airy["a"], airy["b"]) == (ONE_BRANCH, "0", None)
    assert (airy["x"], airy["y"]) == ("z^2", "z")
    assert airy["extension"] is None
    # the branch points +-sqrt(2) of y^2 = x^2 - 2 make uniformize adjoin u
    blob = uniformize(classical_curve(
        xmat(QQ, ("0", "x^2 - 2", "1", "0")))).to_json()
    assert set(blob) == keys
    assert (blob["kind"], blob["a"], blob["b"]) == (TWO_BRANCH, "-u", "u")
    assert blob["extension"] == {"name": "u", "square": "2"}
    assert json.loads(json.dumps(blob)) == blob


def test_non_square_constant_adjoins_u():
    # y^2 = 2x: the leading constant 2 costs the one extension, u^2 = 2
    U = uniformize(classical_curve(xmat(QQ, ("0", "2*x", "1", "0"))))
    blob = U.to_json()
    assert blob["extension"] == {"name": "u", "square": "2"}
    assert (blob["x"], blob["y"]) == ("z^2", "u*z")
    assert U.field.base == QQ
    assert (1, 1) in eo_differentials(U, 1, 1).omegas


def _over_u_squared_2t():
    Qt = tower("t")
    return QuadraticExtension(Qt, parse_element("2*t", Qt), "u")


@pytest.mark.parametrize("field, q_text", [
    # branchpoints +-sqrt(t) over Q(t)[u], u^2 = 2t
    (_over_u_squared_2t(), "x^2 - t"),
    # leading constant t over the same field
    (_over_u_squared_2t(), "t*x"),
    # branchpoints +-u with u^2 = 2, then the constant 3
    (QQ, "3*(x^2 - 2)"),
])
def test_second_extension_refused(field, q_text):
    curve = classical_curve(xmat(field, ("0", q_text, "1", "0")))
    with pytest.raises(UnsolvableInTower, match="second quadratic extension"):
        uniformize(curve)


def test_higher_genus_rejected():
    L0 = xmat(QQ, ("0", "(x-1)*(x-2)*(x-3)*(x-4)", "1", "0"))
    with pytest.raises(HigherGenus):
        uniformize(classical_curve(L0))


def test_confluent_branchpoints_rejected():
    from isorec.spectralcurve import Uniformization
    zf = FunctionField(QQ, "z")
    z = zf.gen()
    with pytest.raises(ConfluentBranchpoints):
        Uniformization(TWO_BRANCH, QQ, "z", Fraction(1), Fraction(1),
                       z, z)


@pytest.mark.parametrize("kind, x_text, y_text, message", [
    (ONE_BRANCH, "z^2 + z", "z", "x is not involution-invariant"),
    (ONE_BRANCH, "z^2", "z^2", "y is not involution-odd"),
    # x = 1/(z + 1/z - 2) has a pole at the branch z-point 1
    (TWO_BRANCH, "z/(z - 1)^2", "z - 1/z",
     "dx does not vanish at branch z-point 1"),
    (ONE_BRANCH, "z^4", "z", "dx vanishes away from the branch z-points"),
])
def test_uniformization_refuses_a_bad_cover(kind, x_text, y_text, message):
    from isorec.spectralcurve import Uniformization
    zf = FunctionField(QQ, "z")
    b = Fraction(-1) if kind == TWO_BRANCH else None
    with pytest.raises(InvalidUniformization, match=message):
        Uniformization(kind, QQ, "z", Fraction(1), b,
                       parse_element(x_text, zf), parse_element(y_text, zf))


# --- involution and pullback ----------------------------------------------------


@pytest.mark.parametrize("entries", [
    ("0", "x^2 - 4*x + 3", "1", "0"),
    ("0", "x", "1", "0"),
    ("0", "x^3 - x^2", "1", "0"),
])
def test_involution_symmetries(entries):
    U = uniformize(classical_curve(xmat(QQ, entries)))
    assert U.apply_sigma(U.x) == U.x
    assert U.apply_sigma(U.y) == -U.y


def test_pullback_of_curve_is_y_squared():
    iso, lead = painleve1_setup()
    C = curve_from_system(iso, lead)
    U = uniformize(C)
    assert pullback(C.Q, U) == U.y * U.y


def test_pullback_examples():
    U = uniformize(classical_curve(airy_matrix()))
    Fx = FunctionField(QQ, "x")
    zf = FunctionField(QQ, "z")
    assert pullback(Fx.gen(), U) == parse_element("z^2", zf)
    assert pullback(Fx.one() / Fx.gen(), U) == parse_element("z^-2", zf)


@settings(deadline=None, max_examples=30)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6))
def test_pullback_is_a_homomorphism(a0, a1, b0, b1):
    L0 = xmat(QQ, ("0", "x^2 - 4*x + 3", "1", "0"))
    U = uniformize(classical_curve(L0))
    Fx = FunctionField(QQ, "x")
    x = Fx.gen()
    f = Fx.coerce(a0) + Fx.coerce(a1) * x
    g = Fx.coerce(b0) + Fx.coerce(b1) * x * x
    assert pullback(f * g, U) == pullback(f, U) * pullback(g, U)
    assert pullback(f + g, U) == pullback(f, U) + pullback(g, U)
