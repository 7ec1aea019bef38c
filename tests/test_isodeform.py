from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorec import isodeform
from isorec.detcheck import beta_factor
from isorec.errors import (CasePreconditionViolated, IdentityFailed,
                           NoDeformation, OrderMismatch, PlanMismatch)
from isorec.exactmath import (QQ, FunctionField, HbarSeries,
                              QuadraticExtension, RatFn, parse_element)
from isorec.hamflow import extend_flow, leading_order
from isorec.isodeform import (CASE_HIGHER_POLE, CASE_INFINITY,
                              CASE_SIMPLE_POLE, DeformCase, ScalingPlan,
                              build_isosystem, compatibility_residual,
                              explicit_time_residual, scaling_plan,
                              select_case)
from isorec.laxsystem import (SIGMA3, SIGMA_PLUS, Mat2, PoleData, Sl2Lax,
                              assemble, hamiltonians)


def tower(*names):
    f = QQ
    for name in names:
        f = FunctionField(f, name)
    return f


def mat(field, rows):
    (a, b), (c, d) = rows
    return Mat2(*(parse_element(s, field) for s in (a, b, c, d)))


def painleve1_isospectral(field=None):
    """The commuting-flow seed: no time yet, b-entry constant part q^2."""
    F = field if field is not None else tower("t", "q", "p")
    coeffs = {
        (0, 2): mat(F, (("0", "1"), ("0", "0"))),
        (0, 1): mat(F, (("0", "q"), ("1", "0"))),
        (0, 0): mat(F, (("p", "q^2"), ("-q", "-p"))),
    }
    return Sl2Lax(F, PoleData((), (), 2, SIGMA_PLUS), coeffs)


# --- case selection -----------------------------------------------------------


def test_select_prefers_last_simple_pole():
    pd = PoleData((Fraction(0), Fraction(1), Fraction(2)), (1, 1, 1), -1,
                  SIGMA3)
    assert select_case(pd) == DeformCase(CASE_SIMPLE_POLE, 3)


def test_select_higher_pole():
    pd = PoleData((Fraction(0),), (2,), 0, SIGMA3)
    assert select_case(pd) == DeformCase(CASE_HIGHER_POLE, 1)


def test_select_infinity():
    pd = PoleData((), (), 2, SIGMA_PLUS)
    assert select_case(pd) == DeformCase(CASE_INFINITY)


def test_select_excluded_structures():
    with pytest.raises(NoDeformation):
        select_case(PoleData((), (), 0, SIGMA3))
    with pytest.raises(NoDeformation):
        select_case(PoleData((), (), 1, SIGMA_PLUS))


def test_simple_pole_beats_higher_pole():
    pd = PoleData((Fraction(0), Fraction(1)), (3, 1), 0, SIGMA3)
    assert select_case(pd) == DeformCase(CASE_SIMPLE_POLE, 2)


def test_case_precondition_errors():
    pd = PoleData((Fraction(0),), (2,), 0, SIGMA3)
    with pytest.raises(CasePreconditionViolated):
        DeformCase(CASE_SIMPLE_POLE, 1).validate(pd)
    with pytest.raises(CasePreconditionViolated):
        DeformCase(CASE_INFINITY).validate(pd)
    with pytest.raises(CasePreconditionViolated):
        DeformCase(CASE_HIGHER_POLE, 2).validate(pd)


@pytest.mark.parametrize("make, error, match", [
    (lambda: DeformCase(CASE_HIGHER_POLE, 1).validate(
        PoleData((Fraction(0),), (1,), 0, SIGMA3)),
     CasePreconditionViolated, "weighted-pole case needs >= 2"),
    (lambda: ScalingPlan(1, 1, {(0, 0): 1}, 0, 1, 1, (0, 1),
                         DeformCase(CASE_INFINITY)),
     PlanMismatch, "has no degree"),
    (lambda: ScalingPlan(1, 1, {(0, 0): 2}, 0, 1, 1, (0, 0),
                         DeformCase(CASE_INFINITY)),
     PlanMismatch, "pairing needs 2"),
])
def test_isodeform_refuses(make, error, match):
    with pytest.raises(error, match=match):
        make()


@pytest.mark.parametrize("kind, nu", [
    (4, 0), (CASE_INFINITY, 1), (CASE_SIMPLE_POLE, 0), (CASE_HIGHER_POLE, -1),
])
def test_deform_case_refuses_bad_kind_or_index(kind, nu):
    with pytest.raises(CasePreconditionViolated):
        DeformCase(kind, nu)


# --- building the deformed pair ----------------------------------------------


def test_build_painleve1():
    iso = build_isosystem(painleve1_isospectral(), beta="q")
    L = assemble(iso.lax)
    F = iso.lax.field
    Fx = FunctionField(F, "x")
    assert L.b == parse_element("x^2 + q*x + q^2 + 2*t", Fx)
    assert L.a == parse_element("p", Fx)
    assert L.c == parse_element("x - q", Fx)
    assert iso.aux.b == parse_element("2*x + 4*q", Fx)
    assert iso.aux.c == parse_element("2", Fx)
    assert not iso.aux.a and not iso.aux.d


def test_build_refuses_an_auxiliary_matrix_off_the_identity(monkeypatch):
    # twice the generator breaks dL/dt|expl = dA/dx in the b entry, and the
    # refusal prints the residual matrix
    real = isodeform.auxiliary_matrix
    monkeypatch.setattr(isodeform, "auxiliary_matrix",
                        lambda system, nu, i: real(system, nu, i) * 2)
    with pytest.raises(IdentityFailed,
                       match=r"failed: \[\[0, -2\], \[0, 0\]\]$"):
        build_isosystem(painleve1_isospectral(), beta="q")


def test_build_wraps_missing_time():
    F = tower("q", "p")
    sys = painleve1_isospectral(F)
    iso = build_isosystem(sys)
    assert iso.lax.field.var == "t"
    assert not explicit_time_residual(iso)


def test_build_moving_pole():
    F = QQ
    m1 = mat(F, (("1", "2"), ("3", "-1")))
    m2 = mat(F, (("0", "1"), ("1", "0")))
    m3 = -(Mat2.sigma3(F.one(), F.zero()) + m1 + m2)
    pd = PoleData((Fraction(0), Fraction(1), Fraction(2)), (1, 1, 1), -1,
                  SIGMA3)
    sys = Sl2Lax(F, pd, {(1, 1): m1, (2, 1): m2, (3, 1): m3})
    iso = build_isosystem(sys)
    # the third pole becomes the time
    t = parse_element("t", iso.lax.field)
    assert iso.lax.poles.points[2] == t
    assert iso.lax.poles.points[:2] == (Fraction(0), Fraction(1))
    p, ahat = beta_factor(iso.aux)
    assert p.degree() == 1
    # residue term only: A = B/(x-t)
    assert all(e.as_poly().degree() <= 0 for e in ahat.entries())


@pytest.mark.parametrize("beta", ["3", "t"])
@pytest.mark.parametrize("kind, rows", [
    (SIGMA3, (("1", "0"), ("0", "-1"))),
    (SIGMA_PLUS, (("0", "1"), ("0", "0"))),
])
def test_fuchsian_beta_adds_the_kind_matrix(kind, rows, beta):
    # r0 = -1: the residue at infinity is fixed to minus the kind matrix,
    # and beta shifts A by 2 beta times that matrix
    F = QQ
    m1 = mat(F, (("1", "2"), ("3", "-1")))
    m2 = mat(F, (("0", "1"), ("1", "0")))
    m3 = -(mat(F, rows) + m1 + m2)
    pd = PoleData((Fraction(0), Fraction(1), Fraction(2)), (1, 1, 1), -1,
                  kind)
    sys = Sl2Lax(F, pd, {(1, 1): m1, (2, 1): m2, (3, 1): m3})
    plain = build_isosystem(sys)
    shifted = build_isosystem(sys, beta=beta)
    E = shifted.lax.field
    two_beta = 2 * parse_element(beta, E)
    assert shifted.lax.coeffs == plain.lax.coeffs
    assert shifted.aux - plain.aux == mat(E, rows).map(
        lambda e: RatFn.const(E, e * two_beta, "x"))
    assert not explicit_time_residual(shifted)


def test_build_weighted_pole_identity():
    F = tower("t")
    top = mat(F, (("1", "0"), ("0", "-1")))
    low = mat(F, (("0", "3"), ("2", "0")))
    pd = PoleData((Fraction(1),), (2,), 0, SIGMA3)
    sys = Sl2Lax(F, pd, {(0, 0): Mat2.sigma3(F.one(), F.zero()),
                         (1, 2): top, (1, 1): low})
    iso = build_isosystem(sys, case=DeformCase(CASE_HIGHER_POLE, 1))
    assert not explicit_time_residual(iso)
    # the weighted coefficient picked up -t * top
    got = iso.lax.coeff(1, 2)
    t = parse_element("t", F)
    assert got == top - top.map(lambda e: e * t)


@st.composite
def simple_pole_systems(draw):
    ints = st.integers(min_value=-3, max_value=3)
    F = QQ

    def m2():
        a = Fraction(draw(ints))
        b = Fraction(draw(ints))
        c = Fraction(draw(ints))
        return Mat2(a, b, c, -a)

    pd = PoleData((Fraction(0), Fraction(1)), (1, 1), 1, SIGMA3)
    coeffs = {(0, 1): Mat2.sigma3(F.one(), F.zero()), (0, 0): m2(),
              (1, 1): m2(), (2, 1): m2()}
    return Sl2Lax(F, pd, coeffs)


@settings(max_examples=40, deadline=None)
@given(simple_pole_systems(), st.integers(min_value=1, max_value=2))
def test_identity_for_random_simple_poles(sys, nu):
    if not sys.coeff(nu, 1):
        return
    iso = build_isosystem(sys, case=DeformCase(CASE_SIMPLE_POLE, nu))
    assert not explicit_time_residual(iso)
    p, ahat = beta_factor(iso.aux)
    assert p.degree() <= 1
    assert all(e.as_poly().degree() <= 1 for e in ahat.entries())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=6,
                max_size=6))
def test_identity_for_random_infinity_case(vals):
    F = QQ
    v = [Fraction(k) for k in vals]
    coeffs = {(0, 2): Mat2.sigma3(F.one(), F.zero()),
              (0, 1): Mat2(v[0], v[1], v[2], -v[0]),
              (0, 0): Mat2(v[3], v[4], v[5], -v[3])}
    sys = Sl2Lax(F, PoleData((), (), 2, SIGMA3), coeffs)
    iso = build_isosystem(sys)
    assert not explicit_time_residual(iso)
    p, ahat = beta_factor(iso.aux)
    assert p.degree() == 0
    assert all(e.as_poly().degree() <= 1 for e in ahat.entries())


# --- scaling plans -------------------------------------------------------------


def test_scaling_exponent_table():
    # (points-orders, r0, kind) -> expected d_x
    rows = [
        (((), (), 2, SIGMA_PLUS), Fraction(2, 5)),      # first Painleve
        (((), (), 2, SIGMA3), Fraction(1, 3)),          # second Painleve
        (((Fraction(0),), (1,), 1, SIGMA3), Fraction(1, 2)),   # fourth
        (((), (), 3, SIGMA3), Fraction(1, 4)),          # second, next level
        (((), (), 3, SIGMA_PLUS), Fraction(2, 7)),      # first, next level
    ]
    for args, want in rows:
        pd = PoleData(*args)
        assert scaling_plan(pd).d_x == want, args


def test_polynomial_family_exponent():
    for r0 in range(2, 7):
        pd = PoleData((), (), r0, SIGMA3)
        assert scaling_plan(pd).d_x == Fraction(1, r0 + 1)


def test_fuchsian_plan_is_flat():
    pd = PoleData((Fraction(0), Fraction(1), Fraction(2)), (1, 1, 1), -1,
                  SIGMA3)
    plan = scaling_plan(pd)
    assert plan.d_x == 0 and plan.d_t == 0
    assert plan.degrees[plan.main] == 2
    assert plan.degrees[(1, 2)] == 0  # casimir slots stay unscaled


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-1, max_value=4),
       st.lists(st.integers(min_value=1, max_value=3), min_size=0,
                max_size=3),
       st.booleans())
def test_time_energy_pairing(r0, orders, diag):
    points = tuple(Fraction(i) for i in range(len(orders)))
    kind = SIGMA3 if diag else SIGMA_PLUS
    pd = PoleData(points, orders, r0, kind)
    try:
        plan = scaling_plan(pd)
    except NoDeformation:
        assert (pd.n == 0 and pd.r0 <= 1)
        return
    assert plan.d_t + plan.degrees[plan.main] == 2


def test_plan_json_shape():
    plan = scaling_plan(PoleData((), (), 2, SIGMA_PLUS))
    blob = plan.to_json()
    assert set(blob) == {"d_x", "d_t", "hamiltonian_degrees",
                         "darboux_exponents"}
    assert blob["d_x"] == "2/5"
    assert blob["d_t"] == "4/5"
    assert blob["hamiltonian_degrees"]["0,0"] == "6/5"


# --- compatibility -------------------------------------------------------------


class _Flow:
    def __init__(self, field, q, p):
        self.field = field
        self.q = q
        self.p = p
        self.qname = "q"
        self.pname = "p"


def _p1_leading_flow(prec):
    """Constant critical flow for the first Painleve system: q0 = u with
    u^2 = -2t/3, p0 = 0."""
    Qt = FunctionField(QQ, "t")
    t = Qt.gen()
    E = QuadraticExtension(Qt, t * Fraction(-2, 3), "u")
    u = E.u()
    q = HbarSeries.constant(u, prec, E.zero())
    p = HbarSeries(prec, [], prec, E.zero())
    return _Flow(E, q, p)


def test_leading_compatibility_painleve1():
    iso = build_isosystem(painleve1_isospectral(), beta="q")
    flow = _p1_leading_flow(1)
    res = compatibility_residual(iso, flow, 0)
    assert not res


def test_compatibility_order_mismatch():
    iso = build_isosystem(painleve1_isospectral(), beta="q")
    flow = _p1_leading_flow(1)
    with pytest.raises(OrderMismatch):
        compatibility_residual(iso, flow, 3)


def test_compatibility_detects_wrong_leading_point():
    iso = build_isosystem(painleve1_isospectral(), beta="q")
    Qt = FunctionField(QQ, "t")
    E = QuadraticExtension(Qt, Qt.gen(), "u")  # u^2 = t: not critical
    q = HbarSeries.constant(E.u(), 1, E.zero())
    p = HbarSeries(1, [], 1, E.zero())
    res = compatibility_residual(iso, _Flow(E, q, p), 0)
    assert res


def test_compatibility_through_hbar4_painleve1():
    iso = build_isosystem(painleve1_isospectral(), beta="q")
    H = parse_element("-2*p^2 + 2*q^3 + 4*t*q", iso.lax.field)
    flow = extend_flow(H, leading_order(H), 4)
    assert not compatibility_residual(iso, flow, 4)
    # a wrong q_3 leaves the lower orders alone and shows at its own order
    flow.q.coeffs[3] = flow.q.coeffs[3] + flow.field.one()
    res = compatibility_residual(iso, flow, 4)
    assert not any(res.coeff(k) for k in range(3))
    assert res.coeff(3)


def test_hamiltonian_of_deformed_painleve1():
    iso = build_isosystem(painleve1_isospectral(), beta="q")
    H = hamiltonians(iso.lax)
    F = iso.lax.field
    assert H.value(0, 0) == parse_element("2*p^2 - 2*q^3 - 4*t*q", F)
