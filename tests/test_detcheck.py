"""The determinantal side on Painleve I through hbar^4: the projector-valued
series M on the z-line, the equation it solves, and the correlators
built from its traces, which verify_tt identifies with omega_{g,n} for
n <= 4; the singularity statements on hand-built M in both growth cases;
the exact zero test of separated forms on both uniformization kinds, on
integers over Q against the field path over Q(t); and the tau-function
identities H_2 = -dF_1/dt, H_4 = -dF_2/dt and H_6 = -dF_3/dt."""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isorec import detcheck, grading
from isorec.detcheck import (CorrelatorSeries, MSeries, ProductForm,
                             _bergman_match, _constant_in_hbar, beta_factor,
                             check_singularities, correlators, m_next,
                             m_series, m_zero, tau_series, verify_tt)
from isorec.errors import (CasePreconditionViolated, DegenerateAZero,
                           IdentityFailed, IndexOutOfRange,
                           InvalidPoleStructure, TruncationTooShort,
                           UnexpectedPole, UnsolvableInTower)
from isorec.exactmath import (QQ, FunctionField, Poly, RatFn, parse_element,
                              substitute)
from isorec.hamflow import (extend_flow, flow_values, hbar_series,
                            leading_order)
from isorec.isodeform import build_isosystem
from isorec.laxsystem import Mat2, PoleData, SIGMA_PLUS, Sl2Lax
from isorec.separated import _sep_zero
from isorec.spectralcurve import (classical_curve, curve_from_system,
                                  pullback, uniformize)
from isorec.toprec import PoleBasisForm, eo_differentials, xi_ratfn

ORDER = 2


def p1_system():
    F = QQ
    for name in ("t", "q", "p"):
        F = FunctionField(F, name)
    coeffs = {
        (0, 2): Mat2(*(parse_element(s, F) for s in ("0", "1", "0", "0"))),
        (0, 1): Mat2(*(parse_element(s, F) for s in ("0", "q", "1", "0"))),
        (0, 0): Mat2(*(parse_element(s, F)
                       for s in ("p", "q^2", "-q", "-p"))),
    }
    seed = Sl2Lax(F, PoleData((), (), 2, SIGMA_PLUS), coeffs)
    iso = build_isosystem(seed, beta="q")
    return iso, parse_element("-2*p^2 + 2*q^3 + 4*t*q", F)


def curve_U(q_text, field=QQ):
    """Uniformization of y^2 = Q(x) over `field`."""
    one = RatFn.one(field, "x")
    Q = parse_element(q_text, FunctionField(field, "x"))
    return uniformize(classical_curve(Mat2(0 * one, Q, one, 0 * one)))


def report_digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def p1():
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), ORDER)
    mser = m_series(iso, flow, ORDER)
    return mser, correlators(mser, nmax=2)


@pytest.mark.parametrize("k", range(ORDER + 1))
def test_trace_and_sheet_defects_vanish(p1, k):
    mser, _ = p1
    assert not mser.trace_defect(k)
    assert not mser.sheet_defect(k)


@pytest.mark.parametrize("k", [0, 1])
def test_projector_defect_vanishes(p1, k):
    assert not p1[0].projector_defect(k)


@pytest.fixture(scope="module")
def p1_order3():
    iso, H = p1_system()
    return m_series(iso, extend_flow(H, leading_order(H), 3), 3)


@pytest.mark.parametrize("k", range(4))
def test_projector_defect_vanishes_through_order_3(p1_order3, k):
    # M^2 = M order by order; the projector-identity scalar enters m_next
    # with the sign that makes the order-2 defect 2(M^(1))^2 cancel
    assert not p1_order3.projector_defect(k)


@pytest.mark.parametrize("k", range(1, 4))
def test_m_solves_its_t_equation_through_order_3(p1_order3, k):
    # beta dt M^(k-1) = sum_{j<=k} [A-hat^(k-j), M^(j)], the equation whose
    # order-k part m_next solves for M^(k)
    mser = p1_order3
    dt = mser.grading.time_derivative(mser.U)
    res = dt(mser.mats[k - 1], k - 1).map(lambda e: e * mser.beta)
    for j in range(k + 1):
        res = res - mser.ahat[k - j].commutator(mser.mats[j])
    assert not res


def _root(mser):
    """The square root -alpha(x(z)) y(z) of -det A-hat^(0) on the z-line."""
    return -pullback(mser.curve.alpha, mser.U) * mser.U.y


def test_m_series_refuses_an_m_off_its_x_equation(monkeypatch):
    # twice the true M^(1) has its poles and degrees, so only the check of
    # hbar d_x M = [L, M] at order 1 can refuse it
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), 1)
    solve = detcheck.m_next
    monkeypatch.setattr(detcheck, "m_next",
                        lambda *args: solve(*args).map(lambda e: e + e))
    with pytest.raises(IdentityFailed, match=r"M\^\(1\)"):
        m_series(iso, flow, 1)


@pytest.mark.parametrize("extra, defect", [
    # each addition to M^(1) commutes with L^(0), so hbar d_x M = [L, M]
    # still holds at order 1; the identity has trace 2, A-hat^(0) is even
    # under sigma, and root * A-hat^(0) is odd and breaks M^2 = M
    (lambda a0, root: Mat2(1 + 0 * root, 0 * root, 0 * root, 1 + 0 * root),
     "trace_defect"),
    (lambda a0, root: a0, "sheet_defect"),
    (lambda a0, root: a0.map(lambda e: e * root), "projector_defect"),
])
def test_m_series_refuses_an_m_off_its_other_identities(monkeypatch, extra,
                                                         defect):
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), 1)
    solve = detcheck.m_next

    def m_next(k, history, ahat, beta, root, dt):
        return solve(k, history, ahat, beta, root, dt) + extra(ahat[0], root)
    monkeypatch.setattr(detcheck, "m_next", m_next)
    with pytest.raises(IdentityFailed, match=r"M\^\(1\) has a nonzero "
                       + defect):
        m_series(iso, flow, 1)


def test_m_zero_refuses_a_singular_leading_matrix(p1):
    # A^(0) nilpotent: det = -1 + 1 = 0, so it has no square root to divide by
    mser = p1[0]
    one = RatFn.one(mser.U.field, mser.U.zvar)
    with pytest.raises(DegenerateAZero):
        m_zero(Mat2(one, one, -one, -one), _root(mser))


@pytest.mark.parametrize("extra,reason", [
    ("identity", "not trace-free"),
    ("ahat0", "not orthogonal to A-hat"),
])
def test_m_next_refuses_a_driving_term_off_the_identities(p1, extra, reason):
    # the true time derivative gives back M^(1); adding the identity (it has
    # a trace) or A-hat^(0) = [[a, b], [c, -a]] (trace-free, but
    # 2a a + c b + b c = -2 det A-hat^(0) != 0) breaks one of the two
    # identities m_next checks before it solves
    mser, _ = p1
    U = mser.U
    dt = mser.grading.time_derivative(U)
    args = (1, mser.mats[:1], mser.ahat, mser.beta, _root(mser))
    assert m_next(*args, dt) == mser.mats[1]
    one, zero = RatFn.one(U.field, U.zvar), RatFn.zero(U.field, U.zvar)
    X = (Mat2(one, zero, zero, one) if extra == "identity"
         else mser.ahat[0]).map(lambda e: e / mser.beta)
    with pytest.raises(IdentityFailed, match=reason):
        m_next(*args, lambda m, k: dt(m, k) + X)


def test_beta_factor_refuses_a_denominator_it_did_not_clear(monkeypatch):
    # a gcd that swallows every denominator leaves beta = 1, and the entry
    # 1/(x - 1) is then no polynomial
    one = RatFn.one(QQ, "x")
    aux = Mat2(one / parse_element("x - 1", FunctionField(QQ, "x")), one,
               one, -one)
    monkeypatch.setattr(detcheck, "poly_gcd", lambda a, b: b)
    with pytest.raises(CasePreconditionViolated, match="fails to clear"):
        beta_factor(aux)


def test_a_denominator_that_moves_along_the_flow_is_refused():
    # x - q: q picks up an hbar^2 term along the P1 flow
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), 2)
    f = parse_element("x - q", FunctionField(H.field, "x"))
    with pytest.raises(CasePreconditionViolated, match="depends on hbar"):
        _constant_in_hbar(hbar_series(f, flow, 2))


def test_m_series_refuses_a_uniformization_past_the_flows_field(
        monkeypatch):
    # the flow lives over Q at t0; a curve needing sqrt(2) would need the
    # flow and M carried into Q(sqrt 2) as well
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), 1)
    monkeypatch.setattr(detcheck, "uniformize",
                        lambda curve: curve_U("x^2 - 2"))
    with pytest.raises(UnsolvableInTower, match="past the flow's"):
        m_series(iso, flow, 1)


def test_m_coeff_below_order_0_is_out_of_range(p1):
    mser, _ = p1
    with pytest.raises(IndexOutOfRange):
        mser.coeff(-1)
    with pytest.raises(TruncationTooShort):
        mser.coeff(ORDER + 1)


@pytest.mark.parametrize("n,k", [(0, 0), (-1, 1), (1, -2), (2, -1)])
def test_correlator_form_below_first_order_is_out_of_range(p1, n, k):
    with pytest.raises(IndexOutOfRange):
        p1[1].form(n, k)


@pytest.mark.parametrize("n,k", [(1, ORDER), (2, ORDER + 1), (3, 0)])
def test_correlator_form_past_order_is_truncation(p1, n, k):
    with pytest.raises(TruncationTooShort):
        p1[1].form(n, k)


def test_m_entries_live_on_the_z_line(p1):
    mser, _ = p1
    U = mser.U
    for m in mser.mats + mser.lax + mser.ahat + [Mat2.zero(mser.beta)]:
        assert all(isinstance(e, RatFn) and e.field == U.field
                   and e.var == U.zvar for e in m.entries())
    assert mser.to_json()["mats"][0]["entries"][0] == "1/2"


NO_BASIS = {"kind": "no-basis",
            "reason": "a correlator coefficient does not reduce to the "
                      "branchpoint pole basis"}


def _without_basis(cors):
    # a two-point entry with a pole away from the branchpoint has no basis
    z = RatFn.gen(cors.U.field, cors.U.zvar)
    pf = ProductForm(cors.U, 2)
    pf.add(cors.U.field.one(), [1 / (z - 1), 1 / (z - 1)], {})
    return _with_two_point(cors, pf, 2)


def test_correlator_json_records_missing_basis(p1):
    _, cors = p1
    blob = cors.to_json()["correlators"]
    assert blob["1,1"]["kind"] == "pole-basis"
    assert blob["2,2"]["kind"] == "pole-basis"
    assert _without_basis(cors).to_json()["correlators"]["2,2"] == NO_BASIS


def test_missing_basis_is_proved_once(p1, monkeypatch):
    # verify_tt refuses the decomposition; to_json then reports the
    # recorded refusal without a zero test of its own
    mser, cors = p1
    row = _without_basis(cors)
    assert verify_tt(mser, row)["tr_equality"]["1,2"] == {
        "pass": False, "reason": "no basis decomposition"}
    calls = []
    is_zero = ProductForm.is_zero
    monkeypatch.setattr(ProductForm, "is_zero",
                        lambda pf: calls.append(pf) or is_zero(pf))
    assert row.to_json()["correlators"]["2,2"] == NO_BASIS
    assert not calls


def test_w1_row_off_the_basis_gets_the_rows_refusal(p1):
    # W_1^(1) with a pole at z = 2 is decomposed by the extractor of the
    # W_n rows and gets its refusal; verify_tt records it without raising
    mser, cors = p1
    U = cors.U
    w1 = dict(cors.w1)
    w1[1] = w1[1] + 1 / (RatFn.gen(U.field, U.zvar) - 2)
    row = CorrelatorSeries(U, cors.order, cors.nmax, w1, cors.wn)
    assert row.to_json()["correlators"]["1,1"] == NO_BASIS
    report = verify_tt(mser, row)
    assert report["clauses"]["4"] == {
        "pass": False,
        "witnesses": [{"n": 1, "k": 1, "reason": NO_BASIS["reason"]}]}
    assert report["tr_equality"]["1,1"] == {
        "pass": False, "reason": "no basis decomposition"}


def test_correlator_json_reports_a_nonzero_odd_row(p1):
    # the parity-odd row is "vanishing" because the zero test proves it,
    # not because of its parity: xi_{0,2} (x) xi_{0,2} there is nonzero
    _, cors = p1
    U = cors.U
    E = U.field
    assert cors.to_json()["correlators"]["2,1"] == {"kind": "vanishing"}
    pf = ProductForm(U, 2)
    pf.add(E.one(), [xi_ratfn(E, U.zvar, 0, 2), xi_ratfn(E, U.zvar, 0, 2)])
    blob = _with_two_point(cors, pf, 1).to_json()["correlators"]
    assert blob["2,1"] == {"kind": "nonzero"}


def test_correlator_json_labels_only_a_checked_bergman_kernel(p1):
    _, cors = p1
    blob = cors.to_json()["correlators"]
    assert blob["2,0"] == {"kind": "two-point", "diagonal":
                           "double pole, matches the Bergman kernel"}
    doubled = cors.wn[(2, 0)].scaled(cors.U.field.coerce(2))
    blob = _with_two_point(cors, doubled).to_json()["correlators"]
    assert blob["2,0"] == {"kind": "two-point",
                           "diagonal": "differs from the Bergman kernel"}


def test_product_form_transposition_check():
    one = RatFn.one(QQ, "x")
    U = uniformize(classical_curve(Mat2(0 * one, RatFn.gen(QQ, "x"), one,
                                        0 * one)))
    z = RatFn.gen(QQ, U.zvar)
    zone = RatFn.one(QQ, U.zvar)
    f, g = zone / z ** 2, zone / z ** 4
    pf = ProductForm(U, 2)
    pf.add(Fraction(1), [f, g], {(0, 1): 1})
    assert not (pf - pf.permuted([1, 0])).is_zero()
    # (f(z1) g(z2) - g(z1) f(z2)) / (x1 - x2) is symmetric
    pf.add(Fraction(-1), [g, f], {(0, 1): 1})
    assert (pf - pf.permuted([1, 0])).is_zero()


def test_product_form_add_refuses_the_wrong_number_of_factors():
    pf = ProductForm(curve_U("x"), 2)
    with pytest.raises(InvalidPoleStructure):
        pf.add(Fraction(1), [RatFn.one(QQ, "z")])


# --- the singularity statements on hand-built M -------------------------------

def _hand_mseries(q_text, k, entry):
    """An MSeries on y^2 = Q(x) over Q whose M^(k) has the (1,1) entry
    f(x(z)) + g(x(z)) y(z), entry = (f, g), and whose other entries vanish.

    A-hat^(0) = L0 = [[0, Q], [1, 0]], so -det A-hat^(0) = Q picks the
    growth case: bounded for deg Q = 2, half for deg Q = 1.
    """
    Fx = FunctionField(QQ, "x")
    one = RatFn.one(QQ, "x")
    L0 = Mat2(0 * one, parse_element(q_text, Fx), one, 0 * one)
    curve = classical_curve(L0, L0)
    U = uniformize(curve)
    zero = RatFn.zero(QQ, U.zvar)
    f, g = (pullback(parse_element(t, Fx), U) for t in entry)
    mats = [Mat2.zero(zero) for _ in range(k)]
    mats.append(Mat2(f + g * U.y, zero, zero, zero))
    lax = [L0.map(lambda e: pullback(e, U))]
    return MSeries(curve, U, k, mats, lax, lax, RatFn.one(QQ, U.zvar))


@pytest.mark.parametrize("entry, message", [
    # (x - 2) - y = 1/z: z = 0 lies over x = infinity
    (("x-2", "-1"), "pole at z = 0"),
    # (x - 2) + y = z
    (("x-2", "1"), "grows like z^1"),
    # 2z/(z^2 - 6z + 1), with irrational roots 3 +- 2 sqrt 2
    (("1/(x-5)", "0"), "poles at zeros of"),
])
def test_check_singularities_refuses_in_the_bounded_case(entry, message):
    mser = _hand_mseries("(x-1)*(x-3)", 0, entry)
    with pytest.raises(UnexpectedPole, match=re.escape(message)):
        check_singularities(mser)


def test_check_singularities_accepts_a_bounded_branchpoint_pole():
    # y/(x - 1) = (z - 1)/(z + 1): a pole at the branch z-point -1
    check_singularities(_hand_mseries("(x-1)*(x-3)", 0, ("0", "1/(x-1)")))


def test_check_singularities_allows_z_0_without_a_growth_bound():
    # -det A-hat^(0) = (x-1)(x-3)/(x-5)^2 is no polynomial, so neither growth
    # case holds and z = 0, over x = infinity, may carry a pole: x has one
    entry = ("x", "0")
    check_singularities(_hand_mseries("(x-1)*(x-3)/(x-5)^2", 0, entry))
    with pytest.raises(UnexpectedPole, match=re.escape("pole at z = 0")):
        check_singularities(_hand_mseries("(x-1)*(x-3)", 0, entry))
    # 1/(x-4) = 2z/(z^2 - 4z + 1) still has its poles at 2 +- sqrt 3
    with pytest.raises(UnexpectedPole, match=re.escape("poles at zeros of")):
        check_singularities(
            _hand_mseries("(x-1)*(x-3)/(x-5)^2", 0, ("1/(x-4)", "0")))


def test_check_singularities_half_case_bound_drops_after_order_0():
    # 1 + 1/x = (z^2 + 1)/z^2 has degree 0 in z: allowed in M^(0) (bound
    # 1), refused in M^(1) (bound -1)
    entry = ("1 + 1/x", "0")
    check_singularities(_hand_mseries("x", 0, entry))
    with pytest.raises(UnexpectedPole,
                       match=re.escape("M^(1) grows like z^0")):
        check_singularities(_hand_mseries("x", 1, entry))


# --- the exact zero test on both uniformization kinds ------------------------

@pytest.mark.parametrize("q_text", ["x", "(x-1)*(x-3)"])
def test_cyclic_coupling_identity_is_zero(q_text):
    # 1/((x0-x1)(x1-x2)) + 1/((x1-x2)(x2-x0)) + 1/((x2-x0)(x0-x1)) = 0,
    # times a slot factor 1/z that shares the pole of x on two-branch curves
    U = curve_U(q_text)
    z = RatFn.gen(QQ, U.zvar)
    one = RatFn.one(QQ, U.zvar)
    facs = [one / z, one, z]
    terms = [(Fraction(1), {(0, 1): 1, (1, 2): 1}),
             (Fraction(-1), {(1, 2): 1, (0, 2): 1}),
             (Fraction(-1), {(0, 2): 1, (0, 1): 1})]
    pf = ProductForm(U, 3)
    for coef, coup in terms:
        pf.add(coef, facs, coup)
    assert pf.is_zero()
    for pair in itertools.combinations(terms, 2):
        part = ProductForm(U, 3)
        for coef, coup in pair:
            part.add(coef, facs, coup)
        assert not part.is_zero()
        assert not _sep_zero(U.field, part._cleared())


@pytest.mark.parametrize("q_text,table", [
    ("x", {((0, 2), (0, 4)): Fraction(1), ((0, 4), (0, 2)): Fraction(1),
           ((0, 3), (0, 3)): Fraction(-2, 3)}),
    ("(x-1)*(x-3)", {((1, 2), (-1, 2)): Fraction(1),
                     ((-1, 3), (1, 2)): Fraction(1, 2),
                     ((1, 4), (1, 3)): Fraction(-5)}),
])
def test_pole_basis_round_trip_through_coupling(q_text, table):
    # sum c xi(z0) xi(z1) = sum c (x0 - x1)^2 xi(z0) xi(z1) / (x0 - x1)^2,
    # with the square expanded as sum_a C(2,a) x0^a (-x1)^(2-a)
    U = curve_U(q_text)
    pf = ProductForm(U, 2)
    for ((s0, k0), (s1, k1)), c in table.items():
        xi0 = xi_ratfn(QQ, U.zvar, s0, k0)
        xi1 = xi_ratfn(QQ, U.zvar, s1, k1)
        for a, w in ((0, 1), (1, -2), (2, 1)):
            pf.add(c * w, [xi0 * U.x ** a, xi1 * U.x ** (2 - a)],
                   {(0, 1): 2})
    assert pf.to_pbf() == PoleBasisForm(QQ, 2, table)


# --- the zero test over Q on integers, against the field path over Q(t) ------

Qt = FunctionField(QQ, "t")
ZERO_TEST_CURVES = {q: curve_U(q) for q in ("x", "(x-1)*(x-3)")}
# the same curves over Q(t), where the zero test takes the field path
OVER_QT = {U: curve_U(q, Qt) for q, U in ZERO_TEST_CURVES.items()}


def _over_qt(pf):
    """The same form on the same curve over Q(t)."""
    Ut = OVER_QT[pf.U]
    assert Ut.x == pf.U.x.map_coeffs(Qt.coerce, Qt)
    return ProductForm(Ut, pf.n, [
        (Qt.coerce(c), tuple(f.map_coeffs(Qt.coerce, Qt) for f in facs), coup)
        for c, facs, coup in pf.terms])


def _zero_verdict(pf):
    """pf.is_zero() over Q, checked against the field path over Q(t)."""
    verdict = pf.is_zero()
    assert _over_qt(pf).is_zero() == verdict
    return verdict


SLOT_DENS = [parse_element(d, FunctionField(QQ, "z")) for d in
             ("1", "z", "z^2", "z - 1", "(z + 1)^2", "2*z*(z - 2)")]
coefs = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                  st.integers(1, 6))


@st.composite
def slot_factors(draw):
    """c * N(z) / D(z): mixed scalar denominators, D from a small pool with
    repeated factors, and N = 0 now and then."""
    num = Poly(QQ, draw(st.lists(st.integers(-3, 3), max_size=3)), "z")
    return RatFn(num) * draw(coefs) / draw(st.sampled_from(SLOT_DENS))


@st.composite
def separated_forms(draw):
    U = ZERO_TEST_CURVES[draw(st.sampled_from(sorted(ZERO_TEST_CURVES)))]
    n = draw(st.integers(1, 3))
    pf = ProductForm(U, n)
    for _ in range(draw(st.integers(1, 3))):
        coup = {}
        for pair in itertools.combinations(range(n), 2):
            coup[pair] = draw(st.integers(0, 2))
        pf.add(draw(coefs), [draw(slot_factors()) for _ in range(n)],
               {pair: e for pair, e in coup.items() if e})
    return pf


@settings(max_examples=40, deadline=None)
@given(separated_forms())
def test_integer_zero_test_agrees_with_the_field_path(pf):
    _zero_verdict(pf)


@st.composite
def rewritten_forms(draw):
    """(pf, the same sum written otherwise): one term of pf has a factor
    split in two, a coupling raised by one through
    1/(xi - xj)^e = (xi - xj)/(xi - xj)^(e+1), or a scalar moved into a
    slot."""
    pf = draw(separated_forms())
    U, n = pf.U, pf.n
    k = draw(st.integers(0, len(pf.terms) - 1))
    c, facs, coup = pf.terms[k]
    how = draw(st.sampled_from(["split", "raise", "scalar"] if n > 1
                               else ["split", "scalar"]))
    i = draw(st.integers(0, n - 1))
    if how == "split":
        g = draw(slot_factors())
        new = [(c, facs[:i] + (g,) + facs[i + 1:], coup),
               (c, facs[:i] + (facs[i] - g,) + facs[i + 1:], coup)]
    elif how == "scalar":
        lam = draw(coefs)
        new = [(c / lam, facs[:i] + (facs[i] * lam,) + facs[i + 1:], coup)]
    else:
        i, j = draw(st.sampled_from(list(itertools.combinations(range(n),
                                                                2))))
        up = dict(coup)
        up[(i, j)] = coup.get((i, j), 0) + 1
        xi, xj = list(facs), list(facs)
        xi[i] = facs[i] * U.x
        xj[j] = facs[j] * U.x
        new = [(c, tuple(xi), up), (-c, tuple(xj), up)]
    return pf, ProductForm(U, n, pf.terms[:k] + new + pf.terms[k + 1:])


@settings(max_examples=30, deadline=None)
@given(rewritten_forms())
def test_zero_test_proves_sums_built_to_cancel(forms):
    pf, other = forms
    assert _zero_verdict(pf - other)


@pytest.mark.parametrize("q_text", sorted(ZERO_TEST_CURVES))
def test_zero_test_refuses_near_misses(q_text):
    # each pair of terms has numerators that cancel once the denominators
    # of its scalars, its slot factors or its couplings are dropped
    U = ZERO_TEST_CURVES[q_text]
    z = RatFn.gen(QQ, U.zvar)
    one = RatFn.one(QQ, U.zvar)
    zero = 0 * one
    cases = [
        (1, [(Fraction(1, 2), [one / z]), (Fraction(-1, 3), [one / z])]),
        (2, [(Fraction(1, 2), [one / z, z]), (Fraction(-1, 3), [one / z, z])]),
        (2, [(1, [one / (2 * z), z]), (-1, [one / (3 * z), z])]),
        (2, [(1, [one / z, z]), (-1, [one / (z + 1), z])]),
        (2, [(1, [one, z], {(0, 1): 1}), (-1, [one, z], {(0, 1): 2})]),
        (3, [(1, [one / z, z, one / (2 * z)], {(1, 2): 1}),
             (-1, [one / z, z, one / (3 * z)], {(1, 2): 1})]),
        # a zero factor contributes nothing, here or in a cancelling sum
        (2, [(1, [zero, z], {(0, 1): 1}), (1, [one / z, z])]),
    ]
    for n, terms in cases:
        pf = ProductForm(U, n)
        for term in terms:
            pf.add(Fraction(term[0]), *term[1:])
        assert not _zero_verdict(pf)
        pf.add(Fraction(1), [zero] * n, {(0, n - 1): 1} if n > 1 else {})
        assert _zero_verdict(pf - pf)
        alone = ProductForm(U, n)
        alone.add(Fraction(3), [zero] + [one / z] * (n - 1))
        assert _zero_verdict(alone)


def _with_two_point(cors, pf, k=0):
    wn = dict(cors.wn)
    wn[(2, k)] = pf
    return CorrelatorSeries(cors.U, cors.order, cors.nmax, cors.w1, wn)


def test_bergman_match_rejects_altered_two_point(p1):
    mser, cors = p1
    assert _bergman_match(mser, cors)
    pf = cors.wn[(2, 0)]
    E = mser.U.field
    assert not _bergman_match(mser, _with_two_point(cors,
                                                    pf.scaled(E.coerce(2))))
    dropped = ProductForm(pf.U, 2, pf.terms[1:])
    assert not _bergman_match(mser, _with_two_point(cors, dropped))


def test_verify_tt_reports_no_two_point_row_it_did_not_compute(p1):
    # with nmax = 1 no W_2^(0) exists, so there is no row "0,2", as there
    # is a row "0,1" only when W_1^(-1) exists
    mser, _ = p1
    cors = correlators(mser, nmax=1)
    assert not cors.wn and -1 in cors.w1
    report = verify_tt(mser, cors)
    assert sorted(report["tr_equality"]) == ["0,1", "1,1"]
    assert report["clauses"]["6"] == {"pass": True, "witnesses": []}
    assert report["pass"]


@pytest.fixture(scope="module")
def p1_order4_n3():
    """verify_tt at M order 4 with nmax=3, and the number of times it
    permuted a ProductForm."""
    iso, H = p1_system()
    mser = m_series(iso, extend_flow(H, leading_order(H), 4), 4)
    cors = correlators(mser, nmax=3)
    calls = []
    permuted = ProductForm.permuted
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProductForm, "permuted",
                   lambda pf, perm: calls.append(perm) or permuted(pf, perm))
        report = verify_tt(mser, cors)
    return report, len(calls)


def test_p1_verify_tt_passes_through_order_4_and_three_points(p1_order4_n3):
    report, _ = p1_order4_n3
    failed = [c for c, v in report["clauses"].items() if not v["pass"]]
    assert not failed
    assert sorted(report["tr_equality"]) == sorted(
        ["0,1", "0,2", "1,1", "2,1", "1,2", "2,2", "0,3", "1,3"])
    assert all(r["pass"] for r in report["tr_equality"].values())
    assert report["pass"]


def test_p1_verify_tt_on_the_tower_is_the_graded_report(monkeypatch):
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), 2)

    def report():
        mser = m_series(iso, flow, 2)
        return json.dumps(verify_tt(mser, correlators(mser, nmax=3)),
                          sort_keys=True)
    graded = report()
    monkeypatch.setattr(grading, "time_point", lambda E: None)
    assert report() == graded
    assert json.loads(graded)["pass"]


def test_verify_tt_reports_are_the_committed_ones(p1, p1_order4_n3):
    # the whole report, witnesses and certificate included, not only its
    # verdicts: (M order, nmax) = (2, 2) and (4, 3)
    mser, cors = p1
    assert report_digest(verify_tt(mser, cors)) == (
        "48b75faeb9f9dd31b2e95bbfa627868b30f3627dc9de8a44d65f1e3c1ae32c47")
    assert report_digest(p1_order4_n3[0]) == (
        "3eb053dd3094b603f0e4c61330f297d407c0d4429b52cdbf5b557ea410c1af7a")


@pytest.fixture(scope="module")
def p1_order4_n4():
    iso, H = p1_system()
    mser = m_series(iso, extend_flow(H, leading_order(H), 4), 4)
    return verify_tt(mser, correlators(mser, nmax=4))


def test_p1_verify_tt_passes_through_order_4_and_four_points(p1_order4_n4):
    report = p1_order4_n4
    failed = [c for c, v in report["clauses"].items() if not v["pass"]]
    assert not failed
    assert sorted(report["tr_equality"]) == sorted(
        ["0,1", "0,2", "1,1", "2,1", "1,2", "2,2", "0,3", "1,3", "0,4",
         "1,4"])
    assert all(r["pass"] for r in report["tr_equality"].values())
    assert report["pass"]
    assert report_digest(report) == (
        "13ed2f9c6607d455805fea29d4cb1f4070a668d52928ba3f7db5238bc53d1a26")


def test_p1_verify_tt_passes_through_order_6_and_three_points():
    # M order 6 reaches genus 3: eleven rows, (0,1) through (3,2) and (2,3)
    iso, H = p1_system()
    mser = m_series(iso, extend_flow(H, leading_order(H), 6), 6)
    report = verify_tt(mser, correlators(mser, nmax=3))
    assert sorted(report["clauses"]) == ["1", "2", "3", "4", "5", "6"]
    failed = [c for c, v in report["clauses"].items() if not v["pass"]]
    assert not failed
    assert sorted(report["tr_equality"]) == sorted(
        ["0,1", "0,2", "1,1", "2,1", "1,2", "2,2", "0,3", "1,3", "3,1",
         "3,2", "2,3"])
    assert all(r["pass"] for r in report["tr_equality"].values())
    assert report["pass"]
    assert report_digest(report) == (
        "ecbc82ad63cf6452e47c5f203ac0380ad95e74fe4fc7fd6acac827a1420d4cc0")


def test_to_json_reads_the_verdicts_of_verify_tt(monkeypatch):
    # verify_tt proves the zero rows, W_2^(0) and the decompositions once;
    # to_json then labels every row without a zero test of its own
    iso, H = p1_system()
    mser = m_series(iso, extend_flow(H, leading_order(H), 4), 4)
    cors = correlators(mser, nmax=3)
    assert verify_tt(mser, cors)["pass"]
    calls = []
    is_zero = ProductForm.is_zero
    monkeypatch.setattr(ProductForm, "is_zero",
                        lambda pf: calls.append(pf) or is_zero(pf))
    blob = cors.to_json()["correlators"]
    assert not calls
    assert blob["2,0"]["diagonal"] == "double pole, matches the Bergman kernel"
    assert blob["3,0"] == {"kind": "vanishing"}


def test_verify_tt_reads_symmetry_off_the_other_clauses(p1_order4_n3):
    # every row of a passing run is pinned by clause 3, 4, 5 or 6, so no
    # row gets the separated transposition test
    _, permuted_calls = p1_order4_n3
    assert permuted_calls == 0


@pytest.mark.parametrize("k,clause,reason", [
    (2, "2", "basis decomposition asymmetric"),
    (0, "6", "W_2^(0) differs from the Bergman kernel"),
    (1, "3", "nonzero at parity-odd order")])
def test_verify_tt_witnesses_an_asymmetric_two_point_row(p1, k, clause,
                                                         reason):
    # xi_{0,2}(z1) xi_{0,4}(z2) as a decomposable row, added to W_2^(0), and
    # as a parity-odd row: the transposition test and the row's own clause
    # each name it
    mser, cors = p1
    U = mser.U
    E = U.field
    pf = ProductForm(U, 2)
    pf.add(E.one(), [xi_ratfn(E, U.zvar, 0, 2), xi_ratfn(E, U.zvar, 0, 4)])
    if k == 0:
        pf = cors.wn[(2, 0)] + pf
    report = verify_tt(mser, _with_two_point(cors, pf, k))
    got = {c: v["witnesses"] for c, v in report["clauses"].items()
           if v["witnesses"]}
    swap = {"n": 2, "k": k, "perm": [1, 0],
            "reason": "not symmetric under the transposition"}
    own = {"n": 2, "k": k, "reason": reason}
    want = {"2": [swap, own]} if clause == "2" else {"2": [swap],
                                                    clause: [own]}
    assert got == want
    assert not report["pass"]


def test_verify_tt_witnesses_a_nonzero_row_below_leading_order(p1):
    # W_4^(0) = xi_{0,2}^(x4): symmetric, of even parity, and nonzero,
    # though W_n^(k) vanishes for k < n - 2; only clause 5 names it
    mser, cors = p1
    U = mser.U
    E = U.field
    pf = ProductForm(U, 4)
    pf.add(E.one(), [xi_ratfn(E, U.zvar, 0, 2)] * 4)
    wn = dict(cors.wn)
    wn[(4, 0)] = pf
    report = verify_tt(mser, CorrelatorSeries(U, cors.order, cors.nmax,
                                              cors.w1, wn))
    got = {c: v["witnesses"] for c, v in report["clauses"].items()
           if v["witnesses"]}
    assert got == {"5": [{"n": 4, "k": 0,
                          "reason": "nonzero below leading order"}]}
    assert not report["pass"]


# --- the tau function ------------------------------------------------------------


def test_hamiltonian_is_minus_dt_log_tau_at_genus_1():
    # H_2 = -dF_1/dt with F_1 = -(1/48) log t, so H_2 = 1/(48 t) exactly
    _, H = p1_system()
    flow = extend_flow(H, leading_order(H), 3)
    vals, one = flow_values(flow, 4)
    h2 = substitute(H, vals, one).coeff(2)
    assert h2 == parse_element("1/(48*t)", flow.field)


def test_hamiltonian_is_minus_dt_log_tau_at_genus_2():
    # H_4, the hbar^4 coefficient of H along the flow, equals -dF_2/dt
    iso, H = p1_system()
    lead = leading_order(H)
    flow = extend_flow(H, lead, 4)
    vals, one = flow_values(flow, 5)
    h4 = substitute(H, vals, one).coeff(4)
    U = uniformize(curve_from_system(iso, lead))
    tau = tau_series(eo_differentials(U, 2, 1))
    assert h4
    assert h4 == -tau.d_dt()[2]


def test_hamiltonian_is_minus_dt_log_tau_at_genus_3():
    # H_6 = -dF_3/dt, with F_3 = -245/(3538944 t^5) in closed form
    iso, H = p1_system()
    lead = leading_order(H)
    flow = extend_flow(H, lead, 6)
    vals, one = flow_values(flow, 7)
    h6 = substitute(H, vals, one).coeff(6)
    U = uniformize(curve_from_system(iso, lead))
    tau = tau_series(eo_differentials(U, 3, 1))
    assert tau.coeff(4) == parse_element("-245/(3538944*t^5)", U.field)
    assert h6 == -tau.d_dt()[4]


def _twobranch_tau():
    # F_2 = -1/60 on y^2 = (x-1)(x-3), the Gaussian-model value
    return tau_series(eo_differentials(curve_U("(x-1)*(x-3)"), 2, 1))


def test_tau_coeff_past_gmax_is_truncation():
    tau = _twobranch_tau()
    assert tau.coeff(2) == Fraction(-1, 60)
    with pytest.raises(TruncationTooShort):
        tau.coeff(4)


@pytest.mark.parametrize("power", [3, 1, -1, -2, 0])
def test_tau_coeff_odd_or_unstable_power_is_out_of_range(power):
    with pytest.raises(IndexOutOfRange):
        _twobranch_tau().coeff(power)
