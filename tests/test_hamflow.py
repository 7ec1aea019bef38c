import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorec.errors import (InvalidHamiltonian, SingularHessian,
                           UnsolvableInTower)
from isorec.exactmath import QQ, FunctionField, parse_element, poly_gcd
from isorec.hamflow import (extend_flow, energy_drift, hamilton_residuals,
                            leading_order)

from test_detcheck import p1_system


def tower(*names):
    f = QQ
    for name in names:
        f = FunctionField(f, name)
    return f


def pq_field():
    return tower("t", "q", "p")


def h_painleve1(F=None):
    # flow-side sign: h q' = dH/dp gives q' = -4p etc.
    return parse_element("-2*p^2 + 2*q^3 + 4*t*q", F or pq_field())


def h_painleve2(F=None):
    F = F or pq_field()
    P = parse_element("p - q^2", F)
    t = parse_element("t", F)
    q = parse_element("q", F)
    two = F.coerce(2)
    return -(two * (P + two * t) ** 2) - two * two * q * q * P


# --- leading order ----------------------------------------------------------


def test_leading_order_painleve1_extension():
    lead = leading_order(h_painleve1())
    E = lead.field
    base = E.base
    assert lead.modulus == parse_element("-2/3*t", base)
    assert lead.q0 == parse_element("u", E)
    assert not lead.p0
    assert lead.root == "plus"


def test_leading_order_respects_root_choice():
    plus = leading_order(h_painleve1(), root="plus")
    minus = leading_order(h_painleve1(), root="minus")
    assert minus.q0 == -parse_element("u", minus.field)
    assert plus.q0 == -minus.q0 or plus.field is not minus.field


def test_leading_order_painleve2_is_rational():
    lead = leading_order(h_painleve2())
    assert lead.modulus is None
    assert lead.field.var == "t"
    assert lead.p0 == parse_element("-2*t", lead.field)
    assert not lead.q0


def test_leading_order_origin():
    F = pq_field()
    H = parse_element("p^2 + q^2", F)
    lead = leading_order(H)
    assert not lead.p0 and not lead.q0
    assert lead.modulus is None


def test_leading_order_no_critical_point():
    F = pq_field()
    with pytest.raises(UnsolvableInTower):
        leading_order(parse_element("p", F))


def test_leading_order_refuses_a_momentum_with_a_pole_at_the_point():
    # dH/dp = q^2 p + q gives p = -1/q, and dH/dq there is 2q: q0 = 0
    H = parse_element("q^2*p^2/2 + q*p + q^2", pq_field())
    with pytest.raises(UnsolvableInTower, match="momentum has a pole"):
        leading_order(H)


def test_leading_order_refuses_higher_degree():
    F = pq_field()
    with pytest.raises(UnsolvableInTower):
        leading_order(parse_element("p^3 + q^3 + p*q", F))


def test_leading_order_critical_curve():
    F = pq_field()
    with pytest.raises(UnsolvableInTower):
        leading_order(parse_element("p^2", F))


@pytest.mark.parametrize("text,reason", [
    ("-2*p^2 + q", "has no root"),
    ("-2*p^2 + q^5/5 + t*q", "within one quadratic extension")])
def test_leading_order_refuses_a_critical_equation_without_roots(text,
                                                                reason):
    # dH/dq at the eliminated p is the constant 1, or q^4 + t
    with pytest.raises(UnsolvableInTower, match=reason):
        leading_order(parse_element(text, pq_field()))


def test_leading_order_refuses_h_linear_in_p():
    # the Hamiltonians of sl2 Lax systems are quadratic in p = L11(q)
    with pytest.raises(UnsolvableInTower, match="degree 0 in p"):
        leading_order(parse_element("p*q - t*p + q^2", pq_field()))


@pytest.mark.parametrize("text,names,reason", [
    ("t^2 + 1", ("t",), "tower over the time field"),
    ("1/p + q", ("t", "q", "p"), "polynomial in the Darboux pair")])
def test_leading_order_refuses_what_is_no_hamiltonian(text, names, reason):
    with pytest.raises(InvalidHamiltonian, match=reason):
        leading_order(parse_element(text, tower(*names)))


# --- order-by-order corrections ----------------------------------------------


def p1_flow(order=4, root="plus"):
    H = h_painleve1()
    lead = leading_order(H, root=root)
    return H, extend_flow(H, lead, order)


def test_extend_flow_painleve1_frozen_orders():
    # u' = u/(2t) drives the ladder: p1 = -u/(8t), q2 = -1/(192 t^2),
    # p3 = -1/(384 t^3); odd q and even p corrections vanish
    H, flow = p1_flow(4)
    E = flow.field
    want_q = ["u", "0", "-1/192*t^-2", "0", "49/49152*u*t^-5"]
    want_p = ["0", "-1/8*u*t^-1", "0", "-1/384*t^-3", "0"]
    for k, (wq, wp) in enumerate(zip(want_q, want_p)):
        assert flow.q.coeff(k) == parse_element(wq, E), k
        assert flow.p.coeff(k) == parse_element(wp, E), k


def test_flow_parity_painleve1():
    H, flow = p1_flow(6)
    for k in range(1, 7, 2):
        assert not flow.q.coeff(k)
    for k in range(0, 7, 2):
        assert not flow.p.coeff(k)


def test_extend_flow_painleve2_frozen_orders():
    H = h_painleve2()
    lead = leading_order(H)
    flow = extend_flow(H, lead, 3)
    E = flow.field
    want_q = ["0", "1/8*t^-1", "0", "3/1024*t^-4"]
    want_p = ["-2*t", "0", "1/32*t^-2", "0"]
    for k, (wq, wp) in enumerate(zip(want_q, want_p)):
        assert flow.q.coeff(k) == parse_element(wq, E), k
        assert flow.p.coeff(k) == parse_element(wp, E), k


def test_extend_flow_order_zero_is_constant():
    H, flow = p1_flow(0)
    assert flow.q.prec == 1
    assert flow.q.coeff(0) == flow.lead.q0


def test_singular_hessian_rejected():
    F = pq_field()
    H = parse_element("p^2 + q^3", F)
    lead = leading_order(H)
    assert not lead.q0
    with pytest.raises(SingularHessian):
        extend_flow(H, lead, 2)


# --- invariants ---------------------------------------------------------------


def test_hamilton_residuals_vanish_painleve1():
    H, flow = p1_flow(5)
    r1, r2 = hamilton_residuals(H, flow)
    assert not r1
    assert not r2
    assert r1.prec == 6


def test_hamilton_residuals_vanish_painleve2():
    H = h_painleve2()
    flow = extend_flow(H, leading_order(H), 4)
    r1, r2 = hamilton_residuals(H, flow)
    assert not r1 and not r2


def test_hamilton_residuals_catch_wrong_flow():
    H, flow = p1_flow(3)
    bad = extend_flow(H, flow.lead, 3)
    bad.p.coeffs[1] = bad.p.coeffs[1] + flow.field.one()
    r1, _ = hamilton_residuals(H, bad)
    assert r1


def test_energy_drift_vanishes():
    H, flow = p1_flow(5)
    drift = energy_drift(H, flow)
    assert not drift
    assert drift.prec == 5


def test_energy_conserved_without_explicit_time():
    F = pq_field()
    H = parse_element("p^2 + q^2 + q^3", F)
    flow = extend_flow(H, leading_order(H), 4)
    # autonomous Hamiltonian, critical point in Q: the whole flow is constant
    for k in range(1, 5):
        assert not flow.q.coeff(k) and not flow.p.coeff(k)
    assert not energy_drift(H, flow)


def test_energy_conserved_with_no_time_variable():
    # H over Q(q)(p): the flow runs over Q, and H has no t to differentiate
    H = parse_element("p^2 + q^2 + q^3", tower("q", "p"))
    flow = extend_flow(H, leading_order(H), 4)
    assert flow.field is QQ
    assert not energy_drift(H, flow)


def test_painleve1_curve_degenerates_at_leading_order():
    # the h -> 0 spectral polynomial (x - u)^2 (x + 2u) keeps a double root
    H, flow = p1_flow(2)
    E = flow.field
    curve_field = FunctionField(E, "x")
    x = parse_element("x", curve_field)
    u = curve_field.coerce(parse_element("u", E))
    two_t = curve_field.coerce(parse_element("2*t", E))
    # -det of the Lax matrix at (p, q) = (p0, q0): b-entry times c-entry
    Q = (x * x + u * x + u * u + two_t) * (x - u)
    two = curve_field.coerce(2)
    assert Q == (x - u) ** 2 * (x + two * u)
    Qp = Q.num
    assert poly_gcd(Qp, Qp.deriv()).degree() == 1


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1,
                max_size=3))
def test_quadratic_wells_follow_their_center(coeffs):
    # H = p^2 + (q - f(t))^2 pins q0 = f; the ladder gives q2 = -f''/4
    E = tower("t")
    t = parse_element("t", E)
    f0 = E.zero()
    for c in reversed(coeffs):
        f0 = f0 * t + E.coerce(c)
    F = pq_field()
    q = parse_element("q", F)
    p = parse_element("p", F)
    f = F.coerce(f0)
    H = p * p + (q - f) * (q - f)
    lead = leading_order(H)
    flow = extend_flow(H, lead, 3)
    assert flow.q.coeff(0) == f0
    assert not flow.q.coeff(1)
    d2f = E.diff(E.diff(f0))
    assert flow.q.coeff(2) == -d2f / E.coerce(4)
    r1, r2 = hamilton_residuals(H, flow)
    assert not r1 and not r2


def test_flow_solves_zero_curvature_painleve1():
    # the full circle: the flow makes h dL/dt - h dA/dx - [A, L] vanish
    from isorec.isodeform import compatibility_residual

    iso, _ = p1_system()
    H, flow = p1_flow(3)
    res = compatibility_residual(iso, flow, 3)
    assert not res
    # a doctored flow leaves a visible residual at its own order
    bad = extend_flow(H, flow.lead, 3)
    bad.q.coeffs[2] = bad.q.coeffs[2] + flow.field.one()
    assert compatibility_residual(iso, bad, 3)


# --- serialization -------------------------------------------------------------


def test_flow_json_roundtrips():
    H, flow = p1_flow(3)
    blob = flow.to_json()
    assert blob["order"] == 3
    assert blob["extension"]["name"] == "u"
    assert blob["extension"]["root"] == "plus"
    E = flow.field
    base = E.base
    assert parse_element(blob["extension"]["square"], base) == \
        parse_element("-2/3*t", base)
    for k, s in enumerate(blob["q"]):
        assert parse_element(s, E) == flow.q.coeff(k)
    for k, s in enumerate(blob["p"]):
        assert parse_element(s, E) == flow.p.coeff(k)


def test_flow_json_rational_case():
    H = h_painleve2()
    flow = extend_flow(H, leading_order(H), 2)
    blob = flow.to_json()
    assert blob["extension"] is None
    assert blob["p"][0] == flow.field.to_str(flow.p.coeff(0))
