"""Stages run at one time t0 by weighted homogeneity, against the tower.

Painleve I's recursion and determinantal side run over Q at t0 = -3/2,
where u = 1.  The tower path, taken by every curve and flow that is not
homogeneous, is the reference: patching grading.time_point to return None
forces it, for the recursion and for M alike, and each stage must give the
same result both ways.  m_series maps the flow to t0 before it builds the
curve, so it builds one curve and one uniformization on either path.
"""

import json
from fractions import Fraction

import pytest

from isorec import detcheck, grading, toprec
from isorec.errors import PlanMismatch
from isorec.exactmath import (QQ, FunctionField, parse_element,
                              partial_derivation)
from isorec.hamflow import extend_flow, leading_order
from isorec.isodeform import build_isosystem, scaling_plan
from isorec.laxsystem import Mat2, PoleData, SIGMA3, Sl2Lax
from isorec.spectralcurve import curve_from_system, uniformize

from test_detcheck import curve_U, p1_system
from test_isodeform import mat

Qt = FunctionField(QQ, "t")


def on_tower(fn, *args):
    """fn(*args) with every field refused a time point."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grading, "time_point", lambda E: None)
        return fn(*args)


def p1_curve():
    iso, H = p1_system()
    return uniformize(curve_from_system(iso, leading_order(H)))


@pytest.fixture(scope="module")
def p1_order3():
    """M through order 3, W_n for n <= 3 and the verify_tt report, each on
    both paths."""
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), 3)

    def chain():
        mser = detcheck.m_series(iso, flow, 3)
        cors = detcheck.correlators(mser, 3)
        return mser, cors, detcheck.verify_tt(mser, cors)
    return chain(), on_tower(chain)


# --- the recursion -------------------------------------------------------------

def test_p1_curve_weights():
    spec = grading.specialization(p1_curve())
    assert spec.weights == {"z": 1, "x": 2, "y": 3, "t": 4}
    assert spec.time.t0 == Fraction(-3, 2)
    assert spec.curve.field is QQ
    assert spec.curve.point == {"t": "-3/2", "u": "1"}


@pytest.mark.parametrize("gmax,nmax", [(2, 1), (3, 1)])
def test_p1_recursion_matches_tower(gmax, nmax):
    U = p1_curve()
    got = toprec.eo_differentials(U, gmax, nmax)
    assert got.U is U
    assert got.to_json() == on_tower(toprec.eo_differentials, U, gmax,
                                     nmax).to_json()


# the rows of "x - t" fix w_t; those of "(x-t)*(x-3*t)" leave it free, and
# it takes the unit 1
QT_WEIGHTS = {"x - t": {"z": 1, "x": 2, "y": 1, "t": 2},
              "(x-t)*(x-3*t)": {"z": 0, "x": 1, "y": 1, "t": 1}}


@pytest.mark.parametrize("q_text,gmax,nmax", [
    ("x - t", 1, 2),               # Q(t) without u, z of weight 1
    ("(x-t)*(x-3*t)", 1, 2),       # two branch points, z of weight 0
])
def test_homogeneous_qt_curves_match_tower(q_text, gmax, nmax):
    U = curve_U(q_text, Qt)
    assert grading.specialization(U).weights == QT_WEIGHTS[q_text]
    got = toprec.eo_differentials(U, gmax, nmax)
    assert got.to_json() == on_tower(toprec.eo_differentials, U, gmax,
                                     nmax).to_json()


def test_nonhomogeneous_curve_takes_the_tower_path():
    # y^2 = (x-1)^2 (x-t): y(z) = z^3 + (t-1) z, and t - 1 has no weight
    U = curve_U("(x-1)^2*(x-t)", Qt)
    assert grading.specialization(U) is None
    got = toprec.eo_differentials(U, 1, 2)
    assert got.to_json() == on_tower(toprec.eo_differentials, U, 1,
                                     2).to_json()


def test_curve_without_t_over_qt_is_graded():
    # Airy built over Q(t): no coefficient of x(z) or y(z) holds t, so t
    # takes weight 1, every nonzero coefficient has weight 0, and the run at
    # t0 = 1 gives the tables of the tower run and of the curve over Q
    U = curve_U("x", Qt)
    spec = grading.specialization(U)
    assert spec.weights == {"z": 1, "x": 2, "y": 1, "t": 1}
    assert spec.time.t0 == 1 and spec.curve.field is QQ
    got = toprec.eo_differentials(U, 1, 2).to_json()
    assert got == on_tower(toprec.eo_differentials, U, 1, 2).to_json()
    assert got["omegas"] == toprec.eo_differentials(
        curve_U("x"), 1, 2).to_json()["omegas"]


@pytest.mark.parametrize("q_text", [
    "x*(x-1)^2",  # y(z) = z^3 - z, no t: y cannot have weights 3 and 1
    # x(z) = t^2 - (z + 1/z)/2: w_x is 2 w_t and 0, so the rows force
    # w_t = 0, which the unit row w_t = 1 contradicts
    "(x-t^2+1)*(x-t^2-1)",
])
def test_curve_whose_weights_have_no_solution_is_not_graded(q_text):
    assert grading.specialization(curve_U(q_text, Qt)) is None


def test_curve_whose_weights_leave_t_free_is_graded():
    # y^2 = t x over Q(t)[u], u^2 = t: y(z) = u z, so the rows fix only
    # w_y - w_t/2; the unit w_t = 1 grades it, and the run at t0 = 1 gives
    # the tables of the tower run
    U = curve_U("t*x", Qt)
    spec = grading.specialization(U)
    assert spec.weights == {"z": 1, "x": 2, "y": Fraction(3, 2), "t": 1}
    assert spec.time.t0 == 1 and spec.curve.field is QQ
    assert toprec.eo_differentials(U, 2, 1).to_json() == on_tower(
        toprec.eo_differentials, U, 2, 1).to_json()


def test_solve_weights_declines_rows_that_contradict_or_leave_one_free():
    one = Fraction(1)
    assert grading.solve_weights([({"x": one}, one),
                                  ({"x": one, "y": one}, 3 * one)]) == {
        "x": 1, "y": 2}
    assert grading.solve_weights([({"x": one}, one),
                                  ({"x": 2 * one}, one)]) is None
    assert grading.solve_weights([({"x": one, "y": one}, one)]) is None


# --- the determinantal side ------------------------------------------------------

def test_p1_m_series_runs_over_q(p1_order3):
    (mser, cors, _), (tower, tower_cors, _) = p1_order3
    assert mser.U.field is QQ
    assert mser.grading is not None and tower.grading is None
    point = {"t": "-3/2", "u": "1"}
    assert mser.to_json()["point"] == cors.to_json()["point"] == point
    assert tower.to_json()["point"] is tower_cors.to_json()["point"] is None


def test_p1_m_series_curve_is_the_specialized_tower_curve(p1_order3):
    (mser, _, _), _ = p1_order3
    want = grading.specialization(p1_curve()).curve
    got = mser.U
    assert (got.kind, got.a, got.b, got.x, got.y) == (
        want.kind, want.a, want.b, want.x, want.y)
    assert got.point == want.point


def test_p1_flow_and_curve_weights_agree(p1_order3):
    # hbar has weight 1 along the flow and w_x + w_y on the curve, so each
    # curve weight is w_x + w_y times the flow's, with y <-> L: verify_tt
    # compares rows at t0 on this relation
    (mser, _, _), _ = p1_order3
    flow = mser.grading.weights
    curve = grading.specialization(p1_curve()).weights
    assert (flow["x"], flow["L"], flow["t"]) == (
        Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
    assert (curve["x"], curve["y"], curve["t"]) == (2, 3, 4)
    hbar = curve["x"] + curve["y"]
    for f, c in (("x", "x"), ("L", "y"), ("t", "t")):
        assert flow[f] * hbar == curve[c]


def test_p1_m_series_is_the_tower_series_at_t0(p1_order3):
    (mser, _, _), (tower, _, _) = p1_order3
    at = mser.grading.time.ratfn_at
    for mine, theirs in ((mser.mats, tower.mats), (mser.lax, tower.lax),
                         (mser.ahat, tower.ahat)):
        assert len(mine) == len(theirs) == 4
        for m, t in zip(mine, theirs):
            for e, f in zip(m.entries(), t.entries()):
                assert e == at(f)


def test_p1_tower_m_solves_its_t_equation_through_order_3(p1_order3):
    # beta dt M^(k-1) = sum_{j<=k} [A-hat^(k-j), M^(j)] on the tower, with
    # dt at fixed x by the chain rule on the z-line: d/dt at fixed z minus
    # (d_t x(z) / x'(z)) d/dz
    _, (tower, _, _) = p1_order3
    U = tower.U
    d = partial_derivation(U.field, "t")
    drift = U.x.tderiv(d) / U.dx

    def dt(e):
        return e.tderiv(d) - drift * e.deriv()
    for k in range(1, 4):
        res = tower.mats[k - 1].map(lambda e: dt(e) * tower.beta)
        for j in range(k + 1):
            res = res - tower.ahat[k - j].commutator(tower.mats[j])
        assert not res, k


def test_p1_verify_tt_report_matches_tower(p1_order3):
    (_, _, report), (_, _, tower_report) = p1_order3
    assert json.dumps(report, sort_keys=True) == json.dumps(tower_report,
                                                            sort_keys=True)
    assert report["tr_equality"]["0,3"]["pass"]


@pytest.mark.parametrize("tower", [False, True])
def test_p1_m_series_builds_one_curve(monkeypatch, tower):
    # the flow is mapped to t0 first, so neither path builds a curve only
    # to learn the time
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), 1)
    calls = []
    for name in ("classical_curve", "uniformize"):
        fn = getattr(detcheck, name)
        monkeypatch.setattr(detcheck, name, lambda *args, fn=fn, name=name:
                            calls.append(name) or fn(*args))
    if tower:
        monkeypatch.setattr(grading, "time_point", lambda E: None)
    mser = detcheck.m_series(iso, flow, 1)
    assert calls == ["classical_curve", "uniformize"]
    assert (mser.grading is None) == tower


# --- guards ------------------------------------------------------------------------

def test_restore_of_a_weight_no_monomial_has_is_refused():
    spec = grading.specialization(p1_curve())
    E = spec.time.field
    # weights are multiples of 2 (u); 6 is u t, -8 is 1/t^2
    assert spec.restore(Fraction(5), 6) == parse_element("(-10/3)*u*t", E)
    assert spec.restore(Fraction(1), -8) == parse_element("(9/4)/t^2", E)
    assert spec.restore(Fraction(0), 1) == E.zero()
    with pytest.raises(PlanMismatch):
        spec.restore(Fraction(1), 1)


def test_hbar_d_dx_of_another_weight_than_l_raises(monkeypatch):
    # the correlators would carry other weights than omega_{g,n}
    iso, H = p1_system()
    flow = extend_flow(H, leading_order(H), 1)
    solve = grading.solve_weights

    def shifted(rows):
        w = solve(rows)
        return dict(w, L=w["L"] + 1)
    monkeypatch.setattr(grading, "solve_weights", shifted)
    with pytest.raises(PlanMismatch, match="hbar d/dx"):
        detcheck.m_series(iso, flow, 1)


@pytest.fixture(scope="module")
def p1_grading_args():
    """The arguments m_series gives flow_grading for P1 at order 2: the
    system, L^(k), A-hat^(k) and beta."""
    iso, H = p1_system()
    seen = []
    grade = grading.flow_grading
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grading, "flow_grading",
                   lambda *args: seen.append(args) or grade(*args))
        detcheck.m_series(iso, extend_flow(H, leading_order(H), 2), 2)
    assert grading.flow_grading(*seen[0]) is not None
    return seen[0]


def _spy(monkeypatch, name):
    """The return values of grading.<name>, recorded as it is called."""
    out = []
    fn = getattr(grading, name)
    monkeypatch.setattr(grading, name,
                        lambda *args: out.append(fn(*args)) or out[-1])
    return out


def test_flow_grading_declines_a_plan_without_time_weight(p1_grading_args):
    # the Fuchsian moving-pole system: its time is a pole position, and
    # scaling_plan gives it weight d_t = 0
    F = QQ
    m1 = mat(F, (("1", "2"), ("3", "-1")))
    m2 = mat(F, (("0", "1"), ("1", "0")))
    m3 = -(Mat2.sigma3(F.one(), F.zero()) + m1 + m2)
    pd = PoleData((Fraction(0), Fraction(1), Fraction(2)), (1, 1, 1), -1,
                  SIGMA3)
    iso = build_isosystem(Sl2Lax(F, pd, {(1, 1): m1, (2, 1): m2,
                                         (3, 1): m3}))
    assert not scaling_plan(iso.lax.poles, iso.case).d_t
    _, lax, ahat, beta = p1_grading_args
    assert grading.flow_grading(iso, lax, ahat, beta) is None


def test_flow_grading_declines_a_coefficient_that_is_no_monomial(
        p1_grading_args, monkeypatch):
    # 1 + t in the constant coefficient of L^(1)'s first entry
    iso, lax, ahat, beta = p1_grading_args
    a, b, c, d = lax[1].entries()
    lax = [lax[0], Mat2(a + parse_element("1 + t", beta.field), b, c, d),
           lax[2]]
    rows = _spy(monkeypatch, "term_rows")
    assert grading.flow_grading(iso, lax, ahat, beta) is None
    assert rows[-1] is None


def test_flow_grading_declines_weights_that_contradict(p1_grading_args,
                                                       monkeypatch):
    # one entry of L^(2) times t: every coefficient is a monomial, but no
    # weights make all of them homogeneous
    iso, lax, ahat, beta = p1_grading_args
    a, b, c, d = lax[2].entries()
    lax = [lax[0], lax[1], Mat2(a, b * parse_element("t", beta.field), c, d)]
    rows = _spy(monkeypatch, "term_rows")
    weights = _spy(monkeypatch, "solve_weights")
    assert grading.flow_grading(iso, lax, ahat, beta) is None
    # the rows contradict, and so do they with the unit row w_t = 1
    assert None not in rows and weights == [None, None]
