"""Lax-matrix layer: assembly, invariants, flows, Darboux charts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isorec import laxsystem
from isorec.errors import (DegenerateOrbit, IndexOutOfRange,
                           InvalidPoleStructure, PoleCollision)
from isorec.exactmath import (FunctionField, HbarSeries, Poly, QQ, RatFn,
                              parse_element)
from isorec.laxsystem import (HamiltonianSet, Mat2, PoleData, SIGMA3,
                              SIGMA_PLUS, Sl2Lax, assemble, auxiliary_matrix,
                              darboux, hamiltonians)


def tower(*names):
    F = QQ
    for n in names:
        F = FunctionField(F, n)
    return F


def mat(field, rows):
    """2x2 matrix of field elements parsed from strings."""
    (a, b), (c, d) = rows
    return Mat2(*(parse_element(s, field) for s in (a, b, c, d)))


def painleve1(field=None):
    """The quadratic Lax matrix [[p, x^2+qx+q^2+2t],[x-q, -p]] in
    coefficient form."""
    F = field or tower("t", "q", "p")
    coeffs = {
        (0, 2): mat(F, (("0", "1"), ("0", "0"))),
        (0, 1): mat(F, (("0", "q"), ("1", "0"))),
        (0, 0): mat(F, (("p", "q^2 + 2*t"), ("-q", "-p"))),
    }
    return Sl2Lax(F, PoleData((), (), 2, SIGMA_PLUS), coeffs)


# --- assembly ---------------------------------------------------------------


def test_assemble_painleve1():
    sys = painleve1()
    F = sys.field
    L = assemble(sys)
    x = RatFn.gen(F, "x")
    p, q, t = (parse_element(s, F) for s in ("p", "q", "t"))
    assert L.a == RatFn.const(F, p, "x")
    assert L.b == x ** 2 + q * x + q * q + 2 * t
    assert L.c == x - q
    assert L.d == -L.a
    assert not (L.a + L.d)


def test_assemble_constant_sigma3():
    F = QQ
    m = Mat2.sigma3(F.one(), F.zero())
    sys = Sl2Lax(F, PoleData((), (), 0, SIGMA3), {(0, 0): m})
    L = assemble(sys)
    assert L.a == RatFn.one(QQ, "x") and L.d == -L.a
    assert not L.b and not L.c


def fuchsian3(points=(0, 1, 2)):
    F = QQ
    L1 = mat(F, (("1", "2"), ("3", "-1")))
    L2 = mat(F, (("0", "1"), ("1", "0")))
    # residues must sum to -sigma3
    L3 = -(Mat2.sigma3(F.one(), F.zero()) + L1 + L2)
    pd = PoleData(tuple(Fraction(p) for p in points), (1, 1, 1), -1, SIGMA3)
    return Sl2Lax(F, pd, {(1, 1): L1, (2, 1): L2, (3, 1): L3})


def test_assemble_fuchsian_three_poles():
    sys = fuchsian3()
    L = assemble(sys)
    assert not (L.a + L.d)
    # trace-free with three simple poles; residue at infinity is sigma3
    lead = sys.leading()
    assert lead == Mat2.sigma3(QQ.one(), QQ.zero())
    # b-entry has a nonzero residue at every declared pole
    assert L.b.den.degree() == 3
    for a in sys.poles.points:
        assert not L.b.den(a)
    # a-entry residue vanishes at x=1 (L2 has zero diagonal), so it reduces
    assert L.a.den.degree() == 2


def test_pole_collision_rejected():
    with pytest.raises(PoleCollision):
        PoleData((Fraction(1), Fraction(1)), (1, 1), 0, SIGMA3)


@pytest.mark.parametrize("points, orders, r0, kind, message", [
    ((Fraction(0),), (1, 2), 0, SIGMA3, "one order per pole point"),
    ((Fraction(0),), (0,), 0, SIGMA3, "finite pole orders must be >= 1"),
    ((), (), -2, SIGMA3, "infinity order must be >= -1"),
    ((), (), 1, "sigma1", "leading kind must be"),
])
def test_pole_data_refuses_bad_layouts(points, orders, r0, kind, message):
    with pytest.raises(InvalidPoleStructure, match=message):
        PoleData(points, orders, r0, kind)


def test_sl2lax_refuses_a_coefficient_with_trace():
    F = tower("q")
    with pytest.raises(InvalidPoleStructure, match="not trace-free"):
        Sl2Lax(F, PoleData((), (), 1, SIGMA_PLUS),
               {(0, 1): mat(F, (("1", "q"), ("0", "0")))})


# --- hamiltonians -----------------------------------------------------------


def test_hamiltonians_generic_quadratic():
    F = tower("u0", "v0", "w0", "u1", "v1", "w1")
    coeffs = {
        (0, 2): mat(F, (("0", "1"), ("0", "0"))),
        (0, 1): mat(F, (("u1", "v1"), ("w1", "-u1"))),
        (0, 0): mat(F, (("u0", "v0"), ("w0", "-u0"))),
    }
    sys = Sl2Lax(F, PoleData((), (), 2, SIGMA_PLUS), coeffs)
    H = hamiltonians(sys)
    expect = {
        (0, 0): "2*(u0^2 + v0*w0)",
        (0, 1): "2*(2*u1*u0 + v1*w0 + w1*v0)",
        (0, 2): "2*(w0 + u1^2 + v1*w1)",
        (0, 3): "2*w1",
    }
    assert set(H.entries) == set(expect)
    for key, s in expect.items():
        assert H.value(*key) == parse_element(s, F), key


def test_hamiltonians_constant_sigma3():
    F = QQ
    m = Mat2.sigma3(F.one(), F.zero())
    sys = Sl2Lax(F, PoleData((), (), 0, SIGMA3), {(0, 0): m})
    H = hamiltonians(sys)
    assert H.entries == {(0, 0): Fraction(2)}


def test_hamiltonian_darboux_painleve1():
    sys = painleve1()
    H = hamiltonians(sys)
    expect = parse_element("2*p^2 - 2*q^3 - 4*t*q", sys.field)
    assert H.value(0, 0) == expect


def test_reassembly_invariant():
    for sys in (painleve1(), fuchsian3()):
        L = assemble(sys)
        H = hamiltonians(sys)
        assert H.reassemble() == (L * L).trace()


def test_hamiltonians_and_darboux_take_fraction_points_over_a_function_field():
    # partial_fractions and roots_in_field return the poles as field
    # elements, which hash unlike the Fractions they equal
    F = tower("t", "q")
    L1 = mat(F, (("q", "1"), ("t", "-q")))
    L2 = -(Mat2.sigma3(F.one(), F.zero()) + L1)
    got = []
    for points in ((Fraction(0), Fraction(1)), (F.coerce(0), F.coerce(1))):
        pd = PoleData(points, (1, 1), -1, SIGMA3)
        got.append(hamiltonians(Sl2Lax(F, pd, {(1, 1): L1, (2, 1): L2})))
    assert sorted(got[0].entries) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert got[0].entries == got[1].entries
    # the (2,1) zero of test_darboux_skips_a_zero_on_a_pole_and_counts_the_rest
    # sits on the pole Fraction(0) over Q(t) too
    F = tower("t")
    mats = [mat(F, rows) for rows in ((("1", "2"), ("0", "-1")),
                                      (("0", "1"), ("1", "0")),
                                      (("0", "1"), ("-4", "0")))]
    last = -(Mat2.sigma3(F.one(), F.zero()) + mats[0] + mats[1] + mats[2])
    pd = PoleData(tuple(Fraction(k) for k in range(4)), (1,) * 4, -1, SIGMA3)
    sys = Sl2Lax(F, pd, {(1, 1): mats[0], (2, 1): mats[1], (3, 1): mats[2],
                         (4, 1): last})
    with pytest.raises(DegenerateOrbit, match="found 0 chart points"):
        darboux(sys)


# --- casimir classification --------------------------------------------------


def test_classify_painleve1():
    flags = hamiltonians(painleve1()).classify()
    assert flags[(0, 2)] == "casimir"
    assert flags[(0, 3)] == "casimir"
    assert flags[(0, 0)] == "dynamical"
    assert flags[(0, 1)] == "dynamical"


def test_classify_simple_finite_pole():
    F = QQ
    pd = PoleData((Fraction(0),), (1,), -1, SIGMA3)
    sys = Sl2Lax(F, pd, {(1, 1): -Mat2.sigma3(F.one(), F.zero())})
    # single pole balancing the residue at infinity
    H = hamiltonians(sys)
    flags = H.classify()
    assert flags == {(1, 1): "dynamical", (1, 2): "casimir"}


def test_classify_flags_an_entry_outside_the_windows_dynamical():
    # no finite pole is declared, so no window holds the key (1, 1)
    pd = PoleData((), (), 1, SIGMA3)
    flags = HamiltonianSet(QQ, pd, {(0, 2): 1, (1, 1): 1}).classify()
    assert flags == {(0, 0): "dynamical", (0, 1): "casimir",
                     (0, 2): "casimir", (1, 1): "dynamical"}


def test_classify_fuchsian_four_poles_dynamical_count():
    F = QQ
    mats = [mat(F, (("1", "2"), ("3", "-1"))),
            mat(F, (("0", "1"), ("1", "0"))),
            mat(F, (("2", "1"), ("-1", "-2")))]
    last = -(Mat2.sigma3(F.one(), F.zero()) + mats[0] + mats[1] + mats[2])
    pd = PoleData(tuple(Fraction(k) for k in (0, 1, 2, 3)), (1, 1, 1, 1),
                  -1, SIGMA3)
    sys = Sl2Lax(F, pd, {(1, 1): mats[0], (2, 1): mats[1], (3, 1): mats[2],
                         (4, 1): last})
    H = hamiltonians(sys)
    assert list(H.classify().values()).count("dynamical") == 4


# --- lax flows preserve the invariants ---------------------------------------


def first_order_deformation(sys, nu, i):
    """Tr((L + eps [A, L])^2) expanded exactly to first order in a
    nilpotent eps, via a two-term truncated series."""
    L = assemble(sys)
    A = auxiliary_matrix(sys, nu, i)
    B = A.commutator(L)
    zero = RatFn.zero(sys.field, sys.var)
    jet = Mat2(*(HbarSeries(0, [l, b], 2, zero)
                 for l, b in zip(L.entries(), B.entries())))
    return (jet * jet).trace()


def test_flow_preserves_trace_invariant_painleve1():
    sys = painleve1()
    t2 = first_order_deformation(sys, 0, 0)
    assert t2.coeff(0) == (assemble(sys) * assemble(sys)).trace()
    assert not t2.coeff(1)


def test_flow_preserves_trace_invariant_fuchsian():
    sys = fuchsian3()
    for nu in (1, 2, 3):
        t2 = first_order_deformation(sys, nu, 1)
        assert not t2.coeff(1)


# --- auxiliary matrices -------------------------------------------------------


def test_auxiliary_painleve1_base():
    sys = painleve1()
    F = sys.field
    A = auxiliary_matrix(sys, 0, 0)
    x = RatFn.gen(F, "x")
    q = parse_element("q", F)
    # 2 (sigma_plus x + L_{0,1})
    assert A.a == RatFn.zero(F, "x")
    assert A.b == 2 * x + 2 * q
    assert A.c == RatFn.const(F, F.coerce(2), "x")


def test_auxiliary_simple_pole():
    sys = fuchsian3()
    A = auxiliary_matrix(sys, 1, 1)
    x = RatFn.gen(QQ, "x")
    L11 = sys.coeff(1, 1)
    assert A == L11.map(lambda e: -2 * e / x)


def test_auxiliary_index_errors():
    sys = painleve1()
    with pytest.raises(IndexOutOfRange):
        auxiliary_matrix(sys, 0, 2)
    with pytest.raises(IndexOutOfRange):
        auxiliary_matrix(sys, 1, 1)


# --- darboux charts -----------------------------------------------------------


def test_darboux_painleve1():
    sys = painleve1()
    q, p = (parse_element(s, sys.field) for s in ("q", "p"))
    assert darboux(sys) == [(q, p)]


def test_darboux_painleve2_form():
    # generic x^2 system with entry (2,1) monic in x
    F = tower("u0", "v0", "w0", "v1")
    coeffs = {
        (0, 2): mat(F, (("1", "0"), ("0", "-1"))),
        (0, 1): mat(F, (("0", "v1"), ("1", "0"))),
        (0, 0): mat(F, (("u0", "v0"), ("w0", "-u0"))),
    }
    sys = Sl2Lax(F, PoleData((), (), 2, SIGMA3), coeffs)
    chart = darboux(sys)
    assert len(chart) == 1
    q, p = chart[0]
    assert q == parse_element("-w0", F)
    assert p == q * q + parse_element("u0", F)


def test_darboux_degenerate():
    F = QQ
    sys = Sl2Lax(F, PoleData((), (), 1, SIGMA3),
                 {(0, 1): Mat2.sigma3(F.one(), F.zero())})
    with pytest.raises(DegenerateOrbit):
        darboux(sys)


def test_darboux_skips_a_zero_on_a_pole_and_counts_the_rest():
    # the (2,1) entries 0, 1, -4, 3 at x = 0, 1, 2, 3 give
    # L21 = 2x / ((x-1)(x-2)(x-3)): its one zero sits on the pole at 0, and
    # the structure demands r0 + 4 - 1 = 2 chart points
    F = QQ
    mats = [mat(F, rows) for rows in ((("1", "2"), ("0", "-1")),
                                      (("0", "1"), ("1", "0")),
                                      (("0", "1"), ("-4", "0")))]
    last = -(Mat2.sigma3(F.one(), F.zero()) + mats[0] + mats[1] + mats[2])
    pd = PoleData(tuple(Fraction(k) for k in range(4)), (1,) * 4, -1, SIGMA3)
    sys = Sl2Lax(F, pd, {(1, 1): mats[0], (2, 1): mats[1], (3, 1): mats[2],
                         (4, 1): last})
    assert assemble(sys).c.num == Poly(QQ, [0, 2])
    with pytest.raises(DegenerateOrbit, match="found 0 chart points"):
        darboux(sys)


def hamiltonians_of_a_matrix_with_a_tail(monkeypatch):
    # the assembled matrix, and so Tr L^2, picks up a pole at x = 5
    def assemble_with_tail(system):
        L = assemble(system)
        x = RatFn.gen(system.field, system.var)
        return Mat2(L.a + 1 / (x - 5), L.b, L.c, L.d - 1 / (x - 5))
    monkeypatch.setattr(laxsystem, "assemble", assemble_with_tail)
    return hamiltonians(fuchsian3())


def quadratic_c_entry():
    # L21 = (x - 1)^2: its zero x = 1 is double
    F = QQ
    coeffs = {(0, 3): mat(F, (("0", "1"), ("0", "0"))),
              (0, 2): mat(F, (("0", "0"), ("1", "0"))),
              (0, 1): mat(F, (("0", "0"), ("-2", "0"))),
              (0, 0): mat(F, (("0", "0"), ("1", "0")))}
    return Sl2Lax(F, PoleData((), (), 3, SIGMA_PLUS), coeffs)


@pytest.mark.parametrize("call, error, match", [
    (lambda mp: painleve1().coeff(0, 3), IndexOutOfRange,
     "no polynomial coefficient"),
    (lambda mp: fuchsian3().coeff(4, 1), IndexOutOfRange, "no finite pole"),
    (lambda mp: fuchsian3().coeff(1, 2), IndexOutOfRange, "has order 1"),
    (lambda mp: auxiliary_matrix(fuchsian3(), 1, 2), IndexOutOfRange,
     "flow index"),
    (hamiltonians_of_a_matrix_with_a_tail, InvalidPoleStructure,
     "outside the declared structure"),
    (lambda mp: darboux(quadratic_c_entry()), DegenerateOrbit, "multiple zero"),
])
def test_laxsystem_refuses(monkeypatch, call, error, match):
    with pytest.raises(error, match=match):
        call(monkeypatch)


def test_darboux_chart_identities():
    sys = painleve1()
    L = assemble(sys)
    for q, p in darboux(sys):
        assert not L.c(q)
        # (p - L11)(p - L22) - L12 L21 at x = q
        det = (p - L.a(q)) * (p - L.d(q)) - L.b(q) * L.c(q)
        assert not det


COMMUTATOR_SCALARS = {
    "Q": (QQ, ["0", "1", "-2", "3/5", "-7/4"]),
    "Q(t)": (tower("t"), ["0", "1", "t", "-1/t", "t^2 - 3", "(t + 1)/(t - 2)"]),
}


@pytest.mark.parametrize("name", sorted(COMMUTATOR_SCALARS))
def test_commutator_is_xy_minus_yx(name):
    # the six-product formula against the two full products, on matrices
    # that are mostly not trace-free
    F, pool = COMMUTATOR_SCALARS[name]
    scalars = [parse_element(s, F) for s in pool]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(scalars), min_size=8, max_size=8))
    def check(entries):
        X, Y = Mat2(*entries[:4]), Mat2(*entries[4:])
        assert X.commutator(Y) == X * Y - Y * X
    check()
    X = mat(F, (("1", "2"), ("3", "5")))
    Y = mat(F, (("-1", "4"), ("1", "2")))
    assert X.trace() and Y.trace()
    assert X.commutator(Y) == X * Y - Y * X == mat(F, (("-10", "-10"),
                                                       ("-5", "10")))
