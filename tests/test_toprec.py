import functools
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isorec import grading
from isorec.errors import (IndexOutOfRange, InvalidPoleStructure,
                           NonSimpleBranchpoint, TruncationTooShort,
                           UnexpectedPole)
from isorec.exactmath import (QQ, FunctionField, RatFn, Series,
                              local_expand, parse_element)
from isorec.laxsystem import Mat2
from isorec.separated import ProductForm
from isorec.spectralcurve import (ONE_BRANCH, TWO_BRANCH, Uniformization,
                                  classical_curve, uniformize)
from isorec.toprec import (BranchWindow, PoleBasisForm, _expanded,
                           _recursion, _verify_form, eo_differentials,
                           sigma_slot_image, symplectic_invariants, xi_ratfn)

from test_detcheck import curve_U
from test_grading import Qt, on_tower, p1_curve


def airy_U():
    return curve_U("x")


def twobranch_U():
    return curve_U("(x-1)*(x-3)")


TWOBRANCH_U = twobranch_U()


def table_of(form):
    return [(tuple(map(tuple, e["idx"])), e["coef"]) for e in form.to_json()]


# --- local windows ---------------------------------------------------------


def test_airy_bergman_diagonal_window():
    # omega_{0,2}(z, sigma(z)) = -dz^2/(4 z^2)
    win = BranchWindow(airy_U(), 0, 8)
    kmin, _, nums, den = win.bergman_diag()
    assert (kmin, Fraction(nums[0], den)) == (-2, -Fraction(1, 4))
    assert not any(nums[1:])


@pytest.mark.parametrize("q_text, field", [
    ("x", QQ), ("(x-1)*(x-3)", QQ), ("(x-1)*(x-4)", QQ),
    ("(x-1)*(x-3-t)", Qt)])
def test_bergman_diagonal_window_is_the_series_formula(q_text, field):
    # the cleared window against wt'/(w - wt)^2 in Series arithmetic, at
    # the same kmin and prec, on every branch point
    U = curve_U(q_text, field)
    E = U.field
    for s in U.branch_ints:
        for prec in (2, 5, 8):
            win = BranchWindow(U, s, prec)
            sig = win.sig
            gap = Series(1, [E.one()], sig.prec, E.zero(), sig.point) - sig
            want = sig.deriv() * gap.inverse() ** 2
            kmin, got_prec, nums, den = win.bergman_diag()
            assert (kmin, got_prec) == (want.kmin, want.prec)
            assert [E.coerce(c) / E.coerce(den) for c in nums] \
                == want.coeffs


def test_twobranch_sigma_window():
    # wt = sigma(z) - 1 = -w + w^2 - w^3 + ... at s = 1
    win = BranchWindow(twobranch_U(), 1, 6)
    got = [(k, c) for k, c in win.sig.known_items()]
    assert got[:3] == [(1, Fraction(-1)), (2, Fraction(1)), (3, Fraction(-1))]


@pytest.mark.parametrize("q_text", ["x", "(x-1)*(x-3)", "(x-1)*(x-4)"])
def test_rational_residue_rows_match_the_field_path(q_text, monkeypatch):
    # every pair a (2,2) run asks for, with its row over Q against the row
    # of the same curve over Q(t), which takes the field path; a (2,1) run
    # of Airy asks for fewer than 20 nonempty rows
    requested = set()
    row_of = BranchWindow.row

    def spy(win, a, b):
        requested.add((win.s, a, b))
        return row_of(win, a, b)

    Uq = curve_U(q_text)
    with monkeypatch.context() as mp:
        mp.setattr(BranchWindow, "row", spy)
        prec = eo_differentials(Uq, 2, 2).prec
    Ut = curve_U(q_text, Qt)
    assert Ut.branch_ints == Uq.branch_ints
    wins = {s: (BranchWindow(Uq, s, prec), BranchWindow(Ut, s, prec))
            for s in Uq.branch_ints}
    assert {s for s, _, _ in requested} == set(wins)
    assert any(a is None for _, a, _ in requested)
    nonempty = 0
    for s, a, b in requested:
        wq, wt = wins[s]
        den, got = wq.row(a, b) or (1, [])
        assert all(type(r) is int and r for _, r in got)
        assert (1, [(m, Qt.coerce(Fraction(r, den))) for m, r in got]) \
            == (wt.row(a, b) or (1, []))
        nonempty += bool(got)
    assert nonempty >= 20  # rows enough to compare, most of them nonempty


def test_recursion_requests_only_rows_within_the_pair_bound(monkeypatch):
    # a row is empty unless the valuations of f_a/(4yx') and f_b(sigma z)
    # sum to at most -2, so the recursion asks for no other pair; on Airy
    # the pairs of odd total valuation still have empty rows (by parity)
    requested = {}
    row_of = BranchWindow.row

    def spy(win, a, b):
        row = requested[(q_text, win.s, a, b)] = row_of(win, a, b)
        if a is not None:
            left = win.window(a, 0)[0]
            assert left + win.window(b, 1)[0] <= -2, (win.s, a, b)
        return row

    for q_text in ("x", "(x-1)*(x-3)"):
        with monkeypatch.context() as mp:
            mp.setattr(BranchWindow, "row", spy)
            eo_differentials(curve_U(q_text), 2, 1)
    assert {key[0] for key in requested} == {"x", "(x-1)*(x-3)"}
    nonempty = sum(bool(row) for row in requested.values())
    assert nonempty >= 0.9 * len(requested), (nonempty, len(requested))


@pytest.mark.parametrize("make", [
    airy_U, twobranch_U, lambda: curve_U("(x-1)*(x-4)"),
    lambda: curve_U("(x-1)*(x-3)", Qt)])
def test_closed_form_valuations_are_the_first_exponents_of_the_windows(
        make, monkeypatch):
    # valuation builds no window; for every factor a (2,1) run asks about,
    # on both sheets, it is the first exponent of the window a row reads
    # (the leading numerator of a built window is nonzero)
    asked = set()
    valuation_of, row_of = BranchWindow.valuation, BranchWindow.row

    def spy_valuation(win, fid, sheet):
        asked.add((win, fid))
        return valuation_of(win, fid, sheet)

    def spy_row(win, a, b):
        asked.update((win, fid) for fid in (a, b) if fid is not None)
        return row_of(win, a, b)

    U = make()
    with monkeypatch.context() as mp:
        mp.setattr(BranchWindow, "valuation", spy_valuation)
        mp.setattr(BranchWindow, "row", spy_row)
        on_tower(eo_differentials, U, 2, 1)
    assert len({win for win, _ in asked}) == len(U.branch_ints)
    for win, fid in asked:
        for sheet in (0, 1):
            kmin, _, nums, _ = win.window(fid, sheet)
            assert nums[0] and kmin == win.valuation(fid, sheet), \
                (win.s, fid, sheet)
    assert len(asked) >= 10 * len(U.branch_ints), len(asked)


@pytest.mark.parametrize("make, g, n", [(airy_U, 0, 7), (twobranch_U, 2, 1)])
def test_windows_four_orders_longer_give_the_same_tables(make, g, n):
    # the windows are cut at the top pole order, 2(3 gmax - 2 + nmax);
    # the tables there are the committed ones (tests/test_bench_contract.py
    # digests these two runs), and longer windows do not change them
    U = make()
    res = eo_differentials(U, g, n)
    assert res.prec == 10
    longer = _recursion(U, g, n, res.prec + 4)
    assert {gn: _expanded(table) for gn, table in longer.items()} == {
        gn: res.omega(*gn).table for gn in res.omegas}


@pytest.mark.parametrize("make, g, n, least", [
    (twobranch_U, 2, 1, 10), (airy_U, 0, 7, 10), (twobranch_U, 3, 1, 16)])
def test_windows_one_order_short_are_refused(make, g, n, least):
    # one order below the top pole order a row is refused, never read as a
    # silent zero
    with pytest.raises(TruncationTooShort):
        _recursion(make(), g, n, least - 1)


@pytest.mark.parametrize("make", [airy_U, twobranch_U])
def test_window_below_the_double_zero_is_refused_as_too_short(make):
    # 4 y x' vanishes to order 2 at a simple branch point; a window that
    # does not reach exponent 2 must not take it for a higher-order zero
    U = make()
    for s in U.branch_ints:
        for prec in (1, 0, -2):
            with pytest.raises(TruncationTooShort):
                BranchWindow(U, s, prec)
        assert BranchWindow(U, s, 2).dinv[0] == -2


@pytest.mark.parametrize("make", [airy_U, twobranch_U])
@pytest.mark.parametrize("nmax", [1, 2])
def test_runs_with_no_stable_form_build_no_window(make, nmax, monkeypatch):
    def refuse(*args):
        raise AssertionError("a branch window was built")

    U = make()
    monkeypatch.setattr(BranchWindow, "__init__", refuse)
    res = eo_differentials(U, 0, nmax)
    assert res.to_json() == {"omegas": {}, "F": {}}
    assert symplectic_invariants(res) == {}


def test_residue_rows_are_unchanged_by_swapping_the_factors(monkeypatch):
    # K(z0, sigma z) = K(z0, z) and a residue at a fixed point of sigma is
    # unchanged by sigma^*, so the row of (a, b) is the row of (b, a); the
    # recursion visits one term of each mirror pair on the strength of it,
    # and a window caches a row under both orders, so the two orders of
    # each unordered pair are built on two windows of their own
    requested = set()
    row_of = BranchWindow.row

    def spy(win, a, b):
        requested.add((win.s, win.prec, a, b))
        return row_of(win, a, b)

    runs = [(eo_differentials, airy_U(), 0, 8),
            (eo_differentials, twobranch_U(), 2, 1),
            (functools.partial(on_tower, eo_differentials),
             curve_U("(x-1)*(x-3)", Qt), 2, 1)]
    for run, U, g, n in runs:
        with monkeypatch.context() as mp:
            mp.setattr(BranchWindow, "row", spy)
            run(U, g, n)
        pairs = {}
        for s, prec, a, b in requested:
            if a is not None:
                pairs.setdefault((s, prec, frozenset((a, b))), (a, b))
        requested.clear()
        wins = {key[:2]: (BranchWindow(U, *key[:2]), BranchWindow(U, *key[:2]))
                for key in pairs}
        mirrored = 0
        for key, (a, b) in pairs.items():
            one, other = wins[key[:2]]
            row = one.row(a, b)
            assert row == other.row(b, a), (key[0], a, b)
            mirrored += a != b and bool(row)
        assert mirrored >= 20, (U.field, g, n, mirrored)


@pytest.mark.parametrize("q_text", ["x", "(x-1)*(x-4)", "(x-1)*(x-3)"])
def test_rational_contraction_matches_the_field_path(q_text):
    # x(z) of y^2 = (x-1)(x-4) has 3/4 and 5/2, so the contraction sums
    # terms whose denominators are not powers of one prime; (x-1)(x-3) runs
    # the halved bracket of two branch windows on the tower as well
    got = eo_differentials(curve_U(q_text), 2, 1)
    want = on_tower(eo_differentials, curve_U(q_text, Qt), 2, 1)
    assert want.U.field is Qt
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@pytest.mark.parametrize("make", [airy_U, twobranch_U])
def test_short_window_still_refuses_a_row_over_q(make):
    U = make()
    s = U.branch_ints[0]
    win = BranchWindow(U, s, 5)
    assert win.field is QQ
    for _ in range(2):  # a refused row is not cached
        with pytest.raises(TruncationTooShort):
            win.row((s, 2), (s, 2))
    assert BranchWindow(U, s, 6).row((s, 2), (s, 2))


def test_nonsimple_branchpoint_rejected():
    with pytest.raises(NonSimpleBranchpoint):
        eo_differentials(curve_U("x^3"), 1, 1)


# --- frozen Airy goldens ----------------------------------------------------
# Derived by an independent brute-force recursion (nested rational functions,
# exact residues) before this engine existed; y = +z orientation.


AIRY_03 = [(((0, 2), (0, 2), (0, 2)), "-1/2")]
AIRY_11 = [(((0, 4),), "-1/16")]
AIRY_04 = [
    (((0, 2), (0, 2), (0, 2), (0, 4)), "3/4"),
    (((0, 2), (0, 2), (0, 4), (0, 2)), "3/4"),
    (((0, 2), (0, 4), (0, 2), (0, 2)), "3/4"),
    (((0, 4), (0, 2), (0, 2), (0, 2)), "3/4"),
]
AIRY_12 = [
    (((0, 2), (0, 6)), "5/32"),
    (((0, 4), (0, 4)), "3/32"),
    (((0, 6), (0, 2)), "5/32"),
]
AIRY_21 = [(((0, 10),), "-105/1024")]


@pytest.fixture(scope="module")
def airy_run():
    return eo_differentials(airy_U(), 2, 1)


def test_airy_omega03(airy_run):
    assert table_of(airy_run.omega(0, 3)) == AIRY_03


def test_airy_omega11(airy_run):
    assert table_of(airy_run.omega(1, 1)) == AIRY_11


def test_airy_omega04(airy_run):
    assert table_of(airy_run.omega(0, 4)) == AIRY_04


def test_airy_omega12(airy_run):
    assert table_of(airy_run.omega(1, 2)) == AIRY_12


def test_airy_omega21(airy_run):
    assert table_of(airy_run.omega(2, 1)) == AIRY_21


def test_airy_F2_vanishes(airy_run):
    F = symplectic_invariants(airy_run)
    assert set(F) == {2}
    assert not F[2]
    assert airy_run.to_json()["F"] == {"2": "0"}


def test_airy_flipped_sheet_negates_odd_chi():
    # relabelling the sheets flips omega_{g,n} by (-1)^(2g-2+n)
    U = airy_U()
    flipped = Uniformization(U.kind, U.field, U.zvar, U.a, U.b, U.x, -U.y)
    res = eo_differentials(flipped, 2, 1)
    assert table_of(res.omega(0, 3)) == [(((0, 2), (0, 2), (0, 2)), "1/2")]
    assert table_of(res.omega(1, 1)) == [(((0, 4),), "1/16")]
    assert table_of(res.omega(2, 1)) == [(((0, 10),), "105/1024")]
    assert table_of(res.omega(0, 4)) == AIRY_04
    assert table_of(res.omega(1, 2)) == AIRY_12


# --- Witten-Kontsevich oracle: the DVV (Virasoro) recursion -------------------


def dfact(m):
    return math.prod(range(m, 0, -2))  # (-1)!! = 1


@functools.lru_cache(maxsize=None)
def psi_integral(g, ds):
    """<tau_{d_1} ... tau_{d_n}>_g for a sorted tuple ds.

    Dijkgraaf-Verlinde-Verlinde on the largest index d = k+1:
    (2k+3)!! <tau_{k+1} tau_D>_g
      = sum_j (2k+2d_j+1)!!/(2d_j-1)!! <tau_D with d_j -> d_j+k>_g
      + 1/2 sum_{r+s=k-1} (2r+1)!!(2s+1)!! (<tau_r tau_s tau_D>_{g-1}
          + sum_{g1+g2=g, I+J=D} <tau_r tau_I>_{g1} <tau_s tau_J>_{g2}).
    """
    n = len(ds)
    if g < 0 or not ds or ds[0] < 0 or sum(ds) != 3 * g - 3 + n:
        return Fraction(0)
    if (g, ds) in ((0, (0, 0, 0)), (1, (1,))):
        return Fraction(1) if g == 0 else Fraction(1, 24)
    k, rest = ds[-1] - 1, ds[:-1]
    total = Fraction(0)
    for j, d in enumerate(rest):
        bumped = tuple(sorted(rest[:j] + (d + k,) + rest[j + 1:]))
        total += (Fraction(dfact(2 * k + 2 * d + 1), dfact(2 * d - 1))
                  * psi_integral(g, bumped))
    for r in range(k):
        s = k - 1 - r
        w = Fraction(dfact(2 * r + 1) * dfact(2 * s + 1), 2)
        total += w * psi_integral(g - 1, tuple(sorted(rest + (r, s))))
        for mask in range(2 ** len(rest)):
            I = tuple(d for i, d in enumerate(rest) if mask >> i & 1)
            J = tuple(d for i, d in enumerate(rest) if not mask >> i & 1)
            for g1 in range(g + 1):
                total += (w * psi_integral(g1, tuple(sorted(I + (r,))))
                          * psi_integral(g - g1, tuple(sorted(J + (s,)))))
    return total / dfact(2 * k + 3)


def compositions(total, n):
    if n == 1:
        yield (total,)
        return
    for d in range(total + 1):
        for rest in compositions(total - d, n - 1):
            yield (d,) + rest


def test_dvv_known_values():
    assert psi_integral(1, (1, 1)) == Fraction(1, 24)
    assert psi_integral(2, (4,)) == Fraction(1, 1152)
    assert psi_integral(3, (7,)) == Fraction(1, 82944)
    assert psi_integral(2, (2, 3)) == Fraction(29, 5760)
    assert psi_integral(0, (0, 0, 0, 1, 1)) == 2


def test_airy_matches_dvv_intersection_numbers():
    # The coefficient of prod dz_i/z_i^(2d_i+2) in omega_{g,n} is
    # c <tau_{d_1}...tau_{d_n}>_g prod (2d_i+1)!!, with c = (-1/2)^(2g-2+n)
    # fixed by omega_{0,3} (<tau_0^3>_0 = 1) and omega_{1,1} (<tau_1>_1 = 1/24).
    assert AIRY_03[0][1] == "-1/2" and AIRY_11[0][1] == "-1/16"
    res = eo_differentials(airy_U(), 3, 2)
    assert set(res.omegas) == {(g, n) for g in range(4) for n in range(1, 9)
                               if 0 < 2 * g - 2 + n <= 6}
    forms = {gn: res.omega(*gn) for gn in res.omegas}
    forms[(0, 9)] = eo_differentials(airy_U(), 0, 9).omega(0, 9)
    for (g, n), form in forms.items():
        c = Fraction(-1, 2) ** (2 * g - 2 + n)
        want = {}
        for ds in compositions(3 * g - 3 + n, n):
            v = psi_integral(g, tuple(sorted(ds)))
            if v:
                want[tuple((0, 2 * d + 2) for d in ds)] = (
                    c * v * math.prod(dfact(2 * d + 1) for d in ds))
        assert form.table == want, (g, n)


def test_airy_pole_orders_saturate_bound(airy_run):
    for (g, n), form in airy_run.omegas.items():
        assert max(k for key in form.table for _, k in key) == \
            2 * (3 * g - 2 + n)


# --- frozen two-branchpoint goldens ------------------------------------------


TWOBRANCH_03 = [
    (((-1, 2), (-1, 2), (-1, 2)), "1"),
    (((1, 2), (1, 2), (1, 2)), "-1"),
]
TWOBRANCH_11 = [
    (((-1, 2),), "-1/16"),
    (((-1, 3),), "-1/8"),
    (((-1, 4),), "1/8"),
    (((1, 2),), "1/16"),
    (((1, 3),), "-1/8"),
    (((1, 4),), "-1/8"),
]


def test_twobranch_frozen_tables():
    res = eo_differentials(twobranch_U(), 1, 1)
    assert table_of(res.omega(0, 3)) == TWOBRANCH_03
    assert table_of(res.omega(1, 1)) == TWOBRANCH_11
    for form in res.omegas.values():
        assert max(k for key in form.table for _, k in key) <= \
            2 * (3 * 1 - 2 + 1) + 2


def test_twobranch_gaussian_F3():
    # the same formula at g = 3: (1/42)/(6*4) * 4^4 * 2^-4 = 1/63
    res = eo_differentials(twobranch_U(), 3, 1)
    assert res.prec == 16  # the top pole order, 6g-4+2n at (3,1)
    assert symplectic_invariants(res) == {2: Fraction(-1, 60),
                                          3: Fraction(1, 63)}


def test_twobranch_gaussian_F2():
    # y^2 = (x-1)(x-3) is the Gaussian curve y^2 = x^2 - 4t at t = 1/4 with y
    # scaled by 2: F_g = B_{2g}/(2g(2g-2)) t^(2-2g) 2^(2-2g), so F_2 = -1/60
    res = eo_differentials(twobranch_U(), 2, 2)
    assert set(res.omegas) == {(0, 3), (0, 4), (0, 5), (0, 6), (1, 1),
                               (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)}
    assert symplectic_invariants(res) == {2: Fraction(-1, 60)}


def test_tower_gaussian_F2_with_a_moving_branch_point():
    # y^2 = (x-1)(x-3-t) over Q(t) has no weights, so the recursion runs on
    # the tower; it is the Gaussian curve with x scaled by (b-a)/2 = (2+t)/2,
    # and y dx by its square, so F_2 = -1/60 (2/(b-a))^4 = -4/(15 (2+t)^4)
    U = curve_U("(x-1)*(x-3-t)", Qt)
    assert grading.specialization(U) is None
    res = eo_differentials(U, 2, 1)
    assert res.U.field is Qt
    assert symplectic_invariants(res) == {
        2: parse_element("-4/(15*(2+t)^4)", Qt)}


def test_square_part_curve_translation_and_scaling_identities():
    # y^2 = (x-2)^2 (x-1)(x-3), a two-branch curve with a square part:
    # x -> x + 1 leaves every table unchanged, and y -> 2y (Q -> 4Q) scales
    # omega_{g,n} by 2^(2-2g-n) and F_2 by 2^-2
    def run(q_text):
        res = eo_differentials(curve_U(q_text), 2, 1)
        return res, symplectic_invariants(res)

    res, F = run("(x-2)^2*(x-1)*(x-3)")
    assert F == {2: Fraction(-3, 32)}
    moved, F_moved = run("(x-1)^2*x*(x-2)")
    assert F_moved == F and moved.to_json() == res.to_json()
    scaled, F_scaled = run("4*(x-2)^2*(x-1)*(x-3)")
    assert F_scaled == {2: Fraction(-3, 128)}
    assert set(scaled.omegas) == set(res.omegas)
    for g, n in res.omegas:
        assert scaled.omega(g, n) == res.omega(g, n).scaled(
            Fraction(2) ** (2 - 2 * g - n)), (g, n)


# --- independent single-point samples ----------------------------------------
# Re-derive omega_{0,3} and omega_{1,1} values straight from the residue
# formula with the spectator variables frozen to rational points; only
# omega_{0,2} enters the bracket, so this does not reuse any engine output.


def brute_sample(U, g, n, consts):
    E = U.field
    one = RatFn.one(E, U.zvar)
    z = RatFn.gen(E, U.zvar) * one
    sz = U.apply_sigma(z)
    dsig = sz.deriv()
    cs = [E.coerce(c) * one for c in consts]

    def b02(a, b):
        return one / ((a - b) * (a - b))

    if (g, n) == (0, 3):
        B = (b02(z, cs[1]) * b02(sz, cs[2])
             + b02(z, cs[2]) * b02(sz, cs[1])) * dsig
    elif (g, n) == (1, 1):
        B = b02(z, sz) * dsig
    else:
        raise AssertionError("brute_sample only covers (0,3) and (1,1)")
    K = (one / (cs[0] - z) - one / (cs[0] - sz)) / (U.y * U.x.deriv() * 4)
    total = E.zero()
    branch = [0] if U.kind == ONE_BRANCH else [1, -1]
    for s in branch:
        total = total + local_expand(K * B, E.coerce(s), -1).coeff(-1)
    return total


def evaluate(form, args, one):
    """A PoleBasisForm at field elements z_i = args[i], dz factors dropped."""
    total = one - one
    for key, v in form.table.items():
        term = v * one
        for a, (s, k) in zip(args, key):
            den = a - one * s
            for _ in range(k):
                term = term / den
        total = total + term
    return total


@pytest.mark.parametrize("make,consts", [
    (airy_U, (5, 7, 11)),
    (twobranch_U, (5, 7, 11)),
    (p1_curve, (3, 5, 7)),
])
def test_brute_samples_match_engine(make, consts):
    U = make()
    E = U.field
    res = eo_differentials(U, 1, 2)
    args = [E.coerce(c) for c in consts]
    got3 = evaluate(res.omega(0, 3), args, E.one())
    assert got3 == brute_sample(U, 0, 3, consts)
    got1 = evaluate(res.omega(1, 1), args[:1], E.one())
    assert got1 == brute_sample(U, 1, 1, consts[:1])
    assert got3  # the samples are away from the poles, so nonzero


# --- pole basis algebra -------------------------------------------------------


def test_sigma_slot_image_matches_rational_substitution():
    U2 = twobranch_U()
    for s in (1, -1):
        for k in range(2, 9):
            img = sigma_slot_image(TWO_BRANCH, s, k)
            # build sum c * xi_{s,k'} and compare with xi_{s,k}(sigma z) d(sigma z)
            F = FunctionField(QQ, "z")
            xi = xi_ratfn(QQ, "z", s, k)
            z = RatFn.gen(QQ, "z")
            sz = U2.apply_sigma(RatFn.one(QQ, "z") * z)
            direct = xi(sz) * sz.deriv()
            total = RatFn.zero(QQ, "z")
            for k2, c in img:
                total = total + xi_ratfn(QQ, "z", s, k2) * Fraction(c)
            assert direct == total


def test_sigma_slot_image_one_branch():
    assert sigma_slot_image(ONE_BRANCH, 0, 4) == [(4, -1)]
    assert sigma_slot_image(ONE_BRANCH, 0, 3) == [(3, 1)]
    with pytest.raises(InvalidPoleStructure):
        sigma_slot_image(ONE_BRANCH, 0, 1)


@st.composite
def small_tables(draw):
    keys = st.tuples(st.tuples(st.sampled_from([1, -1]), st.integers(2, 5)))
    table = draw(st.dictionaries(keys,
                                 st.fractions(min_value=-5, max_value=5),
                                 min_size=1, max_size=4))
    return {k: v for k, v in table.items() if v}


def one_slot(U, f):
    """f as a one-slot ProductForm on U: how a W_1 row is decomposed."""
    return ProductForm(U, 1, [(U.field.one(), (f,), {})])


@given(small_tables())
@settings(max_examples=60, deadline=None)
def test_single_variable_roundtrip_through_rational(table):
    form = PoleBasisForm(QQ, 1, table)
    f = RatFn.zero(QQ, "z")
    for ((s, k),), c in table.items():
        f = f + xi_ratfn(QQ, "z", s, k) * c
    assert one_slot(TWOBRANCH_U, f).to_pbf() == form


def test_one_slot_extraction_rejects_polynomial_part():
    F = FunctionField(QQ, "z")
    with pytest.raises(UnexpectedPole):
        one_slot(airy_U(), parse_element("z + 1/z^2", F)).to_pbf()


def test_one_slot_extraction_rejects_foreign_pole():
    F = FunctionField(QQ, "z")
    with pytest.raises(UnexpectedPole):
        one_slot(TWOBRANCH_U, parse_element("1/(z-2)^2", F)).to_pbf()


@pytest.mark.parametrize("U", [airy_U(), TWOBRANCH_U],
                         ids=["airy", "twobranch"])
def test_zero_one_slot_form_extracts_to_an_empty_form(U):
    assert one_slot(U, RatFn.zero(QQ, "z")).to_pbf() == PoleBasisForm(QQ, 1)


def test_form_checks_catch_tampering():
    res = eo_differentials(airy_U(), 0, 3)
    form = res.omega(0, 3)
    assert form.is_symmetric() and not form.has_residue_term()
    bad = PoleBasisForm(QQ, 3, form.table)
    bad.add_term(((0, 2), (0, 4), (0, 2)), Fraction(1, 3))
    assert not bad.is_symmetric()
    worse = PoleBasisForm(QQ, 1, {((0, 1),): Fraction(1)})
    assert worse.has_residue_term()


def test_verify_form_checks_anti_invariance_once():
    # on the one-branch kind sigma maps xi_{0,k} to (-1)^(k+1) xi_{0,k}
    accepted = PoleBasisForm(QQ, 2, {((0, 2), (0, 4)): Fraction(1),
                                     ((0, 4), (0, 2)): Fraction(1),
                                     ((0, 2), (0, 2)): Fraction(3)})
    _verify_form(accepted, ONE_BRANCH, 0, 2)
    # anti-invariant in slot 0, but not symmetric
    lopsided = PoleBasisForm(QQ, 2, {((0, 2), (0, 3)): Fraction(1)})
    assert lopsided.involution_image(ONE_BRANCH, 0) == \
        lopsided.scaled(Fraction(-1))
    with pytest.raises(InvalidPoleStructure, match="not symmetric"):
        _verify_form(lopsided, ONE_BRANCH, 0, 2)
    # symmetric, but invariant rather than anti-invariant
    even = PoleBasisForm(QQ, 2, {((0, 3), (0, 3)): Fraction(1)})
    assert even.is_symmetric()
    with pytest.raises(InvalidPoleStructure, match="anti-invariant"):
        _verify_form(even, ONE_BRANCH, 0, 2)


@pytest.mark.parametrize("make, match", [
    (lambda: _verify_form(PoleBasisForm(QQ, 1, {((0, 1),): Fraction(1)}),
                          ONE_BRANCH, 1, 1), "first-order pole"),
    (lambda: PoleBasisForm(QQ, 2, {((0, 2),): Fraction(1)}), "1 slots"),
])
def test_pole_basis_forms_refuse(make, match):
    with pytest.raises(InvalidPoleStructure, match=match):
        make()


def canonical(form):
    """The keys of form whose slots 1..n-1 are sorted, as the recursion
    keeps them, with their values."""
    return PoleBasisForm(form.field, form.n, {
        key: v for key, v in form.table.items()
        if list(key[1:]) == sorted(key[1:])})


def test_symmetry_check_refuses_one_changed_swap_of_slot_zero():
    # the canonical table of a computed form passes; changing the value of
    # any key that a swap of slot 0 with a free slot moves is refused, and
    # so is the expansion by the check over all slots
    form = canonical(eo_differentials(twobranch_U(), 0, 5).omega(0, 5))
    assert len(form.table) < len(_expanded(form.table))
    _verify_form(form, TWO_BRANCH, 0, 5)
    changed = 0
    for key, v in form.table.items():
        if all(slot == key[0] for slot in key[1:]):
            continue  # no swap of slot 0 moves it
        bad = PoleBasisForm(QQ, 5, form.table)
        bad.table[key] = v * 2
        with pytest.raises(InvalidPoleStructure, match="not symmetric"):
            _verify_form(bad, TWO_BRANCH, 0, 5)
        assert not PoleBasisForm(QQ, 5, _expanded(bad.table)).is_symmetric()
        changed += 1
    assert changed >= 20, changed


def verdict_on_fractions(form, kind):
    """Whether the symmetry and involution checks hold on form's Fractions."""
    return form.is_symmetric() and \
        form.involution_image(kind, 0) == form.scaled(Fraction(-1))


def verify_accepts(form, kind):
    try:
        _verify_form(form, kind, 0, form.n)
    except InvalidPoleStructure:
        return False
    return True


def test_verify_form_compares_values_over_one_denominator():
    # each form's numerators, read without a common denominator, would pass
    # the check it fails: 1/2 against 1/3 in mirrored keys, and on the
    # two-branch kind, where v4 xi_{1,4} + v3 xi_{1,3} is anti-invariant
    # exactly when v4 = v3, 1/2 against 1/3 again
    lopsided = PoleBasisForm(QQ, 2, {((0, 2), (0, 4)): Fraction(1, 2),
                                     ((0, 4), (0, 2)): Fraction(1, 3)})
    with pytest.raises(InvalidPoleStructure, match="not symmetric"):
        _verify_form(lopsided, ONE_BRANCH, 0, 2)
    skewed = PoleBasisForm(QQ, 1, {((1, 4),): Fraction(1, 2),
                                   ((1, 3),): Fraction(1, 3)})
    with pytest.raises(InvalidPoleStructure, match="anti-invariant"):
        _verify_form(skewed, TWO_BRANCH, 0, 1)
    for form, kind in ((lopsided, ONE_BRANCH), (skewed, TWO_BRANCH)):
        assert not verdict_on_fractions(form, kind)
    even = PoleBasisForm(QQ, 1, {((1, 4),): Fraction(1, 2),
                                 ((1, 3),): Fraction(1, 2),
                                 ((1, 2),): Fraction(-3, 4)})
    assert verify_accepts(even, TWO_BRANCH)


MIXED = [Fraction(p, q) for p in (1, -1, 3, -3) for q in (1, 2, 3, 4)]


@st.composite
def mixed_denominator_forms(draw):
    """Forms over Q whose values have mixed denominators, made anti-
    invariant in every slot, symmetrized, or disturbed in one term whose
    slots 1..n-1 are sorted."""
    kind = draw(st.sampled_from([ONE_BRANCH, TWO_BRANCH]))
    n = draw(st.integers(1, 3))
    points = [0] if kind == ONE_BRANCH else [1, -1]
    slot = st.tuples(st.sampled_from(points), st.integers(2, 4))
    keys = st.tuples(*[slot] * n)
    form = PoleBasisForm(QQ, n, draw(st.dictionaries(
        keys, st.sampled_from(MIXED), min_size=1, max_size=4)))
    if draw(st.booleans()):
        for i in range(n):  # (1 - sigma_i) is anti-invariant in slot i
            image = add_term_involution_image(form, kind, i)
            for key, v in image.table.items():
                form.add_term(key, -v)
    if draw(st.booleans()):
        sym = PoleBasisForm(QQ, n)
        for perm in itertools.permutations(range(n)):
            for key, v in permuted(form, perm).table.items():
                sym.add_term(key, v)
        form = sym
    if draw(st.booleans()):
        key = draw(keys)
        form.add_term(key[:1] + tuple(sorted(key[1:])),
                      draw(st.sampled_from(MIXED)))
    return kind, form


@settings(deadline=None, max_examples=150)
@given(mixed_denominator_forms())
def test_verify_form_verdict_is_the_fraction_verdict(kind_form):
    # _verify_form reads a canonical table, whose expansion is symmetric in
    # slots 1..n-1 by construction; its verdict is that of the checks over
    # all slots on the expansion's Fractions
    kind, form = kind_form
    canon = canonical(form)
    full = PoleBasisForm(QQ, form.n, _expanded(canon.table))
    assert verify_accepts(canon, kind) == verdict_on_fractions(full, kind)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([ONE_BRANCH, TWO_BRANCH]), st.integers(2, 3),
       st.lists(st.tuples(st.lists(st.sampled_from([2, 3, 4]), min_size=3,
                                   max_size=3),
                          st.lists(st.sampled_from([1, -1]), min_size=3,
                                   max_size=3),
                          st.integers(-2, 2)), min_size=1, max_size=3))
def test_slot_zero_anti_invariance_decides_every_slot(kind, n, terms):
    # for a symmetric form, anti-invariance in slot 0 is anti-invariance
    table = {}
    for orders, points, c in terms:
        points = points if kind == TWO_BRANCH else [0, 0, 0]
        key = tuple(zip(points[:n], orders[:n]))
        for perm in itertools.permutations(key):
            table[perm] = table.get(perm, 0) + Fraction(c)
    form = PoleBasisForm(QQ, n, table)
    assert form.is_symmetric()
    minus = form.scaled(Fraction(-1))
    assert (form.involution_image(kind, 0) == minus) == all(
        form.involution_image(kind, i) == minus for i in range(n))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.lists(
    st.tuples(st.lists(st.sampled_from([(0, 2), (0, 4), (1, 2)]),
                       min_size=4, max_size=4),
              st.integers(-2, 2)), max_size=4), st.booleans())
@example(3, [([(0, 2), (0, 2), (0, 4), (0, 2)], 1)], False)
@example(4, [([(0, 2), (0, 2), (0, 2), (1, 2)], 1)], False)
def test_symmetry_verdict_matches_all_permutations(n, terms, symmetrize):
    table = {}
    for key, c in terms:
        key = tuple(key[:n])
        perms = itertools.permutations(key) if symmetrize else [key]
        for perm in perms:
            table[perm] = table.get(perm, 0) + Fraction(c)
    form = PoleBasisForm(QQ, n, table)
    brute = all(permuted(form, p).table == form.table
                for p in itertools.permutations(range(n)))
    assert form.is_symmetric() == brute


def permuted(form, perm):
    """form with its variables relabelled: slot i is slot perm[i]."""
    out = PoleBasisForm(form.field, form.n)
    for key, v in form.table.items():
        out.add_term(tuple(key[p] for p in perm), v)
    return out


def add_term_scaled(form, c):
    out = PoleBasisForm(form.field, form.n)
    for key, v in form.table.items():
        out.add_term(key, v * c)
    return out


def add_term_involution_image(form, kind, i):
    out = PoleBasisForm(form.field, form.n)
    for key, v in form.table.items():
        s, k = key[i]
        for k2, c in sigma_slot_image(kind, s, k):
            out.add_term(key[:i] + ((s, k2),) + key[i + 1:], v * c)
    return out


@st.composite
def forms_of_kind(draw):
    kind = draw(st.sampled_from([ONE_BRANCH, TWO_BRANCH]))
    n = draw(st.integers(1, 3))
    points = [0] if kind == ONE_BRANCH else [1, -1]
    slot = st.tuples(st.sampled_from(points), st.integers(2, 5))
    table = draw(st.dictionaries(st.tuples(*[slot] * n),
                                 st.fractions(min_value=-3, max_value=3),
                                 max_size=6))
    return kind, PoleBasisForm(QQ, n, table)


@given(forms_of_kind(), st.data(),
       st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3,
                                                    max_value=3)))
@settings(max_examples=80, deadline=None)
def test_form_operations_match_add_term(kind_form, data, c):
    kind, form = kind_form
    i = data.draw(st.integers(0, form.n - 1))
    assert form.scaled(c) == add_term_scaled(form, c)
    assert form.involution_image(kind, i) == \
        add_term_involution_image(form, kind, i)


def test_involution_image_drops_a_cancelled_key():
    # sigma maps xi_{1,3} to xi_{1,3} + xi_{1,2} and xi_{1,2} to -xi_{1,2}
    form = PoleBasisForm(QQ, 2, {((1, 2), (1, 2)): Fraction(1),
                                 ((1, 3), (1, 2)): Fraction(1)})
    image = form.involution_image(TWO_BRANCH, 0)
    assert image.table == {((1, 3), (1, 2)): Fraction(1)}
    assert image == add_term_involution_image(form, TWO_BRANCH, 0)


def test_evaluate_is_plain_pole_sum():
    form = PoleBasisForm(QQ, 2, {((0, 2), (1, 3)): Fraction(5)})
    F = FunctionField(QQ, "w")
    a = parse_element("w", F)
    b = parse_element("w + 2", F)
    got = evaluate(form, [a, b], F.one())
    want = parse_element("5/(w^2*(w+1)^3)", F)
    assert got == want


# --- result shape -------------------------------------------------------------


def test_triangle_contents_and_stability():
    res = eo_differentials(airy_U(), 1, 3)
    assert set(res.omegas) == {(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3)}
    res0 = eo_differentials(airy_U(), 0, 4)
    assert set(res0.omegas) == {(0, 3), (0, 4)}
    assert symplectic_invariants(res0) == {}


def test_json_shape_and_determinism():
    res1 = eo_differentials(twobranch_U(), 1, 1)
    res2 = eo_differentials(twobranch_U(), 1, 1)
    symplectic_invariants(res1)
    symplectic_invariants(res2)
    blob1 = json.dumps(res1.to_json(), sort_keys=True)
    blob2 = json.dumps(res2.to_json(), sort_keys=True)
    assert blob1 == blob2
    data = json.loads(blob1)
    assert set(data) == {"omegas", "F"}
    assert set(data["omegas"]) == {"0,3", "1,1"}
    entry = data["omegas"]["0,3"][0]
    assert set(entry) == {"idx", "coef"}
    assert isinstance(entry["coef"], str)


def test_gmax_nmax_validation():
    with pytest.raises(IndexOutOfRange):
        eo_differentials(airy_U(), -1, 2)
    with pytest.raises(IndexOutOfRange):
        eo_differentials(airy_U(), 1, 0)


# --- random one-branch curves: the built-in invariant checks do the work ------


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                max_size=2),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_random_one_branch_curves_pass_invariants(tail, lead):
    # Q = x * g(x)^2 with g(0) != 0: one simple branch point at z = 0
    F = FunctionField(QQ, "x")
    g = parse_element(str(lead), F)
    x = parse_element("x", F)
    pw = x
    for c in tail:
        g = g + c * pw
        pw = pw * x
    if not g.num.coeff(0):
        return
    Q = x * g * g
    one = RatFn.one(QQ, "x")
    U = uniformize(classical_curve(Mat2(0 * one, Q, one, 0 * one)))
    res = eo_differentials(U, 1, 1)  # check=True verifies the invariants
    for form in res.omegas.values():
        assert not form.has_residue_term()


def test_p1_run_over_extension_field():
    # y = z^3 - 3uz with u^2 = -2t/3; residues worked out by hand:
    # omega_{0,3} = (1/(6u)) prod dz_i/z_i^2  (the one-branch -1/(2 y'(0)))
    # omega_{1,1} = -dz/(96 t z^2) + dz/(48 u z^4)
    U = p1_curve()
    res = eo_differentials(U, 1, 1)
    E = U.field
    yprime0 = U.y.deriv()(E.zero())
    got = res.omega(0, 3).table[((0, 2), (0, 2), (0, 2))]
    assert got * (yprime0 + yprime0) == -E.one()
    w11 = res.omega(1, 1).table
    t = parse_element("t", E)
    u = parse_element("u", E)
    assert set(w11) == {((0, 2),), ((0, 4),)}
    assert w11[((0, 2),)] * t * E.coerce(96) == -E.one()
    assert w11[((0, 4),)] * u * E.coerce(48) == E.one()
