"""Weighted homogeneity, and running a homogeneous stage at one time t0.

The chain on Painleve I runs over the tower Q(t)[u] with u^2 = -2t/3, and
every stage after the flow is weighted-homogeneous.  With z of weight 1,
the P1 curve x(z) = z^2 - 2u, y(z) = 2z^3 - 3uz gives x weight 2, u weight
2, t weight 4 and y weight 3, and hbar weight w_x + w_y = 5 makes
hbar^(2g-2+n) omega_{g,n} weightless (Eynard-Orantin, math-ph/0702045; the
Painleve weights are those of Iwaki-Marchal-Saenz, arXiv:1601.02517).  A
homogeneous element of weight w is c t^a u^b with (a, b) fixed by w, so
its value c t0^a at one time t0 gives it back.

`time_point(E)` is the ring map t -> t0, u -> 1 of E = Q(t), or of
Q(t)[u] with u^2 = c t, where t0 = 1/c (t0 = 1 over Q(t)).  A Grading is
such a time and the weights solved from the coefficients of a stage's
inputs; two entry points build one, each in its own units:
- `specialization(U)` grades a curve for the recursion: z has weight 1
  with one branch point and 0 with two.  Its weights are "z", "x", "y"
  and "t" (u has half the weight of t), and its `curve` is U over Q at t0.
- `flow_grading(iso, lax, ahat, beta)` grades the flow for m_series in
  scaling_plan's units, with hbar of weight 1: "t" and "x" are the plan's
  d_t and d_x, and "L", "A", "delta" and "beta" are solved.
The rows fix the weights up to a unit, and one rule picks it: rows whose
solution leaves w_t absent, free or 0 are solved again with w_t = 1.  So
a curve with no t in x(z) and y(z), or y^2 = t x over Q(t)[u] (y = u z,
w_y = 3/2), is graded, and a w_t of 0, which leaves t's exponent unread,
becomes a contradiction.  Other fields, and inputs that are not
homogeneous or whose weights contradict or leave another weight free, get
None, and their stages run on the tower as given.

Why a stage run at t0 is exact.  A ring map commutes with sums, products
and quotients, and the stages divide by, and test for zero, only
homogeneous elements.  A nonzero c t^a u^b maps to c t0^a, which is
nonzero, so every division stays defined, every zero test gives the same
answer, and degrees and pole orders are kept, because the leading and
trailing coefficients of a homogeneous polynomial are homogeneous.  With z
of nonzero weight a homogeneous polynomial in z is z^v times one that does
not vanish at z = 0, so a pole off the branch point z = 0 stays off it.
With z of weight 0 (two branch points, sigma(z) = 1/z) a monic homogeneous
polynomial in z has rational coefficients and does not change at all.
Equality of two homogeneous elements at t0 implies equality only when their
weights agree:
- The recursion's coefficients have the weights of `Grading.omega_weight`,
  and `restore` gives each back.  A key permutation or the involution
  keeps the weight of a coefficient, so the symmetry and involution checks
  hold at t0 exactly when they hold on the tower.
- Entry ij of M^(k) has weight s_ij delta - k, s_ij in ENTRY_SIGNS, and
  its one time derivative comes from the Euler relation
  d_t t0 dt f = w f - d_x x dx f of a homogeneous f of weight w
  (`Grading.time_derivative`).
- The flow's rows fix x at d_x, and each entry of L^(0) is homogeneous, so
  y^2 = -det L^(0) has weight 2 w_L; weights are unique, so the curve's
  weights are (w_x + w_y) times the flow's, with x <-> x and y <-> L (on
  P1, flow 2/5, 3/5, 4/5 against curve 2, 3, 4 for x, y and t).  A
  pole-basis coefficient of W_n^(k), k = 2g - 2 + n, and the same one of
  omega_{g,n} therefore differ in weight by k (d_x + w_L - 1) for n >= 2
  and by 2g (d_x + w_L - 1) for n = 1.  flow_grading checks
  d_x + w_L = 1 (hbar d/dx has the weight of L), so verify_tt's rows equal
  at t0 are equal on the tower; row (0,1) compares -y dx, where y has the
  weight of L.
"""

from fractions import Fraction

from .errors import PlanMismatch
from .exactmath import (QQ, ExtElem, FunctionField, Poly,
                        QuadraticExtension, RatFn)
from .isodeform import scaling_plan
from .laxsystem import Mat2
from .spectralcurve import ONE_BRANCH, Uniformization

# the sign s_ij of delta in the weight of entry a, b, c, d of a Mat2
ENTRY_SIGNS = (0, 1, -1, 0)


def _is_qt(F):
    return isinstance(F, FunctionField) and F.base == QQ


class TimePoint:
    """The ring map t -> t0, u -> 1 of Q(t), or of Q(t)[u] with u^2 = c t,
    to Q: t0 = 1/c, so that u = 1, and t0 = 1 over Q(t).  `point` is the
    time as strings for JSON, e.g. {"t": "-3/2", "u": "1"}."""

    __slots__ = ("field", "quad", "t0", "point")

    def __init__(self, field, c=None):
        self.field = field
        self.quad = c is not None
        self.t0 = 1 / Fraction(c) if self.quad else Fraction(1)
        self.point = {"t": str(self.t0)}
        if self.quad:
            self.point[field.uname] = "1"

    def at(self, e):
        """The value of a field element at t0, u = 1."""
        if self.quad:
            return e.a(self.t0) + e.b(self.t0)
        return e(self.t0)

    def ratfn_at(self, f):
        """A rational function over the tower with its coefficients at t0."""
        return f.map_coeffs(self.at, QQ)


def time_point(E):
    """The TimePoint of E = Q(t) or Q(t)[u] with u^2 = c t; None for every
    other field."""
    if _is_qt(E):
        return TimePoint(E)
    if isinstance(E, QuadraticExtension) and _is_qt(E.base):
        r = E.r
        if r.is_poly() and r.num.degree() == 1 and not r.num.coeff(0):
            return TimePoint(E, r.num.coeff(1))
    return None


def _exponents(E, e):
    """(a, b) with the nonzero e = c t^a u^b, or None."""
    b = 0
    if isinstance(E, QuadraticExtension):
        if e.a and e.b:
            return None
        e, b = (e.b, 1) if e.b else (e.a, 0)
    if any(e.num.coeffs[:-1]) or any(e.den.coeffs[:-1]):
        return None
    return e.num.degree() - e.den.degree(), b


def term_rows(E, f, var, target, const):
    """Linear rows stating that f = N/D, a RatFn in `var` over E, is
    homogeneous of weight sum(m * w[name] for name, m in target) + const.

    Each nonzero coefficient c t^a u^b of N at var^j gives the row
    (a + b/2) w[t] + (j - deg D) w[var] = weight of f, with w[u] = w[t]/2;
    those of the monic D give the same row with weight 0.  A row is
    ({name: coefficient}, value).  Returns None when some coefficient is
    not a monomial in t and u.
    """
    rows = []
    d = f.den.degree()
    for poly, goal, value in ((f.num, target, const), (f.den, (), 0)):
        for j, c in enumerate(poly.coeffs):
            if not c:
                continue
            m = _exponents(E, c)
            if m is None:
                return None
            row = {"t": m[0] + Fraction(m[1], 2), var: Fraction(j - d)}
            for name, k in goal:
                row[name] = row.get(name, 0) - k
            rows.append((row, Fraction(value)))
    return rows


def solve_weights(rows):
    """The unique solution {name: weight} of the rows, or None when they
    contradict each other or leave a weight free."""
    names = sorted({name for row, _ in rows for name in row})
    col = {name: i for i, name in enumerate(names)}
    mat = []
    seen = set()
    for row, value in rows:
        vec = [Fraction(0)] * len(names) + [value]
        for name, c in row.items():
            vec[col[name]] += c
        if tuple(vec) not in seen:
            seen.add(tuple(vec))
            mat.append(vec)
    for r in range(len(names)):
        piv = next((i for i in range(r, len(mat)) if mat[i][r]), None)
        if piv is None:
            return None
        mat[r], mat[piv] = mat[piv], mat[r]
        top = [v / mat[r][r] for v in mat[r]]
        mat[r] = top
        for i, vec in enumerate(mat):
            if i != r and vec[r]:
                f = vec[r]
                mat[i] = [a - f * b for a, b in zip(vec, top)]
    if any(vec[-1] for vec in mat[len(names):]):
        return None
    return {name: mat[i][-1] for i, name in enumerate(names)}


def _solve(E, var, rows, terms):
    """(time_point(E), weights) with the weights solved from `rows` and the
    term_rows in `var` of each (f, target, const) of `terms`; None when E
    has no time point, some coefficient is no monomial, or the weights
    contradict or leave one free.  The unit: rows whose solution leaves
    w_t absent, free or 0 are solved again with w_t = 1."""
    time = time_point(E)
    if time is None:
        return None
    for f, target, const in terms:
        more = term_rows(E, f, var, target, const)
        if more is None:
            return None
        rows += more
    weights = solve_weights(rows)
    if not (weights and weights.get("t")):
        weights = solve_weights(rows + [({"t": Fraction(1)}, Fraction(1))])
    return None if weights is None else (time, weights)


class Grading:
    """A TimePoint `time`, the `weights` of a stage run there, and for a
    curve its uniformization `curve` over Q at t0, labelled with the time's
    `point`.  Each method reads only the weights it names."""

    __slots__ = ("time", "weights", "curve")

    def __init__(self, time, weights, curve=None):
        self.time = time
        self.weights = weights
        self.curve = curve

    def omega_weight(self, g, n, key):
        """Weight of the coefficient of prod dz_i/(z_i - s_i)^k_i in
        omega_{g,n}: (w_x + w_y)(2 - 2g - n) + sum w_z (k_i - 1)."""
        w = self.weights
        return ((w["x"] + w["y"]) * (2 - 2 * g - n)
                + w["z"] * sum(k - 1 for _, k in key))

    def restore(self, value, weight):
        """The element c t^a u^b of the given weight whose value at t0 is
        `value`, from w_t; PlanMismatch when no monomial has that weight."""
        time = self.time
        E = time.field
        if not value:
            return E.zero()
        wt = self.weights["t"]
        n = weight / (wt / 2 if time.quad else wt)
        if n.denominator != 1:
            raise PlanMismatch(
                "a nonzero coefficient has weight %s, which no monomial in "
                "%s has" % (weight, E))
        a, b = divmod(n.numerator, 2) if time.quad else (n.numerator, 0)
        T = E.base if time.quad else E
        c = value / time.t0 ** a
        num, den = ([0] * a + [c], [1]) if a >= 0 else ([c], [0] * -a + [1])
        part = RatFn(Poly(QQ, num, T.var), Poly(QQ, den, T.var))
        if not time.quad:
            return part
        zero = T.zero()
        return ExtElem(E, zero, part) if b else ExtElem(E, part, zero)

    def time_derivative(self, U):
        """dt(m, k) for m = M^(k) on the z-line of U at t0, from the Euler
        relation with w_t, w_x and delta, entry by entry, with
        dx = (1/x'(z)) d/dz."""
        w = self.weights
        inv = 1 / (w["t"] * self.time.t0)
        xdx = U.x / U.dx * (w["x"] * inv)
        delta = w["delta"]

        def dt(m, k):
            return Mat2(*(e * ((s * delta - k) * inv) - xdx * e.deriv()
                          if e else e
                          for s, e in zip(ENTRY_SIGNS, m.entries())))
        return dt


def specialization(U):
    """The Grading of a weighted-homogeneous curve over Q(t) or over
    Q(t)[u] with u^2 = c t, with its `curve` over Q at t0; None for every
    other curve.  The weights of t, x and y are solved from the
    coefficients of x(z) and y(z)."""
    wz = Fraction(1 if U.kind == ONE_BRANCH else 0)
    found = _solve(U.field, "z", [({"z": Fraction(1)}, wz)],
                   [(U.x, (("x", 1),), 0), (U.y, (("y", 1),), 0)])
    if found is None:
        return None
    time, weights = found
    at = time.at
    return Grading(time, weights, Uniformization(
        U.kind, QQ, U.zvar, at(U.a), None if U.b is None else at(U.b),
        time.ratfn_at(U.x), time.ratfn_at(U.y), point=time.point))


def flow_grading(iso, lax, ahat, beta):
    """The Grading of L^(k), A-hat^(k) and beta in scaling_plan's units.

    Every nonzero coefficient of every entry must be a monomial c t^a u^b
    over the field of beta whose weight gives the entry the weight
    w_L + s_ij delta - k (w_A for A-hat).  Returns None as the shared solve
    does, so also when the plan gives t weight 0, which the unit w_t = 1
    contradicts; weights with d_x + w_L != 1 raise PlanMismatch.
    """
    plan = scaling_plan(iso.lax.poles, iso.case)
    terms = [(e, ((name, 1), ("delta", s)), -k)
             for name, series in (("L", lax), ("A", ahat))
             for k, m in enumerate(series)
             for s, e in zip(ENTRY_SIGNS, m.entries())]
    terms.append((beta, (("beta", 1),), 0))
    found = _solve(beta.field, "x", [({"t": Fraction(1)}, plan.d_t),
                                     ({"x": Fraction(1)}, plan.d_x)], terms)
    if found is None:
        return None
    time, w = found
    if w["x"] + w["L"] != 1:
        raise PlanMismatch(
            "weights along the flow (x %s, L %s) give hbar d/dx a weight "
            "other than L's" % (w["x"], w["L"]))
    return Grading(time, w)
