"""Determinantal side of the story: the projector-valued series M, the
connected correlators built from its traces, and the battery of exact checks
that identifies those correlators with the topological-recursion
differentials of the classical spectral curve.

Everything is exact, and everything lives on the z-line of the
uniformization.  m_series pulls L^(k), A-hat^(k) and beta back along x(z)
once, and M is solved there as rational functions of z: the square root of
-det A-hat^(0) is -alpha(x(z)) y(z), rational on the z-line, the involution
swaps the sheets, and d/dx is (1/x'(z)) d/dz.  Multi-variable correlators
are separated forms (separated.ProductForm: products of one-variable
functions over powers of x(z_i) - x(z_j)), whose exact zero test runs on
integers over Q.  Whatever depends on the uniformization kind (the
involution, the branch z-points) is read off the Uniformization.

m_series expands L, A-hat and beta along the flow on the tower.  When
grading.flow_grading finds them homogeneous, it maps them to the time t0
where u = 1 first, builds the curve and U once, over Q, and takes M's one
time derivative, in m_next, from that Grading.  On the tower it is d/dt at
fixed x, which is d/dt at fixed z minus (d_t x(z) / x'(z)) d/dz.
correlators and verify_tt then run over Q unchanged; the grading module
says why this is exact, and why rows equal at t0 are equal on the tower.
"""

import itertools

from . import grading
from .errors import (CasePreconditionViolated, DegenerateAZero,
                     IdentityFailed, IndexOutOfRange, TruncationTooShort,
                     UnexpectedPole, UnsolvableInTower)
from .exactmath import (Poly, RatFn, partial_derivation, poly_gcd,
                        split_linear_factors)
from .hamflow import hbar_matrix_series, hbar_series
from .laxsystem import Mat2, assemble
from .separated import ProductForm
from .spectralcurve import (ONE_BRANCH, TWO_BRANCH, classical_curve, pullback,
                            uniformize)
from .toprec import (adjacent_transpositions, eo_differentials,
                     symplectic_invariants)


def beta_factor(aux):
    """The declared denominator of the auxiliary matrix.

    Returns (beta, A-hat) with beta the monic least common denominator of
    the entries and A-hat = beta * A a matrix of polynomials.
    """
    entries = aux.entries()
    some = next(e for e in entries if e is not None)
    field, var = some.field, some.var
    beta = Poly.one(field, var)
    for e in entries:
        g = poly_gcd(beta, e.den)
        beta = beta * (e.den // g)
    lc = beta.coeff(beta.degree())
    beta = beta.map_coeffs(lambda c: c / lc)
    br = RatFn(beta)
    ahat = aux.map(lambda e: e * br)
    for e in ahat.entries():
        if not e.is_poly():
            raise CasePreconditionViolated(
                "common denominator %s fails to clear the auxiliary matrix"
                % beta.to_str(field.to_str))
    return beta, ahat


# --- the projector-valued series M ------------------------------------------

def m_zero(A0, root):
    """Closed form of the leading matrix: 1/2 I + A^(0)/(2 sqrt(-det A^(0))).

    A^(0) is a Mat2 of RatFn in z and `root` the square root of
    -det A^(0) on the z-line, -alpha(x(z)) y(z) for A^(0) = alpha L0, so the
    entries are (1/2) delta_ij - L0_ij(x(z)) / (2 y(z)): the projector onto
    the -y eigenspace of L0.  Any rational prefactor of A^(0) cancels.
    """
    if not -A0.det():
        raise DegenerateAZero("det of the leading auxiliary matrix vanishes")
    den = root + root
    return Mat2(root + A0.a, A0.b, A0.c, root + A0.d).map(lambda e: e / den)


def m_next(k, history, ahat, beta, root, dt):
    """One step of the recursion determining M^(k) from M^(0..k-1).

    `history` holds the earlier coefficients, `ahat` the polynomial
    auxiliary matrix coefficients, `beta` their cleared denominator and
    `root` the square root -alpha y of -det A-hat^(0), all on the z-line
    (m_series), and dt(m, j) the time derivative at fixed x of m = M^(j).
    The commutator equation

        [A-hat^(0), M^(k)] = beta dt M^(k-1) - sum_{j<k} [A-hat^(k-j), M^(j)]

    (the order-k part of beta hbar dt M = [A-hat, M]) is solvable when its
    right side R is trace-free and orthogonal to A = A-hat^(0).  In sl2,
    XY + YX = tr(XY) I, so then [A, [A, R]] = -4 det(A) R, and with the
    multiple of A that the order-k projector identity fixes,
    M^(k) = ([A, R] - 4 root r4 A) / (-4 det A), r4 the (1,1) entry of
    sum_{0<j<k} M^(j) M^(k-j).
    """
    rhs = dt(history[k - 1], k - 1).map(lambda e: e * beta)
    for j in range(k):
        rhs = rhs - ahat[k - j].commutator(history[j])
    if rhs.a + rhs.d:
        raise IdentityFailed("driving term at order %d is not trace-free" % k)
    a0 = ahat[0]
    if (a0.a + a0.a) * rhs.a + a0.c * rhs.b + a0.b * rhs.c:
        raise IdentityFailed(
            "driving term at order %d is not orthogonal to A-hat^(0)" % k)

    m = a0.commutator(rhs)
    r4 = None
    for j in range(1, k):
        piece = history[j].a * history[k - j].a \
            + history[j].b * history[k - j].c
        r4 = piece if r4 is None else r4 + piece
    if r4 is not None:
        s = (root + root) * r4
        m = m - a0.map(lambda e: e * (s + s))
    dinv = (a0.det() * -4).inverse()
    return m.map(lambda e: e * dinv)


class MSeries:
    """Truncated hbar-expansion of the projector-valued solution M.

    mats[k] is M^(k) as a Mat2 of RatFn in U.zvar over U.field; lax, ahat
    and beta are L^(k), the cleared auxiliary coefficients A-hat^(k) and
    their denominator, pulled back to the same z-line once, so correlators
    and the checks never leave it.  `curve` is the classical curve of L^(0)
    and A-hat^(0) in x.  `grading` is the grading.Grading of a series run
    at one time (U.point), else None.
    """

    __slots__ = ("curve", "U", "order", "mats", "lax", "ahat", "beta",
                 "grading")

    def __init__(self, curve, U, order, mats, lax, ahat, beta, grading=None):
        self.curve = curve
        self.U = U
        self.order = order
        self.mats = mats
        self.lax = lax
        self.ahat = ahat
        self.beta = beta
        self.grading = grading

    def coeff(self, k):
        if k < 0:
            raise IndexOutOfRange("M has orders k >= 0, not %d" % k)
        if k > self.order:
            raise TruncationTooShort(
                "M computed to order %d, order %d requested"
                % (self.order, k))
        return self.mats[k]

    def projector_defect(self, k):
        """sum_j M^(j) M^(k-j) - M^(k): zero iff M^2 = M holds at order k."""
        acc = None
        for j in range(k + 1):
            term = self.coeff(j) * self.coeff(k - j)
            acc = term if acc is None else acc + term
        return acc - self.coeff(k)

    def x_defect(self, k):
        """d_x M^(k-1) - sum_{j=0..k} [L^(k-j), M^(j)], d_x = (1/x'(z)) d/dz:
        zero iff hbar d_x M = [L, M] holds at order k >= 1."""
        dx = self.U.dx
        acc = self.coeff(k - 1).map(lambda e: e.deriv() / dx)
        for j in range(k + 1):
            acc = acc - self.lax[k - j].commutator(self.coeff(j))
        return acc

    def trace_defect(self, k):
        tr = self.coeff(k).trace()
        return tr - 1 if k == 0 else tr

    def sheet_defect(self, k):
        """M^(k)(z) + M^(k)(sigma z) minus its required value (I or 0)."""
        m = self.coeff(k)
        both = m + m.map(self.U.apply_sigma)
        if k == 0:
            return Mat2(both.a - 1, both.b, both.c, both.d - 1)
        return both

    def to_json(self):
        fmt = self.U.field.to_str
        out = [{"k": k, "entries": [e.to_str(fmt) for e in m.entries()]}
               for k, m in enumerate(self.mats)]
        return {"order": self.order, "point": self.U.point, "mats": out}


def m_series(iso, flow, order):
    """Drive the whole construction: expand (L, A-hat) along the flow, build
    the classical curve and its uniformization, pull the expansions back to
    the z-line, then recurse M^(0) .. M^(order) there.

    The solved x-equation, the trace, the sheet sum and M^2 = M are checked
    at every order (the identities m_next checks are necessary, not
    sufficient), and the a-posteriori singularity statements are then
    verified: poles of every M^(k) only over branchpoints (and over
    x = infinity when the growth case allows it), with the entry-wise
    degree bounds in the two classified growth cases.  Homogeneous
    expansions (grading.flow_grading) are mapped to Q at their field's time
    point first, and the curve, U and M are built there, once; a U past
    the expansions' field is refused.
    """
    lser = hbar_matrix_series(assemble(iso.lax), flow, order)
    beta_t, ahat_t = beta_factor(iso.aux)
    aser = hbar_matrix_series(ahat_t, flow, order)
    beta_E = _constant_in_hbar(hbar_series(RatFn(beta_t), flow, order))
    graded = grading.flow_grading(iso, lser, aser, beta_E)
    if graded is not None:
        at = graded.time.ratfn_at
        lser = [m.map(at) for m in lser]
        aser = [m.map(at) for m in aser]
        beta_E = at(beta_E)
    curve = classical_curve(lser[0], aser[0])
    U = uniformize(curve)
    if U.field is not curve.field:
        raise UnsolvableInTower("uniformizing needs %s, past the flow's %s"
                                % (U.field, curve.field))
    if graded is None:
        # d/dt at fixed x = d/dt at fixed z - (d_t x(z) / x'(z)) d/dz
        d = partial_derivation(U.field, iso.tname)
        drift = U.x.tderiv(d) / U.dx

        def dt(m, k):
            return m.map(lambda e: e.tderiv(d) - drift * e.deriv())
    else:
        U.point = graded.time.point
        dt = graded.time_derivative(U)

    def on_z(m):
        return m.map(lambda e: pullback(e, U))

    lax = [on_z(m) for m in lser]
    ahat = [on_z(m) for m in aser]
    beta = pullback(beta_E, U)
    root = -pullback(curve.alpha, U) * U.y
    mats = [m_zero(ahat[0], root)]
    for k in range(1, order + 1):
        mats.append(m_next(k, mats, ahat, beta, root, dt))
    mser = MSeries(curve, U, order, mats, lax, ahat, beta, graded)
    for k in range(order + 1):
        if k and mser.x_defect(k):
            raise IdentityFailed(
                "M^(%d) does not solve hbar d_x M = [L, M]" % k)
        for defect in (mser.trace_defect, mser.sheet_defect,
                       mser.projector_defect):
            if defect(k):
                raise IdentityFailed("M^(%d) has a nonzero %s"
                                     % (k, defect.__name__))
    check_singularities(mser)
    return mser


def _constant_in_hbar(ser):
    # the cleared denominator must not pick up hbar terms through the flow
    if any(ser.coeff(j) for j in range(1, ser.prec)):
        raise CasePreconditionViolated(
            "denominator of the auxiliary matrix depends on hbar")
    return ser.coeff(0)


def check_singularities(mser):
    """Poles only over branchpoints, plus the infinity growth bounds."""
    U = mser.U
    E = U.field
    d0 = -mser.curve.A0.det()
    degd = d0.num.degree() if d0.is_poly() else None
    growth = None
    if degd == 2 and U.kind == TWO_BRANCH:
        growth = "bounded"
    elif degd == 1 and U.kind == ONE_BRANCH:
        growth = "half"
    # z = 0 lies over x = infinity on the two-branch z-line; in the bounded
    # case it is not allowed, so a pole there is refused with the others
    allowed = list(U.branch_ints)
    if U.kind == TWO_BRANCH and growth is None:
        allowed.append(0)
    targets = [E.coerce(s) for s in allowed]

    for k, m in enumerate(mser.mats):
        for fz in m.entries():
            if not fz:
                continue
            roots, rest = split_linear_factors(fz.den, hints=allowed)
            if rest.degree() > 0:
                raise UnexpectedPole(
                    "M^(%d) has poles at zeros of %s" % (k, rest.to_str(
                        E.to_str)))
            for r, _ in roots:
                if not any(r == tv for tv in targets):
                    raise UnexpectedPole(
                        "M^(%d) has a pole at z = %s" % (k, E.to_str(r)))
            if growth is None:
                continue
            ddeg = fz.num.degree() - fz.den.degree()
            bound = 0 if growth == "bounded" else (1 if k == 0 else -1)
            if ddeg > bound:
                raise UnexpectedPole(
                    "M^(%d) grows like z^%d at infinity (bound %d)"
                    % (k, ddeg, bound))


# --- connected correlators ---------------------------------------------------

class CorrelatorSeries:
    """Connected n-point correlators, order by order in hbar.

    Stored as coefficients of prod dz_i on the z-line: w1[k] is a plain
    rational function of z; wn[(n, k)] a ProductForm.  Every row, W_1 as a
    one-slot ProductForm, is decomposed over the branchpoint basis by
    ProductForm.to_pbf, which proves the remainder zero.  Basis
    decompositions or their refusals, zero tests and the Bergman check of
    W_2^(0) are kept once proved, so verify_tt and to_json share them.
    """

    __slots__ = ("U", "order", "nmax", "w1", "wn", "_basis", "_zero",
                 "_diagonal")

    def __init__(self, U, order, nmax, w1, wn):
        self.U = U
        self.order = order
        self.nmax = nmax
        self.w1 = w1
        self.wn = wn
        self._basis = {}
        self._zero = {}
        self._diagonal = None

    def form(self, n, k):
        first = -1 if n == 1 else 0
        if n < 1 or k < first:
            raise IndexOutOfRange(
                "W_n has n >= 1 and orders k >= %d, not W_%d^(%d)"
                % (first, n, k))
        if n == 1:
            if k not in self.w1:
                raise TruncationTooShort(
                    "W_1 computed for orders %d..%d" % (-1, self.order - 1))
            return self.w1[k]
        if (n, k) not in self.wn:
            raise TruncationTooShort(
                "W_n computed for 2 <= n <= %d at orders 0..%d"
                % (self.nmax, self.order))
        return self.wn[(n, k)]

    def pole_basis(self, n, k):
        """Decomposition over the branchpoint basis, with zero remainder;
        a row without one raises its recorded UnexpectedPole again."""
        if (n, k) not in self._basis:
            f = self.form(n, k)
            if n == 1:
                f = ProductForm(self.U, 1, [(self.U.field.one(), (f,), {})])
            try:
                self._basis[(n, k)] = f.to_pbf()
            except UnexpectedPole as err:
                self._basis[(n, k)] = err
        got = self._basis[(n, k)]
        if isinstance(got, UnexpectedPole):
            raise got.with_traceback(None)
        return got

    def vanishes(self, n, k):
        """The exact zero test of W_n^(k)."""
        if (n, k) not in self._zero:
            f = self.form(n, k)
            self._zero[(n, k)] = not f if n == 1 else f.is_zero()
        return self._zero[(n, k)]

    def bergman_diagonal(self):
        """_bergman_diagonal of W_2^(0)."""
        if self._diagonal is None:
            self._diagonal = _bergman_diagonal(self.form(2, 0))
        return self._diagonal

    def _basis_json(self, n, k):
        try:
            return {"kind": "pole-basis",
                    "rows": self.pole_basis(n, k).to_json()}
        except UnexpectedPole as err:
            return {"kind": "no-basis", "reason": str(err)}

    def to_json(self):
        """Each row's pole-basis decomposition, or what was proved of it: a
        row is "vanishing" only when the exact zero test proves it, and
        W_2^(0) gets the Bergman label only when (z1 - z2)^2 W_2^(0) = 1."""
        E = self.U.field
        out = {"order": self.order, "nmax": self.nmax, "point": self.U.point,
               "correlators": {}}
        ks = sorted(self.w1)
        for k in ks:
            tag = "1,%d" % k
            if k >= 1 and (k - 1) % 2 == 0:
                out["correlators"][tag] = self._basis_json(1, k)
            else:
                out["correlators"][tag] = {
                    "kind": "closed",
                    "value": self.w1[k].to_str(E.to_str)}
        for (n, k) in sorted(self.wn):
            tag = "%d,%d" % (n, k)
            if (n, k) == (2, 0):
                out["correlators"][tag] = {
                    "kind": "two-point",
                    "diagonal": "double pole, matches the Bergman kernel"
                    if self.bergman_diagonal()
                    else "differs from the Bergman kernel"}
            elif (k - n) % 2 == 0 and k >= 1:
                out["correlators"][tag] = self._basis_json(n, k)
            else:
                out["correlators"][tag] = {
                    "kind": "vanishing" if self.vanishes(n, k)
                    else "nonzero"}
        return out


def correlators(mser, nmax):
    """Traces of products of M against the cyclic coupling denominators.

    W_1 = Tr(L M) dx / hbar; for n >= 2 the correlator follows the
    convention of Bergere-Eynard (arXiv:0901.3273),

        W_n = - sum over n-cycles s of Tr(M(x_i) M(x_s(i)) M(x_s^2(i)) ...)
                / prod_i (x_i - x_s(i)),

    with the prefactor -1 for every n.  Coefficients are returned times
    prod x'(z_i), i.e. as coefficients of prod dz_i.
    """
    order = mser.order
    U = mser.U
    E = U.field
    xp = U.dx
    ents = [[e * xp for e in m.entries()] for m in mser.mats]

    w1 = {}
    for k in range(-1, order):
        tot = RatFn.zero(E, U.zvar)
        for j in range(k + 2):
            tot = tot + _trace_product(mser.lax[j], mser.mats[k + 1 - j])
        w1[k] = tot * xp

    wn = {}
    pref = -E.one()
    for n in range(2, nmax + 1):
        for k in range(order + 1):
            pf = ProductForm(U, n)
            for tail in itertools.permutations(range(1, n)):
                arr = (0,) + tail
                coup = {}
                sgn = pref
                for m in range(n):
                    i, j = arr[m], arr[(m + 1) % n]
                    if i > j:
                        i, j = j, i
                        sgn = -sgn
                    coup[(i, j)] = coup.get((i, j), 0) + 1
                for js in _compositions(k, n):
                    for path in itertools.product((0, 1), repeat=n):
                        facs = [None] * n
                        dead = False
                        for m in range(n):
                            f = ents[js[m]][2 * path[m] + path[(m + 1) % n]]
                            if not f:
                                dead = True
                                break
                            facs[arr[m]] = f
                        if dead:
                            continue
                        pf.add(sgn, facs, coup)
            wn[(n, k)] = pf
    return CorrelatorSeries(U, order, nmax, w1, wn)


def _trace_product(m, n):
    """Tr(m n), in four products."""
    return m.a * n.a + m.b * n.c + m.c * n.b + m.d * n.d


def _compositions(k, n):
    if n == 1:
        yield (k,)
        return
    for head in range(k + 1):
        for rest in _compositions(k - head, n - 1):
            yield (head,) + rest


# --- the verification battery ------------------------------------------------

def verify_tt(mser, cors):
    """Run the six defining checks and the recursion comparison.

    Returns a JSON-ready report: per-clause {pass, witnesses}, the
    differential-by-differential equality table, and an overall verdict.
    The clauses are: 1 the uniformization certificate, 2 the symmetry of
    every W_n, 3 the vanishing of parity-odd orders, 4 the decomposition
    over the branchpoint basis with zero remainder, 5 the vanishing of
    W_n^(k) for k < n - 2, and 6 W_2^(0) as the Bergman kernel.

    Each row is proved once per clause it belongs to, in one pass, and
    clause 2 is read off those proofs: a row that clause 3 or 5 proves
    zero is symmetric; a row that clause 4 decomposes equals its
    PoleBasisForm, so it is symmetric exactly when is_symmetric says so;
    W_2^(0) is symmetric when clause 6 proves W_2^(0) (z1 - z2)^2 = 1.  Only
    a row that none of these proves symmetric gets the separated test of
    pf - pf.permuted(tau) for each adjacent transposition tau.

    The leading one-form of the correlators is -y dx, so they are
    compared with the recursion on the sheet-flipped curve; relabelling the
    sheets multiplies omega_{g,n} by (-1)^n, so the recursion runs on U
    and its tables are scaled by that sign.  For a series run at one time
    (mser.grading) rows equal at t0 are equal on the tower (see grading).
    """
    U = mser.U
    E = U.field
    clauses = {str(i): {"pass": True, "witnesses": []} for i in range(1, 7)}

    fmtpoint = [E.to_str(s) for s in U.branch_zpoints]
    clauses["1"]["certificate"] = {
        "kind": U.kind, "branch_zpoints": fmtpoint,
        "reduced_degree": mser.curve.reduced.degree()}

    def fail(clause, witness):
        clauses[clause]["pass"] = False
        clauses[clause]["witnesses"].append(witness)

    two_ok = _bergman_match(mser, cors)
    if not two_ok:
        fail("6", {"n": 2, "k": 0,
                   "reason": "W_2^(0) differs from the Bergman kernel"})

    for (n, k) in _all_rows(cors):
        f = cors.form(n, k)
        odd = (k - n) % 2
        # clauses 3 and 5: wrong parity, or below W_n^(k) = 0 for k < n - 2
        zero = False
        if odd or k < n - 2:
            zero = cors.vanishes(n, k)
            if not zero and odd:
                fail("3", {"n": n, "k": k,
                           "reason": "nonzero at parity-odd order"})
            if not zero and k < n - 2:
                fail("5", {"n": n, "k": k,
                           "reason": "nonzero below leading order"})
        symmetric = zero or ((n, k) == (2, 0) and two_ok)
        # clause 4: every other row from k = 1 on decomposes over the
        # branchpoint basis with zero remainder, so it equals that form
        basis_asymmetric = False
        if k >= 1 and not odd:
            try:
                pbf = cors.pole_basis(n, k)
            except UnexpectedPole as err:
                fail("4", {"n": n, "k": k, "reason": str(err)})
            else:
                basis_asymmetric = not pbf.is_symmetric()
                symmetric = symmetric or not basis_asymmetric
        if n >= 2 and not symmetric:
            for tau in adjacent_transpositions(n):
                if not (f - f.permuted(tau)).is_zero():
                    fail("2", {"n": n, "k": k, "perm": tau, "reason":
                               "not symmetric under the transposition"})
                    break
        if basis_asymmetric:
            fail("2", {"n": n, "k": k,
                       "reason": "basis decomposition asymmetric"})

    tr_rows = {}
    stable = list(_stable_rows(cors))
    if stable:
        gmax = max(g for g, _ in stable)
        nmax = max(n for _, n in stable)
        eo = eo_differentials(U, gmax, nmax)

    lead = cors.w1.get(-1)
    if lead is not None:
        tr_rows["0,1"] = {"pass": lead == -(U.y * U.dx)}
    if (2, 0) in cors.wn:
        tr_rows["0,2"] = {"pass": two_ok}
    for g, n in stable:
        key = "%d,%d" % (g, n)
        try:
            mine = cors.pole_basis(n, 2 * g - 2 + n)
        except UnexpectedPole:
            tr_rows[key] = {"pass": False,
                            "reason": "no basis decomposition"}
            continue
        want = eo.omega(g, n).scaled(E.coerce((-1) ** n))
        tr_rows[key] = {"pass": mine == want}

    ok = all(c["pass"] for c in clauses.values()) \
        and all(r["pass"] for r in tr_rows.values())
    return {"clauses": clauses, "tr_equality": tr_rows, "pass": ok}


def _all_rows(cors):
    for k in sorted(cors.w1):
        yield (1, k)
    for (n, k) in sorted(cors.wn):
        yield (n, k)


def _stable_rows(cors):
    """The (g, n) pairs whose coefficient is computed: k = 2g - 2 + n."""
    for (n, k) in _all_rows(cors):
        if (k - n) % 2:
            continue
        g = (k + 2 - n) // 2
        if g < 0 or (g, n) in ((0, 1), (0, 2)):
            continue
        yield (g, n)


def _bergman_diagonal(pf):
    """W_2^(0) (z1 - z2)^2 = 1 for the two-point form pf, checked exactly."""
    U = pf.U
    z = RatFn.gen(U.field, U.zvar)
    one = RatFn.one(U.field, U.zvar)
    two = U.field.coerce(2)
    check = ProductForm(U, 2)
    for coef, (f1, f2), coup in pf.terms:
        check.add(coef, [f1 * z * z, f2], coup)
        check.add(-coef * two, [f1 * z, f2 * z], coup)
        check.add(coef, [f1, f2 * z * z], coup)
    check.add(-U.field.one(), [one, one])
    return check.is_zero()


def _bergman_match(mser, cors):
    """_bergman_diagonal, together with the vanishing of the sheet-reflected
    trace that makes the diagonal double pole the whole singularity; True
    when no W_2^(0) was computed (verify_tt then reports no row "0,2")."""
    U = mser.U
    if (2, 0) not in cors.wn:
        return True
    if not cors.bergman_diagonal():
        return False

    m0 = mser.mats[0]
    return not _trace_product(m0, m0.map(U.apply_sigma))


# --- the tau-series ----------------------------------------------------------

class TauSeries:
    """log tau as a truncated series in hbar^2, genus two and up.

    The genus-0 and genus-1 terms need regularized integrals that live
    outside the exact tower; they are reported as missing rather than
    approximated.  Every coefficient is defined up to a t-independent
    constant.
    """

    __slots__ = ("field", "terms", "missing", "caveat")

    def __init__(self, field, terms):
        self.field = field
        self.terms = terms
        self.missing = ["F_0", "F_1"]
        self.caveat = "each genus coefficient is defined up to a constant"

    def coeff(self, power):
        """F_g, the coefficient of hbar^power with power = 2g - 2."""
        if power % 2 or power < 2:
            raise IndexOutOfRange(
                "log tau holds F_g at even powers 2g - 2 with g >= 2, "
                "not at hbar^%d" % power)
        if power not in self.terms:
            raise TruncationTooShort(
                "F_%d lies past the genera of the recursion"
                % (power // 2 + 1))
        return self.terms[power]

    def d_dt(self):
        """Term-by-term time derivative, which is constant-independent."""
        return {p: self.field.diff(v) for p, v in self.terms.items()}

    def to_json(self):
        fmt = self.field.to_str
        return {"log_tau": {str(p): fmt(v)
                            for p, v in sorted(self.terms.items())},
                "missing": self.missing,
                "caveat": self.caveat,
                "d_dt": {str(p): fmt(v)
                         for p, v in sorted(self.d_dt().items())}}


def tau_series(eo):
    """Assemble log tau = sum F_g hbar^(2g-2) from the stable invariants."""
    fs = symplectic_invariants(eo)
    terms = {2 * g - 2: v for g, v in fs.items()}
    return TauSeries(eo.U.field, terms)
