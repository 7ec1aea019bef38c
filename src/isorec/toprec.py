"""Eynard-Orantin topological recursion on a uniformized genus-zero curve.

Stable correlation forms are stored in a finite pole basis at the branch
z-points: an n-variable differential

    sum_idx  c_idx * prod_i dz_i / (z_i - s_i)^(k_i)

becomes the sparse table {((s_1,k_1),...,(s_n,k_n)): c_idx}.  Branch
z-points are always 0 (one ramification point) or +-1 (two), so the s
entries are plain ints.  omega_{0,1} = y dx and the Bergman kernel
omega_{0,2} = dz1 dz2/(z1-z2)^2 stay implicit; they enter the recursion
through closed-form local expansions, never through the table.

The recursion runs in coefficient form.  Near a branch point s, with
w = z - s and wt = sigma(z) - s, the kernel numerator expands as

    1/(z0-z) - 1/(z0-sigma(z)) = sum_{m>=1} (w^m - wt^m) / (z0-s)^(m+1),

so every residue lands directly on basis elements in the z0 slot.  Each
term of the bracket is a field scalar times f_a(z) f_b(sigma z), where a
factor f is a basis element or one term of omega_{0,2}'s expansion, and the
residue of K(z0,z) f_a(z) f_b(sigma z) is a fixed vector over the basis
elements dz0/(z0-s)^(m+1) that depends only on the curve.  BranchWindow
computes that residue row once per unordered pair of factors from exact
Laurent windows; a form's table is then a contraction, scalar times row,
summed into dicts.  Poles of order one never arise (m starts at 1):
computed forms are residue-free by construction, and the invariant checks
verify symmetry and involution anti-invariance on top of that.

Most pairs of factors have an empty row, and the recursion does not look
them up.  With S = f_a(z) f_b(sigma z)/(4 y x'), the entry r_m reads S only
at exponents -1-m and -1-j for j >= m >= 1 (wt^m starts at w^m), all at
most -2; S has valuation v_a + v_b, v_a that of f_a/(4 y x') and v_b that
of f_b(sigma z).  A pair with v_a + v_b >= -1 therefore has an empty row,
and skipping it is exact: it adds nothing to any coefficient.  The
valuations are known in closed form, so no window is built to find them:
s is a simple fixed point of sigma (wt has valuation 1, sigma'(s) = -1)
and 4 y x' has a double zero there, so a basis element at s of order k
has v_a = -k-2 and v_b = -k, one at the other branch point v_a = -2 and
v_b = 0, and omega_{0,2}'s m-th term v_a = m-2 and v_b = m.

The windows are as long as the top row needs.  omega_{g,n} has poles of
order at most 6g-4+2n, and a row that writes order m+1 reads S down to
exponent -1-m; the windows are cut at prec = 2(3 gmax - 2 + nmax), the
largest such order among the computed forms, and a row whose S is not
known far enough raises TruncationTooShort instead of reading a zero that
is not known.  A run with no stable form (gmax = 0, nmax <= 2) builds no
window.

The bracket is symmetric under swapping its two factors together with
z <-> sigma(z).  The kernel numerator and 2 (y(z) - y(sigma z)) dx both
change sign under sigma, so K(z0, sigma z) = K(z0, z), and a residue at a
fixed point of sigma does not change under sigma^*; so the residue row of
(a, b) is the row of (b, a), exactly.  BranchWindow.row builds it once and
caches it under both orders.

omega_{g,n} is symmetric, and the recursion computes only its canonical
keys, those whose free slots 1..n-1 are sorted.  At such a key with free
slots R, a split of the free slots between the bracket's two factors is a
split of the multiset R into A and B, and prod_v C(m_R(v), m_A(v)) splits
give the same A: that count is an integer weight, which _contract folds
into the numerators.  A term and its mirror (the same factors on swapped
sheets) add the same amounts, so each mirror class is visited once, its
weight doubled: the splits of genus and size (g1, |A|) < (g2, |B|), and the
keys (a, b, J) of omega_{g-1,n+1} with a < b, read with J sorted off the
canonical key (a, R) for each distinct b in R; the split class that is its
own mirror (g1 = g2, |A| = |B|) and the keys with a = b keep weight one.
Symmetry in slots 1..n-1 holds by construction, and with it the swaps of
slots 0 and i generate every permutation, so _verify_form checks those on
the canonical table: (k0, R) must hold the value of (v, sorted(R - v + k0))
for every distinct v in R.  The involution in slot 0 keeps a key
canonical, so anti-invariance is checked there as well.  Each verified
form (restored, on a graded curve) is kept canonical, and expanded once
into the full table when read (RecursionResult.omega), each distinct
ordering of R written once.  The coefficients are the ones the full
recursion gives; a table's keys may come in another order, which no output
shows (to_json sorts them).

A curve over Q(t) or Q(t)[u], u^2 = c t, whose x(z) and y(z) are weighted-
homogeneous (Painleve I is) is run over Q instead, at the time t0 where
u = 1 (grading.specialization), checks included, and each coefficient is
restored from its weight (Grading.omega_weight); the grading module says
why this is exact.  symplectic_invariants reads the restored tables on the
tower.

The residue rows and the contraction are one kernel on every field.  Each
window a row reads (the factors on either sheet, 1/(4 y x'), sigma', wt^m
and omega_{0,2}(z, sigma z)) is built once, when a row first reads it, in
exactmath's cleared form (integer numerators in lowest terms over one
denominator over Q, the coefficients over 1 elsewhere): powers and products
by cleared_product, inverses by cleared_inverse.  S is the product of two
of them (cleared_product, as in Series.__mul__) at the exponents a row
reads only.  A row (BranchWindow.row) is numerators over one denominator,
each a dot product of the numerators of S and of wt^m; the contraction sums
the numerators of c1 c2 r_m per key over the lcm of their denominators.
Over Q no window builds a Series product or a Fraction, and no Fraction is
built before the contraction writes one per key;
Fraction is canonical, so the tables, and every output printed from them,
are those of Fraction arithmetic, with one reduction per coefficient
instead of one per operation.  The symmetry and involution checks of a
table over Q read its integer numerators over the lcm of its denominators.
"""

from fractions import Fraction
from math import comb, gcd, lcm

from . import grading
from .errors import (IndexOutOfRange, InvalidPoleStructure,
                     NonSimpleBranchpoint, TruncationTooShort)
from .exactmath import (QQ, RatFn, cleared, cleared_inverse,
                        cleared_product, integer_numerators, local_expand)
from .spectralcurve import ONE_BRANCH

# factor-id tag of the m-th term of omega_{0,2}'s expansion at a branch point
W02 = "w02"


def adjacent_transpositions(n):
    """The swaps of slots i and i+1 as permutation lists.

    They generate the symmetric group, so a form invariant under each of
    them is invariant under every permutation.
    """
    for i in range(n - 1):
        tau = list(range(n))
        tau[i], tau[i + 1] = i + 1, i
        yield tau


def sigma_slot_image(kind, s, k):
    """Expansion of dz/(z-s)^k composed with the involution.

    Returns [(k', c), ...] meaning xi_{s,k}(sigma(z)) = sum c * xi_{s,k'}(z).
    The image stays at the same branch point (branch points are fixed), and
    never contains k' = 1, so the basis is closed under the involution.
    """
    if k < 2:
        raise InvalidPoleStructure("basis order %d has a residue" % k)
    if kind == ONE_BRANCH:
        # sigma(z) = -z:  xi_{0,k}(-z) = (-1)^(k+1) xi_{0,k}(z)
        return [(k, -1 if k % 2 == 0 else 1)]
    # sigma(z) = 1/z:  xi_{s,k}(sigma z) = -(-s)^k z^(k-2) dz/(z-s)^k
    sign = -((-s) ** k)
    out = []
    for j in range(k - 1):
        c = sign * comb(k - 2, j) * s ** (k - 2 - j)
        out.append((k - j, c))
    return out


class PoleBasisForm:
    """Sparse n-variable differential over the branch-point pole basis."""

    __slots__ = ("field", "n", "table")

    def __init__(self, field, n, table=None):
        self.field = field
        self.n = n
        self.table = {}
        for key, c in (table or {}).items():
            self.add_term(key, c)

    def add_term(self, key, c):
        if len(key) != self.n:
            raise InvalidPoleStructure(
                "index %r has %d slots, form has %d" % (key, len(key), self.n))
        cur = self.table.get(key)
        c = c if cur is None else cur + c
        if c:
            self.table[key] = c
        elif cur is not None:
            del self.table[key]

    def __eq__(self, other):
        return (isinstance(other, PoleBasisForm) and self.n == other.n
                and self.table == other.table)

    def _like(self, table):
        """A form of the same shape holding table, whose values are nonzero."""
        out = PoleBasisForm(self.field, self.n)
        out.table = table
        return out

    def scaled(self, c):
        if not c:
            return self._like({})
        return self._like({key: v * c for key, v in self.table.items()})

    def is_symmetric(self):
        """Invariance under each swap of adjacent slots, read off the table:
        every key's swapped key holds the same value."""
        table = self.table
        for i in range(self.n - 1):
            for key, v in table.items():
                if key[i] != key[i + 1] and table.get(
                        key[:i] + (key[i + 1], key[i]) + key[i + 2:]) != v:
                    return False
        return True

    def involution_image(self, kind, i):
        """Substitute z_i -> sigma(z_i), staying inside the basis.

        The image's coefficients are ints, so the values may be field
        elements or plain ints."""
        images = {}
        out = {}
        for key, v in self.table.items():
            slot = key[i]
            image = images.get(slot)
            if image is None:
                image = images[slot] = [((slot[0], k2), c) for k2, c
                                        in sigma_slot_image(kind, *slot)]
            head, tail = key[:i], key[i + 1:]
            for slot2, c in image:
                key2 = head + (slot2,) + tail
                cur = out.get(key2)
                out[key2] = v * c if cur is None else cur + v * c
        return self._like({key: v for key, v in out.items() if v})

    def has_residue_term(self):
        return any(k == 1 for key in self.table for _, k in key)

    def to_json(self):
        """The terms in key order (tuples of pairs sort as their lists)."""
        to_str, table = self.field.to_str, self.table
        return [{"idx": [[s, k] for s, k in key], "coef": to_str(table[key])}
                for key in sorted(table)]


def xi_ratfn(field, var, s, k):
    """The basis element dz/(z-s)^k as a rational function (dz dropped)."""
    zg = RatFn.gen(field, var)
    one = RatFn.one(field, var)
    return one / (zg - s * one) ** k


class BranchWindow:
    """Residue rows at one branch z-point.

    Every term of the recursion's bracket is a product of two factors, one
    at z = s + w (sheet 0) and one at sigma(z) (sheet 1), times a field
    scalar.  A factor is a basis element (s', k), i.e. dz/(z-s')^k, or the
    m-th term (W02, m) of omega_{0,2}'s expansion about the branch point,
    w^m dz without its scalar m+1.  The residue of K(z0,z) times such a
    product depends only on the curve and the unordered pair of factor
    ids, so it is computed once per run and kept as a residue row: the
    pairs (m, r_m) with

        Res_{z->s} K(z0,z) f_a(z) f_b(sigma z) = sum_m r_m dz0/(z0-s)^(m+1).

    A row reads two windows (window): f_a(z)/(4 y x') on sheet 0 and
    f_b(sigma z) sigma' on sheet 1.  They are built from wt = sigma(z)-s
    (sig, expanded from the uniformization's sigma), from sigma' and from
    the inverse of 4 y x', whose double zero at the branch point is the
    simplicity requirement.  The powers of wt, (z-s')^-k on either sheet,
    sigma', 1/(4 y x') and the factor windows are kept cleared, as (kmin,
    prec, numerators, denominator) in exactmath's product kernel, each
    built once, from the last power or by one cleared_product or
    cleared_inverse, when a row first reads it; omega_{0,2}'s diagonal
    (bergman_diag, read by one row) from the inverse of w - wt and two
    products.  Over Q their numerators are integers in lowest terms, and
    none of them builds a Series product or a Fraction; elsewhere they are
    the coefficients over 1.  On sheet 0 a factor at s or of omega_{0,2} is
    a power of w, and its window is the shifted window of 1/(4 y x').

    A row reads S = f_a f_b/(4 y x') only at exponents <= -2, so it is empty
    when valuation(a, 0) + valuation(b, 1) >= -1; the recursion asks for no
    such pair.  valuation is in closed form and builds no window.  row()
    takes S at the exponents kmin..-2 only, with the product kernel that
    Series.__mul__ runs: S has that product's kmin and prec.

    How far each window is known follows from prec: wt below exponent
    prec+2, sigma' and 4 y x' below prec+1, s-s'+w below prec, and every
    inverse and product as far as its operands carry it (Series' rule).
    prec below 2 is refused: the double zero of 4 y x' sits at exponent 2,
    and a shorter expansion would take it for a zero of higher order.
    """

    __slots__ = ("field", "s", "point", "prec", "rational", "sig",
                 "sig_prime", "dinv", "w02_terms", "_windows", "_sig_pows",
                 "_inv_pows", "_rows", "_known")

    def __init__(self, U, s, prec):
        if prec < 2:
            raise TruncationTooShort(
                "a branch window to exponent %d cannot see the double zero "
                "of 4 y x' at exponent 2" % prec)
        E = U.field
        self.field = E
        self.s = s
        self.point = E.coerce(s)
        self.prec = prec
        self.rational = rational = E is QQ
        self.sig = local_expand(U.sigma - self.point, self.point, prec + 1)
        self.sig_prime = cleared(self.sig.deriv(), rational)
        dd = local_expand((U.y * U.dx) * 4, self.point, prec)
        if (not dd) or dd.valuation() != 2:
            raise NonSimpleBranchpoint(
                "omega_{0,1}(z) - omega_{0,1}(sigma z) vanishes to order %s "
                "at z=%s (order 2 required)"
                % (dd.valuation() if dd else "all", s))
        self.dinv = cleared_inverse(cleared(dd, rational), rational)
        # omega_{0,2}(z, z1) = sum_m (m+1) w^m dz dz1/(z1-s)^(m+2)
        self.w02_terms = [((W02, m), E.coerce(m + 1), ((s, m + 2),))
                          for m in range(prec)]
        self._windows = {}
        self._sig_pows = {1: cleared(self.sig, rational)}
        self._inv_pows = {}
        self._rows = {}
        self._known = set()

    def _product(self, x, y):
        """cleared_product of two windows; over Q in lowest terms."""
        kmin, prec, nums, den = cleared_product(x, y, 0)
        if self.rational:
            common = gcd(den, *nums)
            if common > 1:
                nums = [c // common for c in nums]
                den //= common
        return kmin, prec, nums, den

    def sig_pow(self, m):
        """The window of wt^m, each power one product from the last."""
        out = self._sig_pows.get(m)
        if out is None:
            out = self._sig_pows[m] = self._product(self.sig_pow(m - 1),
                                                    self._sig_pows[1])
        return out

    def _inv_pow(self, s2, sheet, k):
        """The window of (z-s2)^-k at z = s+w (sheet 0) or sigma(z) (sheet
        1), each power one product from the last."""
        out = self._inv_pows.get((s2, sheet, k))
        if out is None:
            if k > 1:
                out = self._product(self._inv_pow(s2, sheet, k - 1),
                                    self._inv_pow(s2, sheet, 1))
            else:
                lift = int if self.rational else self.field.coerce
                if sheet == 0:
                    # s - s2 + w, its numerators from exponent 2 on zero
                    base = (0, self.prec, [lift(self.s - s2), lift(1)], 1)
                elif s2 == self.s:
                    base = self._sig_pows[1]
                else:
                    # s - s2 + wt
                    _, prec, nums, den = self._sig_pows[1]
                    base = (0, prec, [lift((self.s - s2) * den)] + nums, den)
                out = cleared_inverse(base, self.rational)
            self._inv_pows[(s2, sheet, k)] = out
        return out

    def window(self, fid, sheet):
        """The window a row reads for the factor fid, built once: f(z)/(4 y
        x') on sheet 0, f(sigma z) sigma' on sheet 1."""
        out = self._windows.get((fid, sheet))
        if out is None:
            tag, k = fid
            if sheet == 1:
                if tag == W02:
                    out = (self._product(self.sig_pow(k), self.sig_prime)
                           if k else self.sig_prime)
                else:
                    out = self._product(self._inv_pow(tag, 1, k),
                                        self.sig_prime)
            elif tag == W02 or tag == self.s:
                # w^k or w^-k times 1/(4 y x')
                kmin, prec, nums, den = self.dinv
                shift = k if tag == W02 else -k
                out = (kmin + shift, prec + shift, nums, den)
            else:
                out = self._product(self._inv_pow(tag, 0, k), self.dinv)
            self._windows[(fid, sheet)] = out
        return out

    def valuation(self, fid, sheet):
        """The first exponent of window(fid, sheet), without building it.

        sigma(z) - s has valuation 1 and sigma'(s) = -1 (s is a simple fixed
        point), so dz/(z-s')^k is of valuation -k at s' = s and 0 elsewhere
        on either sheet, and omega_{0,2}'s w^k dz of valuation k; on sheet 0,
        1/(4 y x') adds -2.  The row of (a, b) can be nonempty only when
        valuation(a, 0) + valuation(b, 1) <= -2.
        """
        tag, k = fid
        v = k if tag == W02 else -k if tag == self.s else 0
        return v - 2 if sheet == 0 else v

    def bergman_diag(self):
        """omega_{0,2}(z, sigma z) / dz^2 as a window: wt'/(w - wt)^2."""
        kmin, prec, nums, den = self._sig_pows[1]  # wt = -w + ..., kmin 1
        gap = cleared_inverse((kmin, prec, [den - nums[0]] + [
            -c for c in nums[1:]], den), self.rational)
        return self._product(self.sig_prime, self._product(gap, gap))

    def _check_known(self, kmin, prec):
        """Refuse a window S (first exponent kmin, known below prec) unless
        exponent -1 of wt^m S is known for every m a row entry reads.  A
        (kmin, prec) that passed is not checked again."""
        if (kmin, prec) in self._known:
            return
        for m in range(1, -kmin):
            sk, sp, _, _ = self.sig_pow(m)
            known = min(sp + kmin, prec + sk)
            if known <= -1:
                raise TruncationTooShort(
                    "residue of wt^%d S needs exponent -1, known below %d"
                    % (m, known))
        self._known.add((kmin, prec))

    def row(self, a, b):
        """The residue row as (den, [(m, R_m), ...]) with r_m = R_m / den,
        or () when the row is empty.  Each R_m is a dot product of the
        numerators of S and of wt^m, and the row shares one denominator:
        over Q the numerators are integers and the row is divided by their
        gcd, over any other field they are the coefficients and den is 1.

        S is cleared_product of window(a, 0) and window(b, 1), taken only
        at the exponents kmin..-2 a row entry reads; it is refused unless it
        is known far enough for every entry (_check_known).  (b, a) has
        the same row, and the row is cached under both orders.
        """
        row = self._rows.get((a, b))
        if row is not None:
            return row
        if a is None:
            left, right = self.bergman_diag(), self.dinv
        else:
            left, right = self.window(a, 0), self.window(b, 1)
        kmin, prec, snum, sden = cleared_product(left, right, 0, -1)
        entries = []
        if kmin < -1:
            self._check_known(kmin, prec)
            parts = []
            for m in range(1, -kmin):
                j0, _, wnum, wden = self.sig_pow(m)
                # r_m sden wden = S_{-1-m} wden - sum_j (wt^m)_j S_{-1-j}
                top = max(0, -j0 - kmin)
                dot = sum(c * v for c, v in zip(wnum, reversed(snum[:top])))
                parts.append((m, snum[-1 - m - kmin] * wden - dot, wden))
            scale = lcm(*[wden for _, _, wden in parts])
            entries = [(m, r * (scale // wden)) for m, r, wden in parts if r]
        row = ()
        if entries:
            den = sden * scale
            if self.rational:
                common = gcd(den, *[r for _, r in entries])
                den = den // common
                entries = [(m, r // common) for m, r in entries]
            row = (den, entries)
        self._rows[(a, b)] = self._rows[(b, a)] = row
        return row


class RecursionResult:
    """All omega_{g,n} with 2g-2+n <= 2*gmax-2+nmax and g <= gmax, as the
    canonical tables the recursion computed; omega(g, n) is the full one,
    expanded at the first read and the same form at every later one."""

    __slots__ = ("U", "gmax", "nmax", "prec", "omegas", "_full", "F")

    def __init__(self, U, gmax, nmax, prec, omegas):
        self.U = U
        self.gmax = gmax
        self.nmax = nmax
        self.prec = prec
        self.omegas = omegas
        self._full = {}
        self.F = {}

    def omega(self, g, n):
        if (g, n) not in self._full:
            form = self.omegas[(g, n)]
            self._full[(g, n)] = form._like(_expanded(form.table))
        return self._full[(g, n)]

    def to_json(self):
        out = {"omegas": {}, "F": {}}
        for (g, n) in sorted(self.omegas):
            out["omegas"]["%d,%d" % (g, n)] = self.omega(g, n).to_json()
        for g in sorted(self.F):
            out["F"][str(g)] = self.U.field.to_str(self.F[g])
        return out


def _factor_terms(win, omegas, g, nfree):
    """Factors of omega_{g,1+nfree} with its first slot at the branch point
    and the remaining slots at free outer variables.

    Returns (factor id, scalar, free-slot keys) triples, read off the
    canonical table, so the free-slot keys are sorted; omega_{0,2} with one
    free variable expands through its pole at the branch point,
    contributing basis orders m+2 at the free slot.
    """
    if g == 0 and nfree == 1:
        return win.w02_terms
    return [(key[0], c, key[1:]) for key, c in omegas[(g, 1 + nfree)].items()]


def _merge(A, B):
    """The sorted union R of two sorted tuples of slot keys, and the number
    of ways to place A's keys among R's slots: prod_v C(m_R(v), m_A(v))
    over the keys v the two share (the others place in one way)."""
    R = tuple(sorted(A + B))
    weight = 1
    for v in set(A).intersection(B):
        weight *= comb(R.count(v), A.count(v))
    return R, weight


def _residue_contributions(win, omegas, g, n, table):
    """Add Res_{z->s} K(z0,z) [ ... ] to the canonical table of omega_{g,n}.

    Each bracket term is a pair of factor ids with two scalars, the sorted
    keys R of its free slots and an integer weight; it adds weight *
    scalars * r_m at ((s, m+1),) + R for every entry (m, r_m) of the pair's
    residue row.  Terms are kept with their rows (BranchWindow.row), and
    only when the row is not empty; a pair whose valuations sum above -2 is
    not visited (its row is empty).  The weight counts the splits of the
    free slots that a term stands for, times 2 for a mirror class visited
    once (the module docstring has both).
    """
    one = win.field.one()
    terms = []

    def add(a, b, c1, c2, rest, weight):
        row = win.row(a, b)
        if row:
            terms.append((row, c1, c2, rest, weight))

    if (g - 1, n + 1) == (0, 2):
        add(None, None, one, one, (), 1)
    elif g >= 1:
        for key, c in omegas[(g - 1, n + 1)].items():
            a, tail = key[0], key[1:]
            bound = -2 - win.valuation(a, 0)
            for i, b in enumerate(tail):
                if ((i and b == tail[i - 1]) or b < a
                        or win.valuation(b, 1) > bound):
                    continue
                add(a, b, c, one, tail[:i] + tail[i + 1:], 1 if a == b else 2)
    reach = {}
    merged = {}

    def right_terms(g2, nfree, bound):
        """The factors of omega_{g2,1+nfree} of valuation <= bound on sheet
        1, in bracket order."""
        out = reach.get((g2, nfree, bound))
        if out is None:
            out = reach[(g2, nfree, bound)] = [
                t for t in _factor_terms(win, omegas, g2, nfree)
                if win.valuation(t[0], 1) <= bound]
        return out

    for g1 in range(g + 1):
        g2 = g - g1
        for r1 in range(n):
            r2 = n - 1 - r1
            if (g1 == 0 and not r1) or (g2 == 0 and not r2):
                continue  # omega_{0,1} factors are excluded
            if (g1, r1) > (g2, r2):
                continue  # visited as its mirror
            mirror = 1 if (g1, r1) == (g2, r2) else 2
            for a, c1, A in _factor_terms(win, omegas, g1, r1):
                for b, c2, B in right_terms(g2, r2,
                                            -2 - win.valuation(a, 0)):
                    split = merged.get((A, B))
                    if split is None:
                        split = merged[(A, B)] = _merge(A, B)
                    add(a, b, c1, c2, split[0], split[1] * mirror)
    _contract(win.s, terms, table, win.field is QQ)


def _contract(s, terms, table, rational):
    """The contraction: per key, the terms' weight c1 c2 r_m are summed as
    one numerator over the lcm of their denominators.  Over Q (rational)
    the numerators are integers, the weight is one more integer factor, and
    each sum becomes one Fraction; over any other field every denominator
    is 1 and the sum is written as it is.  Every key's first slot is at the
    branch point s, so no other window has written it to table."""
    sums = {}
    for (row_den, row), c1, c2, rest, weight in terms:
        if rational:
            num = c1.numerator * c2.numerator * weight
            den = row_den * c1.denominator * c2.denominator
        else:
            num, den = c1 * c2, row_den
            if weight != 1:
                num = num * weight
        for m, r in row:
            key = ((s, m + 1),) + rest
            acc = sums.get(key)
            if acc is None:
                sums[key] = (num * r, den)
            elif acc[1] == den:
                sums[key] = (acc[0] + num * r, den)
            else:
                common = lcm(acc[1], den)
                sums[key] = (acc[0] * (common // acc[1])
                             + num * r * (common // den), common)
    for key, (total, den) in sums.items():
        if total:
            table[key] = Fraction(total, den) if rational else total


def _orderings(keys):
    """The distinct orderings of a sorted tuple, each once."""
    if len(keys) < 2:
        return [keys]
    return [(v,) + rest for i, v in enumerate(keys)
            if not i or v != keys[i - 1]
            for rest in _orderings(keys[:i] + keys[i + 1:])]


def _expanded(table):
    """The full table of a canonical one: the value of (k0, R) at every
    distinct ordering of R."""
    orderings = {}
    out = {}
    for key, c in table.items():
        head, tail = key[:1], key[1:]
        tails = orderings.get(tail)
        if tails is None:
            tails = orderings[tail] = _orderings(tail)
        for t in tails:
            out[head + t] = c
    return out


def eo_differentials(U, gmax, nmax):
    """Run the recursion; returns a RecursionResult holding every stable
    omega_{g,n} with 2g-2+n <= 2*gmax-2+nmax and g <= gmax.

    Each computed form is verified to be symmetric, residue-free, and
    anti-invariant under the involution in each slot.  A weighted-
    homogeneous curve over Q(t) or Q(t)[u] runs at one time over Q, and
    each coefficient is restored from its weight (see the module docstring).
    """
    if gmax < 0 or nmax < 1:
        raise IndexOutOfRange(
            "the recursion needs gmax >= 0 and nmax >= 1, not %d and %d"
            % (gmax, nmax))
    prec = 2 * (3 * gmax - 2 + nmax)
    spec = grading.specialization(U)
    curve = U if spec is None else spec.curve
    omegas = {}
    for (g, n), table in _recursion(curve, gmax, nmax, prec).items():
        if spec is not None:  # the weight is the same at every ordering
            table = {key: spec.restore(c, spec.omega_weight(g, n, key))
                     for key, c in table.items()}
        omegas[(g, n)] = PoleBasisForm(U.field, n)._like(table)
    return RecursionResult(U, gmax, nmax, prec, omegas)


def _recursion(U, gmax, nmax, prec):
    """The verified canonical tables of omega_{g,n} over U's own field."""
    chi_max = 2 * gmax - 2 + nmax
    if chi_max < 1:
        return {}  # no stable form: no row, and no window
    E = U.field
    wins = [BranchWindow(U, s, prec) for s in U.branch_ints]
    omegas = {}
    for chi in range(1, chi_max + 1):
        for g in range(gmax + 1):
            n = chi + 2 - 2 * g
            if n < 1:
                continue
            table = {}
            for win in wins:
                _residue_contributions(win, omegas, g, n, table)
            form = PoleBasisForm(E, n)._like(table)  # _contract writes no 0
            _verify_form(form, U.kind, g, n)
            omegas[(g, n)] = table
    return omegas


def _verify_form(form, kind, g, n):
    """Refuse a canonical form (only the keys whose slots 1..n-1 are
    sorted) whose expansion has a residue term, or is not symmetric or not
    anti-invariant under the involution; the checks read the canonical
    table (see the module docstring).  Over Q the last two read the integer
    numerators over the lcm of the denominators: one positive scale keeps
    every value nonzero and every verdict."""
    if form.has_residue_term():
        raise InvalidPoleStructure(
            "omega_{%d,%d} acquired a first-order pole" % (g, n))
    if form.field is QQ:
        nums, _ = integer_numerators(form.table.values())
        form = form._like(dict(zip(form.table, nums)))
    table = form.table
    for key, c in table.items():
        head, tail = key[0], key[1:]
        for i, v in enumerate(tail):
            if v == head or (i and v == tail[i - 1]):
                continue  # the same key, or the swap just checked
            swapped = (v,) + tuple(sorted(tail[:i] + (head,) + tail[i + 1:]))
            if table.get(swapped) != c:
                raise InvalidPoleStructure(
                    "omega_{%d,%d} is not symmetric" % (g, n))
    # Slot 0 is enough: for a symmetric form, sigma in slot i is the swap
    # of slots 0 and i, then sigma in slot 0, then the swap back.
    if form.involution_image(kind, 0) != form.scaled(-1):
        raise InvalidPoleStructure(
            "omega_{%d,%d} is not anti-invariant under the involution"
            % (g, n))


def symplectic_invariants(result):
    """F_g = (1/(2-2g)) sum_s Res_{z->s} Phi(z) omega_{g,1}(z) for g >= 2.

    Phi is a local antiderivative of omega_{0,1}; computed forms are
    residue-free, so the choice of integration constant drops out and the
    expansion point contributes nothing at order -1.
    """
    U = result.U
    E = U.field
    out = {}
    phi = {}
    ydx = U.y * U.dx
    for s, point in zip(U.branch_ints, U.branch_zpoints):
        terms = {}
        for j, c in local_expand(ydx, point, result.prec).known_items():
            terms[j + 1] = c / (j + 1)
        phi[s] = terms  # Phi = sum terms[j] w^j, constant term irrelevant
    for (g, n), form in sorted(result.omegas.items()):
        if n != 1 or g < 2:
            continue
        total = E.zero()
        for key, c in form.table.items():
            (s, k), = key
            t = phi[s].get(k - 1)
            if t is not None:
                total = total + c * t
        scale = E.one() / E.coerce(2 - 2 * g)
        out[g] = scale * total
    result.F.update(out)
    return out
