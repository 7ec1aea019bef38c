"""Separated forms: the multi-variable correlators of detcheck, kept as
sums of products of one-variable rational functions over powers of the
pairwise differences x(z_i) - x(z_j), so that no computation ever enters a
nested field tower.

Their exact zero test and their extraction onto the branchpoint pole basis
are written once for both uniformization kinds and every number of slots
(a W_1 row is a one-slot form), in terms of x(z) alone.
Over Q the zero test runs on integers: each slot is cleared to integer
numerators, and the elimination is fraction-free (see _sep_zero).
"""

import itertools
from fractions import Fraction
from math import comb, gcd, prod

from .errors import InvalidPoleStructure, UnexpectedPole
from .exactmath import (QQ, Poly, RatFn, clear, integer_numerators,
                        integer_product, local_expand, poly_gcd)
from .toprec import PoleBasisForm, xi_ratfn


class ProductForm:
    """Sum of separated products of one-variable rational functions, divided
    by powers of the pairwise differences x(z_i) - x(z_j).

    A term is (coef, facs, coup): coef a scalar, facs one RatFn per variable
    slot, coup a dict {(i, j): e} with i < j dividing by (x(z_i)-x(z_j))^e.
    Slots are positional; every factor uses the same variable letter.
    """

    __slots__ = ("U", "n", "terms")

    def __init__(self, U, n, terms=None):
        self.U = U
        self.n = n
        self.terms = list(terms or [])

    def add(self, coef, facs, coup=None):
        if len(facs) != self.n:
            raise InvalidPoleStructure(
                "%d factors for a form in %d variables" % (len(facs), self.n))
        self.terms.append((coef, tuple(facs), dict(coup or {})))

    def __add__(self, other):
        return ProductForm(self.U, self.n, self.terms + other.terms)

    def scaled(self, c):
        return ProductForm(self.U, self.n,
                           [(coef * c, facs, coup)
                            for coef, facs, coup in self.terms])

    def __sub__(self, other):
        return self + other.scaled(-self.U.field.one())

    def permuted(self, perm):
        """Relabel slots: slot i of the result is slot perm[i] of self."""
        inv = [0] * self.n
        for i, p in enumerate(perm):
            inv[p] = i
        out = ProductForm(self.U, self.n)
        for coef, facs, coup in self.terms:
            nf = tuple(facs[perm[i]] for i in range(self.n))
            nc = {}
            for (i, j), e in coup.items():
                i, j = inv[i], inv[j]
                if i > j:
                    # (x_j - x_i)^e = (-1)^e (x_i - x_j)^e
                    i, j = j, i
                    coef = -coef if e % 2 else coef
                nc[(i, j)] = e
            out.add(coef, nf, nc)
        return out

    # -- exact zero test ------------------------------------------------

    def is_zero(self):
        return not self.terms or _sep_zero(self.U.field, self._cleared())

    def _cleared(self):
        """Common-denominator form: a list of (coef, [coefficients per slot]).

        Every term is brought up to the largest power of each coupling with
        (x_i - x_j)^d = sum_a C(d, a) x_i^a (-x_j)^(d-a), the powers of x
        going into the slot factors; each slot is then cleared against the
        least common multiple of its grown factors' denominators.  A grown
        factor f x^k is built and cleared once per distinct (slot, f, k),
        and the terms share its coefficient list: the product, by
        exactmath's kernel, of the cleared numerator and cofactor.  Over Q
        the coefficients are integer numerators and their denominators go
        into the term's coef; on any other field the denominators are 1.
        """
        U = self.U
        E = U.field
        emax = {}
        for _, _, coup in self.terms:
            for p, e in coup.items():
                emax[p] = max(emax.get(p, 0), e)
        index = {}  # distinct factor -> its position
        grown = []  # (coef, [(slot, factor position, power of x)])
        for coef, facs, coup in self.terms:
            ids = [index.setdefault(f, len(index)) for f in facs]
            base = [(coef, [0] * self.n)]
            for (i, j), e in sorted(emax.items()):
                d = e - coup.get((i, j), 0)
                if d == 0:
                    continue
                split = []
                for cf, pw in base:
                    for a in range(d + 1):
                        pw2 = list(pw)
                        pw2[i] += a
                        pw2[j] += d - a
                        split.append(
                            (cf * E.coerce(comb(d, a) * (-1) ** (d - a)),
                             pw2))
                base = split
            grown.extend((cf, list(zip(range(self.n), ids, pw)))
                         for cf, pw in base)
        distinct = list(index)
        xpows = {0: RatFn.one(E, U.zvar)}
        slot_facs = {}
        for _, keys in grown:
            for key in keys:
                if key not in slot_facs:
                    _, f, k = key
                    if k not in xpows:
                        xpows[k] = U.x ** k
                    slot_facs[key] = distinct[f] * xpows[k]
        dens = [Poly.one(E, U.zvar) for _ in range(self.n)]
        for (i, _, _), f in slot_facs.items():
            dens[i] = dens[i] * (f.den // poly_gcd(dens[i], f.den))
        ints = E is QQ
        zero = 0 if ints else E.zero()
        cleared = {}
        for key, f in slot_facs.items():
            a, da = clear(f.num.coeffs, ints)
            b, db = clear((dens[key[0]] // f.den).coeffs, ints)
            cleared[key] = (integer_product(a, b, len(a) + len(b) - 1, zero),
                            da * db)
        out = []
        for coef, keys in grown:
            vecs = [cleared[key] for key in keys]
            den = prod(d for _, d in vecs)
            out.append((coef / den if den != 1 else coef,
                        [v for v, _ in vecs]))
        return out

    # -- extraction onto the branchpoint pole basis -----------------------

    def to_pbf(self):
        """Decompose over the pole basis, with proof of zero remainder.

        Extraction walks the slots from the last to the first, expanding
        around each branch z-point; couplings contribute Taylor factors
        whose coefficients are rational in the remaining slots.  The
        extracted form is then subtracted back and the difference is
        checked to vanish identically.
        """
        pbf = self._extract()
        diff = self - _pbf_product(pbf, self.U, self.n)
        if not diff.is_zero():
            raise UnexpectedPole(
                "a correlator coefficient does not reduce to the "
                "branchpoint pole basis")
        return pbf

    def _extract(self):
        """Pole-basis table: the last slot is sliced at each branch z-point
        and each slice extracted in turn; no slots is the coefs' sum at ()."""
        out = PoleBasisForm(self.U.field, self.n)
        if not self.n:
            for coef, _, _ in self.terms:
                out.add_term((), coef)
            return out
        for s in self.U.branch_ints:
            for (k, sub) in self._slices_at(s):
                for key, c in sub._extract().table.items():
                    out.add_term(key + ((s, k),), c)
        return out

    def _slices_at(self, s):
        """Laurent slices of the last slot at branch z-point s.

        Yields (k, ProductForm over the remaining slots) for each pole
        order k >= 1 with a nonzero slice.
        """
        U = self.U
        E = U.field
        top = self.n - 1
        sE = E.coerce(s)
        xa = U.x - U.x(sE)
        inv_xa = {}  # pi -> 1/xa^pi
        slices = {}
        coup_cache = {}
        locs = {}  # factor -> its window at s
        for coef, facs, coup in self.terms:
            loc = locs.get(facs[top])
            if loc is None:
                loc = locs[facs[top]] = local_expand(facs[top], sE, -1)
            if not loc.coeffs:
                continue
            ordk = -loc.kmin
            pairs = sorted(p for p in coup if top in p)
            rest = {p: e for p, e in coup.items() if top not in p}
            room = ordk - 1
            options = []
            for p in pairs:
                e = coup[p]
                key = (s, e, room)
                if key not in coup_cache:
                    coup_cache[key] = _coupling_series(U, sE, e, room)
                options.append((p[0] if p[1] == top else p[1],
                                coup_cache[key]))
            for ms in itertools.product(range(room + 1),
                                        repeat=len(pairs)):
                msum = sum(ms)
                if msum > room:
                    continue
                choice_lists = [opt[1][m] for opt, m in zip(options, ms)]
                if any(not cl for cl in choice_lists):
                    continue
                for mu in range(loc.kmin, 0):
                    k = -(mu + msum)
                    if k < 1:
                        continue
                    base = loc.coeff(mu)
                    if not base:
                        continue
                    for picks in itertools.product(*choice_lists):
                        c2 = coef * base
                        nf = list(facs[:top])
                        for (slot, _), (gamma, pi) in zip(options, picks):
                            c2 = c2 * gamma
                            if pi not in inv_xa:
                                inv_xa[pi] = xa ** -pi
                            nf[slot] = nf[slot] * inv_xa[pi]
                        slc = slices.setdefault(
                            (s, k), ProductForm(U, self.n - 1))
                        slc.add(c2, nf, rest)
        for (_, k), sub in sorted(slices.items()):
            yield k, sub


def _coupling_series(U, sE, e, mmax):
    """Taylor data of 1/(x(z_other) - x(z))^e around z = branch point.

    Entry m lists (gamma, pi) pairs meaning gamma / (x(z_other) - x(s))^pi
    as the coefficient of (z - s)^m.  With d = x(z) - x(s), which vanishes
    to second order, the expansion is sum_i C(e+i-1, i) d^i / (.)^(e+i).
    """
    E = U.field
    d = U.x - U.x(sE)
    pows = [local_expand(d ** i, sE, mmax) for i in range(mmax // 2 + 1)]
    out = []
    for m in range(mmax + 1):
        opts = []
        for i in range(m // 2 + 1):
            c = pows[i].coeff(m)
            if c:
                opts.append((E.coerce(comb(e + i - 1, i)) * c, e + i))
        out.append(opts)
    return out


def _sep_zero(E, terms):
    """Exact zero test of sum coef * tensor product of coefficient vectors.

    Column-reduces the first-slot vectors and recurses on the coordinates,
    so the cost stays proportional to the number of distinct factors rather
    than to the expanded coefficient tensor.  A vector is reduced against
    each basis vector b with pivot p at column c as vec <- p vec - f b,
    f = vec[c].  Over Q (integer vectors, rational coefs; see _cleared)
    this is fraction-free: a new basis vector is divided by the gcd of its
    entries, and a coordinate is one Fraction a/s, s the product of the
    pivots used.  Over another field a basis vector is scaled to pivot 1.
    The one-slot sum runs on integers over the lcm of the coefs'
    denominators.
    """
    ints = E is QQ
    zero = 0 if ints else E.zero()
    width = max(len(vecs[0]) for _, vecs in terms)
    if len(terms[0][1]) == 1:
        if ints:
            nums, _ = integer_numerators([coef for coef, _ in terms])
            terms = [(n, vecs) for n, (_, vecs) in zip(nums, terms)]
        tot = [zero] * width
        for coef, (vec,) in terms:
            for i, x in enumerate(vec):
                if x:
                    tot[i] = tot[i] + coef * x
        return not any(tot)
    basis = []  # (pivot column, pivot p of the update, vector)
    buckets = []
    for coef, vecs in terms:
        vec = list(vecs[0])
        vec += [zero] * (width - len(vec))
        coords = []
        s = 1
        for bi, (pc, p, bv) in enumerate(basis):
            f = vec[pc]
            if f:
                if p == 1:
                    vec = [x - f * y for x, y in zip(vec, bv)]
                else:
                    vec = [p * x - f * y for x, y in zip(vec, bv)]
                    coords = [(bj, p * a) for bj, a in coords]
                    s *= p
                coords.append((bi, f))
        pc = next((i for i, x in enumerate(vec) if x), None)
        if pc is not None:
            if ints:
                g = gcd(*vec)
                bv = [x // g for x in vec]
                basis.append((pc, bv[pc], bv))
            else:
                g = vec[pc]
                basis.append((pc, 1, [x / g for x in vec]))
            buckets.append([])
            coords.append((len(basis) - 1, g))
        rest = vecs[1:]
        for bi, a in coords:
            buckets[bi].append(
                (Fraction(coef.numerator * a, coef.denominator * s) if ints
                 else coef * a, rest))
    return all(_sep_zero(E, b) for b in buckets)


def _pbf_product(pbf, U, n):
    """A PoleBasisForm as a ProductForm (products of basis one-forms)."""
    E = U.field
    out = ProductForm(U, n)
    for key, c in pbf.table.items():
        out.add(c, [xi_ratfn(E, U.zvar, s, k) for s, k in key], {})
    return out
