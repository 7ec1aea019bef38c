"""Formal flows of the deformed Hamilton equations.

Given H(p, q, t) polynomial in a Darboux pair over a differential field,
solve

    h q'(t) = dH/dp,      h p'(t) = -dH/dq

as truncated series q = sum q_k h^k, p = sum p_k h^k.  The leading order is
a critical point of H in (p, q); each next order is a 2x2 linear solve
against the Hessian there.  Coefficients stay in Q(t) or a single quadratic
extension Q(t)[u]/(u^2 - r(t)) — the derivation knows u' = r' u / (2r).
The critical point's extension, when one is needed, comes from
exactmath.roots_in_one_extension, which refuses to extend a second time.

flow_values is the one way to evaluate a tower element along a flow;
hbar_series and hbar_matrix_series build on it to expand rational functions
and matrices in x, as isodeform and detcheck need.
"""

from __future__ import annotations

from .errors import (InvalidHamiltonian, OrderMismatch, SingularHessian,
                     UnsolvableInTower)
from .exactmath import (Poly, RatFn, Series, evaluate, partial_derivation,
                        roots_in_one_extension, substitute)
from .exactmath.fields import FunctionField
from .laxsystem import Mat2


class LeadingOrder:
    """A critical point of H, with the field it lives in.

    `qname` and `pname` name H's Darboux pair; `modulus` is the defining
    r(t) when a quadratic extension u^2 = r was needed (None otherwise);
    `root` records which square root the caller picked.
    """

    __slots__ = ("field", "p0", "q0", "qname", "pname", "modulus", "root")

    def __init__(self, field, p0, q0, qname, pname, modulus=None,
                 root="plus"):
        self.field = field
        self.p0 = field.coerce(p0)
        self.q0 = field.coerce(q0)
        self.qname = qname
        self.pname = pname
        self.modulus = modulus
        self.root = root

    def at_point(self, expr):
        """An element of the (q, p) tower at the critical point."""
        return substitute(expr, {self.qname: self.q0, self.pname: self.p0},
                          self.field.one())

    def __repr__(self):
        return ("LeadingOrder(p0=%s, q0=%s, modulus=%s)"
                % (self.p0, self.q0, self.modulus))


class FlowSeries:
    """Truncated solution of the deformed Hamilton equations.

    q and p are series with coefficients in `field`; `order` is the last
    exponent whose Hamilton residual has been made to vanish.
    """

    __slots__ = ("field", "q", "p", "qname", "pname", "order", "lead")

    def __init__(self, field, q, p, qname, pname, order, lead):
        self.field = field
        self.q = q
        self.p = p
        self.qname = qname
        self.pname = pname
        self.order = order
        self.lead = lead

    def to_json(self):
        fmt = self.field.to_str
        blob = {
            "order": self.order,
            "q": [fmt(self.q.coeff(k)) for k in range(self.order + 1)],
            "p": [fmt(self.p.coeff(k)) for k in range(self.order + 1)],
        }
        if self.lead is not None and self.lead.modulus is not None:
            base = self.field.base
            blob["extension"] = {
                "name": self.field.uname,
                "square": base.to_str(self.lead.modulus),
                "root": self.lead.root,
            }
        else:
            blob["extension"] = None
        return blob


def _split_tower(H):
    """H over ...(t)(q)(p): return (E, qname, pname, F, Hp, Hq) with E the
    time field, F the full tower containing H, and Hp, Hq the partial
    derivatives dH/dp and dH/dq.

    A tower element is a RatFn in the outermost variable whose .field is
    the coefficient ring one level down, hence the reconstruction here.
    """
    Fq = H.field
    if not isinstance(Fq, FunctionField):
        raise InvalidHamiltonian(
            "H must live in a (q, p) tower over the time field")
    F = FunctionField(Fq, H.var)
    return (Fq.base, Fq.var, H.var, F, H.deriv(),
            partial_derivation(F, Fq.var)(H))


def leading_order(H, root="plus"):
    """Critical point of H in the Darboux pair, over Q(t) or one
    quadratic extension.

    H must be quadratic in p, as the Hamiltonians of sl2 Lax systems are:
    dH/dp = 0 is solved for p, and dH/dq = 0 then for q.  Both partial
    derivatives vanish exactly at the returned point.  When the critical
    equation is an irreducible quadratic, `root` selects the branch ("plus"
    or "minus"); deeper extensions are refused.
    """
    _, qname, pname, _, Hp, Hq = _split_tower(H)
    if not Hp.is_poly() or not Hq.is_poly():
        raise InvalidHamiltonian("H must be polynomial in the Darboux pair")
    np_ = Hp.as_poly()
    if np_.degree() != 1:
        raise UnsolvableInTower(
            "dH/dp has degree %s in p; supply the critical point explicitly"
            % np_.degree())
    # p enters dH/dp linearly: eliminate it, then solve in q alone
    psol = -np_.coeff(0) / np_.coeff(1)
    g = Hq(psol)
    if not g:
        raise UnsolvableInTower("critical locus is a curve, not a point")
    roots, field, modulus = roots_in_one_extension(g.num)
    q0 = roots[1] if modulus is not None and root == "plus" else roots[0]
    try:
        p0 = evaluate(psol, q0, field)
    except ZeroDivisionError:
        raise UnsolvableInTower(
            "eliminated momentum has a pole at the critical point")
    return LeadingOrder(field, p0, q0, qname, pname, modulus, root=root)


def _cap(series, prec):
    if series.prec < prec:
        raise OrderMismatch(
            "flow known to order %s, residual requested to order %s"
            % (series.prec - 1, prec - 1))
    if series.prec > prec:
        return series.truncate(prec)
    return series


def flow_values(flow, prec):
    """Assignment that makes substitute() evaluate along a flow.

    `flow` is anything with .q, .p, .field, .qname and .pname.
    The Darboux pair stands for the flow's series cut to hbar^(prec-1);
    the generators of flow.field get no value, so substitute lifts a
    scalar of flow.field as a constant series.  Returns (values, one) for
    substitute(elem, values, one), which then yields an hbar series.
    """
    E = flow.field
    vals = {flow.qname: _cap(flow.q, prec), flow.pname: _cap(flow.p, prec)}
    return vals, Series.constant(E.one(), prec, E.zero())


def hbar_series(f, flow, order):
    """A rational function in x over the (q, p) tower, along the flow.

    Returns an hbar series through hbar^order whose coefficients are
    rational functions in x over flow.field.
    """
    prec = order + 1
    E = flow.field
    vals, one = flow_values(flow, prec)
    zero = RatFn.zero(E, f.var)

    def expand(p):
        cs = [substitute(c, vals, one) for c in p.coeffs]
        return Series(0, [RatFn(Poly(E, [s.coeff(j) for s in cs], p.var))
                          for j in range(prec)], prec, zero)

    num = expand(f.num)
    return num if f.is_poly() else num * expand(f.den).inverse()


def hbar_matrix_series(mat, flow, order):
    """hbar_series of every entry: [Mat2] for hbar^0 .. hbar^order."""
    cols = [hbar_series(e, flow, order) for e in mat.entries()]
    return [Mat2(*(s.coeff(j) for s in cols)) for j in range(order + 1)]


def extend_flow(H, lead, order=4):
    """Solve the deformed Hamilton equations through the given order.

    Each step inverts the Hessian of H at the leading point; a singular
    Hessian means the genericity assumption behind the recursion fails.
    """
    E2 = lead.field
    _, qname, pname, F, Hp, Hq = _split_tower(H)
    hpp = lead.at_point(partial_derivation(F, pname)(Hp))
    hpq = lead.at_point(partial_derivation(F, qname)(Hp))
    hqq = lead.at_point(partial_derivation(F, qname)(Hq))
    det = hpp * hqq - hpq * hpq
    if not det:
        raise SingularHessian(
            "Hessian of H is singular at the leading point %r" % (lead,))
    inv_det = E2.one() / det

    qc = [lead.q0]
    pc = [lead.p0]
    zE = E2.zero()
    for k in range(1, order + 1):
        prec = k + 1
        # q_k and p_k enter as zeros, so the order-k coefficients below are
        # the part of the order-k equations they do not touch
        known = FlowSeries(E2, Series(0, qc, prec, zE), Series(0, pc, prec, zE),
                           qname, pname, k - 1, lead)
        vals, one_h = flow_values(known, prec)
        rp = substitute(Hp, vals, one_h).coeff(k)
        rq = substitute(Hq, vals, one_h).coeff(k)
        b1 = E2.diff(qc[k - 1]) - rp
        b2 = -E2.diff(pc[k - 1]) - rq
        # [[hpp, hpq], [hpq, hqq]] (p_k, q_k)^T = (b1, b2)^T
        pk = (hqq * b1 - hpq * b2) * inv_det
        qk = (hpp * b2 - hpq * b1) * inv_det
        pc.append(pk)
        qc.append(qk)
    prec = order + 1
    q_s = Series(0, qc, prec, zE)
    p_s = Series(0, pc, prec, zE)
    return FlowSeries(E2, q_s, p_s, qname, pname, order, lead)


def hamilton_residuals(H, flow):
    """(h q' - dH/dp, h p' + dH/dq) composed with the flow.

    Both series vanish identically through the flow's order.
    """
    E = flow.field
    vals, one_h = flow_values(flow, flow.order + 1)
    Hp, Hq = _split_tower(H)[4:]
    dq = flow.q.map_coeffs(E.diff).shift(1)
    dp = flow.p.map_coeffs(E.diff).shift(1)
    r1 = dq - substitute(Hp, vals, one_h)
    r2 = dp + substitute(Hq, vals, one_h)
    return r1, r2


def energy_drift(H, flow):
    """d/dt of H along the flow minus the explicit time derivative.

    The chain rule plus Hamilton's equations make this vanish; with a flow
    of order K the difference is certified through h^(K-1) (the order-K
    coefficient would need the next flow correction).
    """
    E = flow.field
    prec = flow.order + 1
    vals, one_h = flow_values(flow, prec)
    base, _, _, F, _, _ = _split_tower(H)
    along = substitute(H, vals, one_h)
    total = along.map_coeffs(E.diff)
    if isinstance(base, FunctionField):
        Ht = partial_derivation(F, base.var)(H)
        expl = substitute(Ht, vals, one_h)
    else:
        expl = Series(prec, [], prec, E.zero())
    drift = total - expl
    return drift.truncate(flow.order)
