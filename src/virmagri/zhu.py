"""Finitization maps onto the one-variable polynomial ring.

Both maps are multiplicative and fixed by their values on generators:
zhu_h sends L to x and every proper derivative to zero; q_map sends L to
x, the first derivative to 1 and higher derivatives to zero.  The bracket
collapses to zero under zhu_h, which is exactly what the diagram sweep
verifies.
"""

from __future__ import annotations

from .brackets import bracket_master
from .diffpoly import AlgebraCtx, DiffPoly
from .nilcoxeter import XPoly
from .partitions import partitions_upto
from .report import CheckReport


def zhu_h(f: DiffPoly) -> XPoly:
    """Multiplicative projection: L -> x, dkL -> 0 for k >= 1, 1 -> 1."""
    out: dict = {}
    for m, c in f.terms.items():
        if all(k == 0 for k in m):
            n = len(m)
            out[n] = out.get(n, 0) + c
    return XPoly(out)


def q_map(f: DiffPoly) -> XPoly:
    """Multiplicative quotient map: L -> x, d1L -> 1, dkL -> 0 for k >= 2."""
    out: dict = {}
    for m, c in f.terms.items():
        if all(k <= 1 for k in m):
            n = sum(1 for k in m if k == 0)
            out[n] = out.get(n, 0) + c
    return XPoly(out)


def zhu_poisson_bracket(a: DiffPoly, b: DiffPoly, ctx: AlgebraCtx) -> XPoly:
    """zhu_h of the constant-in-lambda bracket coefficient.

    The induced bracket on the polynomial ring is trivial, so this is
    identically zero; it is exposed so the sweeps can confirm that."""
    return zhu_h(bracket_master(a, b, ctx).coeff(0))


def _mono_of(p) -> DiffPoly:
    return DiffPoly.monomial(tuple(v - 1 for v in p.parts))


def verify_zhu_diagrams(j_max: int, n_max: int, ctx: AlgebraCtx) -> CheckReport:
    """Sweep the finitization identities over all partition monomials of
    size at most n_max and derivative orders j up to j_max.

    Checked per case: the multiplication rules of both maps, vanishing
    under the total derivative, the derivative intertwining of q_map, and
    vanishing of the induced bracket (on generator pairs and on all
    monomial pairs, reported separately).
    """
    rep = CheckReport()
    x = XPoly.x()
    monos = [_mono_of(p) for p in partitions_upto(n_max)]
    for f in monos:
        fs = str(f)
        for j in range(j_max + 1):
            gj = DiffPoly.gen(j)
            lhs = zhu_h(gj * f)
            rhs = x * zhu_h(f) if j == 0 else XPoly.zero()
            rep.record("zhu-multiplication", "f=%s, j=%d" % (fs, j), lhs == rhs, lhs, rhs)
            lhs = q_map(gj * f)
            rhs = XPoly.zero()
            if j == 0:
                rhs = x * q_map(f)
            elif j == 1:
                rhs = q_map(f)
            rep.record("q-multiplication", "f=%s, j=%d" % (fs, j), lhs == rhs, lhs, rhs)
        lhs = zhu_h(f.derive())
        rep.record("zhu-derivative", "f=%s" % fs, lhs.is_zero(), lhs, XPoly.zero())
        lhs = q_map(f.derive())
        rhs = q_map(f).derivative()
        rep.record("q-derivative", "f=%s" % fs, lhs == rhs, lhs, rhs)
    for i, f in enumerate(monos):
        df = f.max_degree()
        for g in monos[i:]:
            if df + g.max_degree() > n_max:
                continue
            lhs = zhu_poisson_bracket(f, g, ctx)
            both_gens = len(next(iter(f.terms))) == 1 and len(next(iter(g.terms))) == 1
            name = "zhu-zeroth-product-generators" if both_gens else "zhu-zeroth-product-all"
            rep.record(name, "f=%s, g=%s" % (str(f), str(g)), lhs.is_zero(), lhs, XPoly.zero())
    return rep
