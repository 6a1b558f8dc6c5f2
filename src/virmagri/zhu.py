"""Finitization maps onto the one-variable polynomial ring.

Both maps are multiplicative and fixed by their values on generators:
zhu_h sends L to x and every proper derivative to zero; q_map sends L to
x, the first derivative to 1 and higher derivatives to zero.  The bracket
collapses to zero under zhu_h, which is exactly what the zhu-diagrams
sweep in virmagri.verify checks.
"""

from __future__ import annotations

from .brackets import bracket_master
from .diffpoly import AlgebraCtx, DiffPoly
from .nilcoxeter import XPoly


def zhu_h(f: DiffPoly) -> XPoly:
    """Multiplicative projection: L -> x, dkL -> 0 for k >= 1, 1 -> 1."""
    return XPoly.collect((len(m), c) for m, c in f.terms.items() if all(k == 0 for k in m))


def q_map(f: DiffPoly) -> XPoly:
    """Multiplicative quotient map: L -> x, d1L -> 1, dkL -> 0 for k >= 2."""
    return XPoly.collect((m.count(0), c) for m, c in f.terms.items() if all(k <= 1 for k in m))


def zhu_poisson_bracket(a: DiffPoly, b: DiffPoly, ctx: AlgebraCtx) -> XPoly:
    """zhu_h of the constant-in-lambda bracket coefficient.

    The induced bracket on the polynomial ring is trivial, so this is
    identically zero; it is exposed so the sweeps can confirm that."""
    return zhu_h(bracket_master(a, b, ctx).coeff(0))
