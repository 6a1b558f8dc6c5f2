"""Named verification sweeps covering every stated algebraic identity.

Each check runs a finite exhaustive sweep (or a seeded random one, where
the identity is quantified over all elements) and returns a CheckReport.
The registry maps stable names to check functions so suites are
addressable individually from the command line; group names select every
check of one module, and "all" runs the lot.

The registry runs each check inside its own bracket_memo(), so a sweep
that meets one argument pair many times (Jacobi, Leibniz, skew) computes
its bracket once.  The memo lives for one check, never for a whole
suite, and the oracles (bracket_recursive, the test-suite models) are
never cached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import wraps
from math import comb, factorial

from .brackets import (
    LambdaPoly,
    bracket_master,
    bracket_memo,
    bracket_recursive,
    gen_bracket,
    hamiltonian_defects,
    jacobi_defect,
    nth_product,
    skew_defect,
)
from .diffpoly import AlgebraCtx, DiffPoly, conformal_weight, mono_degree
from .k0sigma import (
    K0SigmaElem,
    ind,
    lambda_bracket_k0,
    nabla,
    p_i_ind,
    phi_sigma,
    phi_sigma_inv,
    pj_ind,
    res,
)
from .nilcoxeter import (
    G0NElem,
    K0NElem,
    WeylElem,
    XPoly,
    ind_g0n,
    ind_k0n,
    phi_n,
    phi_n_inv,
    psi1,
    psi2,
    res_g0n,
    res_k0n,
)
from .partitions import Partition, partitions_of, partitions_upto, standard_tableaux_count
from .report import CheckReport
from .text import _format_mono
from .zhu import q_map, verify_zhu_diagrams, zhu_h

_SEED = 20260808


@dataclass
class Bounds:
    """Optional overrides for the default sweep sizes."""

    max_n: int | None = None
    max_j: int | None = None
    max_deg: int | None = None

    def n(self, default: int) -> int:
        return default if self.max_n is None else self.max_n

    def j(self, default: int) -> int:
        return default if self.max_j is None else self.max_j

    def deg(self, default: int) -> int:
        return default if self.max_deg is None else self.max_deg


CHECKS: dict = {}
GROUP_OF: dict = {}
CAPS: dict = {}


def _register(name: str, group: str, **caps: int):
    """Register a check with the largest value of each Bounds field it reads.

    A cap is the largest value at which the check alone runs within 5 s
    at charge 1 on a 2-core x86 host; the note beside each registration
    gives the time at the cap and one past it.  A check reading both
    max_n and max_j has max_n measured first and max_j at that max_n, so
    it stays within 5 s with both at their caps.  weyl-relation takes a
    round figure below the mark, its time growing about linearly.
    """

    def deco(fn):
        @wraps(fn)
        def check(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
            with bracket_memo():
                return fn(bounds, ctx)

        CHECKS[name] = check
        GROUP_OF[name] = group
        CAPS[name] = caps
        return check

    return deco


def group_names() -> list[str]:
    return sorted(set(GROUP_OF.values()))


def suite_names() -> list[str]:
    """Everything --suite accepts: single checks, groups, and 'all'."""
    return sorted(CHECKS) + group_names() + ["all"]


def resolve_suite(name: str) -> list[str]:
    if name == "all":
        return sorted(CHECKS)
    if name in CHECKS:
        return [name]
    if name in GROUP_OF.values():
        return sorted(n for n, g in GROUP_OF.items() if g == name)
    raise KeyError(name)


def suite_caps(name: str) -> dict[str, int]:
    """The largest value of each Bounds field that every check of suite
    `name` accepts; a field none of them reads has no entry."""
    caps: dict[str, int] = {}
    for check in resolve_suite(name):
        for field, cap in CAPS[check].items():
            caps[field] = min(cap, caps.get(field, cap))
    return caps


def run_suite(name: str, bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for check in resolve_suite(name):
        rep.extend(CHECKS[check](bounds, ctx))
    return rep


# ------------------------------------------------------------ utilities

def _monomials_upto(max_deg: int) -> list[tuple[int, ...]]:
    return [tuple(v - 1 for v in p.parts) for p in partitions_upto(max_deg)]


def _mono_pairs_total(max_total: int):
    monos = _monomials_upto(max_total)
    for a in monos:
        da = mono_degree(a)
        for b in monos:
            if da + mono_degree(b) <= max_total:
                yield a, b


def _mono_triples_total(max_total: int):
    monos = _monomials_upto(max_total)
    for a, b in _mono_pairs_total(max_total):
        dab = mono_degree(a) + mono_degree(b)
        for c in monos:
            if dab + mono_degree(c) <= max_total:
                yield a, b, c


def _rand_poly(rng: random.Random, max_deg: int, max_terms: int = 3) -> DiffPoly:
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(0, max_deg)
        p = rng.choice(partitions_of(n))
        c = rng.choice([i for i in range(-9, 10) if i])
        out = out + DiffPoly.monomial(tuple(v - 1 for v in p.parts), c)
    return out


def _fmt_mono(m) -> str:
    return _format_mono(m) or "1"


# ----------------------------------------------------------- partitions

@_register("conjugate-involution", "partitions", max_n=37)  # 37: 4.5 s, 38: 5.4 s
def _check_conjugate_involution(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for p in partitions_upto(bounds.n(12)):
        q = p.conjugate()
        ok = q.conjugate() == p and q.size == p.size
        rep.record("conjugate-involution", "p=%s" % p, ok, q.conjugate(), p)
    return rep


@_register("branching-dimension", "partitions", max_n=31)  # 31: 4.9 s, 32: 5.6 s
def _check_branching_dimension(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for p in partitions_upto(bounds.n(12)):
        lhs = sum(standard_tableaux_count(q) for q in p.addable_results())
        rhs = (p.size + 1) * standard_tableaux_count(p)
        rep.record("branching-dimension", "p=%s" % p, lhs == rhs, lhs, rhs)
    return rep


@_register("union-laws", "partitions", max_n=14)  # 14: 4.4 s, 15: 8.8 s
def _check_union_laws(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    ps = partitions_upto(bounds.n(6))
    for a in ps:
        for b in ps:
            u = a.union(b)
            ok = u == b.union(a) and u.size == a.size + b.size
            rep.record("union-commutative", "a=%s, b=%s" % (a, b), ok, u, b.union(a))
        ok = a.union(Partition()) == a
        rep.record("union-unit", "a=%s" % a, ok, a.union(Partition()), a)
    small = partitions_upto(min(4, bounds.n(4)))
    for a in small:
        for b in small:
            for c in small:
                lhs = a.union(b).union(c)
                rhs = a.union(b.union(c))
                rep.record("union-associative", "a=%s, b=%s, c=%s" % (a, b, c), lhs == rhs, lhs, rhs)
    return rep


@_register("insert-row", "partitions", max_n=27, max_j=6)  # 27 and 6: 4.9 s, 27 and 7: 5.8 s
def _check_insert_row(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for p in partitions_upto(bounds.n(10)):
        for j in range(1, bounds.j(5) + 1):
            q = p.insert_row(j)
            rep.record("insert-row-union", "p=%s, j=%d" % (p, j),
                       q == p.union(Partition((j,))), q, p.union(Partition((j,))))
            cols = list(p.conjugate().parts)
            cols += [0] * (j - len(cols))
            bumped = [c + 1 if i < j else c for i, c in enumerate(cols)]
            want = Partition(bumped)
            rep.record("insert-row-conjugate", "p=%s, j=%d" % (p, j),
                       q.conjugate() == want, q.conjugate(), want)
    return rep


# ------------------------------------------------------------- diffpoly

@_register("mul-laws", "diffpoly", max_deg=38)  # 38: 4.8 s, 39: 5.8 s
def _check_mul_laws(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    rng = random.Random(_SEED)
    d = bounds.deg(8)
    for i in range(60):
        f, g = _rand_poly(rng, d), _rand_poly(rng, d)
        rep.record("mul-commutative", "case %d" % i, f * g == g * f, f * g, g * f)
        rep.record("mul-unit", "case %d" % i, f * DiffPoly.one() == f, f * DiffPoly.one(), f)
    for i in range(30):
        f, g, h = (_rand_poly(rng, min(d, 5)) for _ in range(3))
        lhs, rhs = (f * g) * h, f * (g * h)
        rep.record("mul-associative", "case %d" % i, lhs == rhs, lhs, rhs)
        lhs, rhs = f * (g + h), f * g + f * h
        rep.record("mul-distributive", "case %d" % i, lhs == rhs, lhs, rhs)
    return rep


@_register("derive-leibniz", "diffpoly", max_deg=37)  # 37: 3.1 s, 38: 5.3 s
def _check_derive_leibniz(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    rng = random.Random(_SEED + 1)
    for i in range(80):
        f, g = _rand_poly(rng, bounds.deg(8)), _rand_poly(rng, bounds.deg(8))
        lhs = (f * g).derive()
        rhs = f.derive() * g + f * g.derive()
        rep.record("derive-leibniz", "case %d" % i, lhs == rhs, lhs, rhs)
    return rep


@_register("derive-grading", "diffpoly", max_deg=35)  # 35: 4.0 s, 36: 5.1 s
def _check_derive_grading(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for m in _monomials_upto(bounds.deg(8)):
        d = DiffPoly.monomial(m).derive()
        ok = all(mono_degree(k) == mono_degree(m) + 1 and
                 conformal_weight(k) == conformal_weight(m) + 1
                 for k in d.terms)
        rep.record("derive-grading", "m=%s" % _fmt_mono(m), ok, d, "")
    return rep


@_register("monomial-partition-bijection", "diffpoly", max_n=39)  # 39: 4.5 s, 40: 5.7 s
def _check_mono_bijection(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()

    def enum_monos(total: int, cap: int):
        # weakly decreasing order tuples with degree sum = total, every
        # order at most cap; independent of the partition enumerator
        if total == 0:
            yield ()
            return
        for k in range(min(cap, total - 1), -1, -1):
            for rest in enum_monos(total - (k + 1), k):
                yield (k,) + rest

    for n in range(bounds.n(10) + 1):
        direct = sorted(enum_monos(n, n))
        via_parts = sorted(tuple(v - 1 for v in p.parts) for p in partitions_of(n))
        ok = direct == via_parts and len(direct) == len(partitions_of(n))
        rep.record("monomial-partition-bijection", "degree %d" % n, ok,
                   "%d monomials" % len(direct), "%d partitions" % len(partitions_of(n)))
    return rep


@_register("partial-product-rule", "diffpoly", max_deg=41)  # 41: 4.5 s, 42: 7.6 s
def _check_partial_product_rule(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    rng = random.Random(_SEED + 2)
    for i in range(40):
        f, g = _rand_poly(rng, bounds.deg(7)), _rand_poly(rng, bounds.deg(7))
        for k in range(5):
            lhs = (f * g).partial_wrt(k)
            rhs = f.partial_wrt(k) * g + f * g.partial_wrt(k)
            rep.record("partial-product-rule", "case %d, k=%d" % (i, k), lhs == rhs, lhs, rhs)
    return rep


# -------------------------------------------------------------- brackets

@_register("generator-bracket", "brackets")
def _check_generator_bracket(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    L = DiffPoly.gen(0)
    want = LambdaPoly({0: DiffPoly.gen(1), 1: 2 * L, 3: DiffPoly.const(ctx.central_charge)})
    got = bracket_master(L, L, ctx)
    rep.record("generator-bracket", "master, c=%d" % ctx.central_charge, got == want, got, want)
    got = bracket_recursive(L, L, ctx)
    rep.record("generator-bracket", "recursive, c=%d" % ctx.central_charge, got == want, got, want)
    rep.record("generator-bracket", "shape matches gen_bracket", gen_bracket(ctx) == want,
               gen_bracket(ctx), want)
    return rep


@_register("oracle-agreement", "brackets", max_deg=11)  # 11: 4.5 s, 12: 7.4 s
def _check_oracle_agreement(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for a, b in _mono_pairs_total(bounds.deg(7)):
        fa, fb = DiffPoly.monomial(a), DiffPoly.monomial(b)
        lhs, rhs = bracket_master(fa, fb, ctx), bracket_recursive(fa, fb, ctx)
        rep.record("oracle-agreement-monomials", "a=%s, b=%s" % (_fmt_mono(a), _fmt_mono(b)),
                   lhs == rhs, lhs, rhs)
    rng = random.Random(_SEED + 3)
    for i in range(200):
        f, g = _rand_poly(rng, bounds.deg(8)), _rand_poly(rng, bounds.deg(8))
        lhs, rhs = bracket_master(f, g, ctx), bracket_recursive(f, g, ctx)
        rep.record("oracle-agreement-random", "case %d" % i, lhs == rhs, lhs, rhs)
    return rep


@_register("skew", "brackets", max_deg=12)  # 12: 2.9 s, 13: 7.1 s
def _check_skew(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for a, b in _mono_pairs_total(bounds.deg(8)):
        d = skew_defect(DiffPoly.monomial(a), DiffPoly.monomial(b), ctx)
        rep.record("skew", "a=%s, b=%s" % (_fmt_mono(a), _fmt_mono(b)), d.is_zero(), d, "0")
    return rep


@_register("jacobi", "brackets", max_deg=8)  # 8: 2.2 s, 9: 5.8 s
def _check_jacobi(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for a, b, c in _mono_triples_total(bounds.deg(6)):
        d = jacobi_defect(DiffPoly.monomial(a), DiffPoly.monomial(b), DiffPoly.monomial(c), ctx)
        rep.record("jacobi", "a=%s, b=%s, c=%s" % (_fmt_mono(a), _fmt_mono(b), _fmt_mono(c)),
                   d.is_zero(), "nonzero defect", "0")
    return rep


@_register("sesquilinearity", "brackets", max_deg=10)  # 10: 4.5 s, 11: 9.5 s
def _check_sesquilinearity(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for a, b in _mono_pairs_total(bounds.deg(8)):
        fa, fb = DiffPoly.monomial(a), DiffPoly.monomial(b)
        base = bracket_master(fa, fb, ctx)
        lhs = bracket_master(fa.derive(), fb, ctx)
        rhs = base.lambda_shift(1, -1)
        rep.record("sesquilinearity-left", "a=%s, b=%s" % (_fmt_mono(a), _fmt_mono(b)),
                   lhs == rhs, lhs, rhs)
        lhs = bracket_master(fa, fb.derive(), ctx)
        rhs = base.shift_apply(1, 1)
        # The binomial form of shift_apply must compose like the operator
        # power, and the multi-order shifts must agree with it order by
        # order; a failure records the sides of whichever check failed.
        for s in (1, -1):
            if lhs != rhs:
                break
            one, three = base.shift_apply(1, s), base.shift_apply(3, s)
            lhs, rhs = three, one.shift_apply(2, s)
            if lhs == rhs:
                lhs, rhs = base.shifts((1, 2, 3), s), {1: one, 2: base.shift_apply(2, s), 3: three}
        rep.record("sesquilinearity-right", "a=%s, b=%s" % (_fmt_mono(a), _fmt_mono(b)),
                   lhs == rhs, lhs, rhs)
    return rep


@_register("bracket-leibniz", "brackets", max_deg=12)  # 12: 3.5 s, 13: 7.1 s
def _check_bracket_leibniz(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for a, b, c in _mono_triples_total(bounds.deg(6)):
        fa, fb, fc = (DiffPoly.monomial(m) for m in (a, b, c))
        lhs = bracket_master(fa, fb * fc, ctx)
        rhs = bracket_master(fa, fc, ctx).scale(fb) + bracket_master(fa, fb, ctx).scale(fc)
        rep.record("bracket-leibniz",
                   "a=%s, b=%s, c=%s" % (_fmt_mono(a), _fmt_mono(b), _fmt_mono(c)),
                   lhs == rhs, lhs, rhs)
    return rep


@_register("hamiltonian", "brackets", max_deg=8)  # 8: 3.8 s, 9: 13.2 s
def _check_hamiltonian(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    monos = _monomials_upto(bounds.deg(6))
    for a in monos:
        for b in monos:
            for n, d in hamiltonian_defects(a, b, ctx).items():
                rep.record("hamiltonian", "a=%s, b=%s, n=%d" % (_fmt_mono(a), _fmt_mono(b), n),
                           d.is_zero(), d, "0")
    return rep


@_register("nth-product-spot", "brackets")
def _check_nth_product_spot(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    L = DiffPoly.gen(0)
    got = nth_product(L, L, 1, ctx)
    rep.record("nth-product-spot", "(L)_(1)(L), c=%d" % ctx.central_charge,
               got == 2 * L, got, 2 * L)
    got = nth_product(L, L, 3, ctx)
    want = DiffPoly.const(6 * ctx.central_charge)
    rep.record("nth-product-spot", "(L)_(3)(L), c=%d" % ctx.central_charge, got == want, got, want)
    dL = DiffPoly.gen(1)
    got = nth_product(dL, dL, 1, ctx)
    want = -DiffPoly.gen(2)
    rep.record("nth-product-spot", "(d1L)_(1)(d1L)", got == want, got, want)
    return rep


@_register("integrality", "brackets", max_deg=25)  # 25: 3.5 s, 26: 6.3 s
def _check_integrality(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    rng = random.Random(_SEED + 4)
    for i in range(40):
        f, g = _rand_poly(rng, bounds.deg(8)), _rand_poly(rng, bounds.deg(8))
        br = bracket_master(f, g, ctx)
        ok = all(isinstance(c, int) for p in br.terms.values() for c in p.terms.values())
        rep.record("integrality", "case %d" % i, ok, br, "integer coefficients")
        for n in sorted(br.terms):
            got = nth_product(f, g, n, ctx)
            want = br.coeff(n) * factorial(n)
            rep.record("nth-product-consistency", "case %d, n=%d" % (i, n), got == want, got, want)
    return rep


# --------------------------------------------------------------- k0sigma

@_register("phi-roundtrip", "k0sigma", max_n=38)  # 38: 4.9 s, 39: 5.9 s
def _check_phi_roundtrip(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for p in partitions_upto(bounds.n(10)):
        e = K0SigmaElem.basis(p)
        ok = phi_sigma_inv(phi_sigma(e)) == e
        rep.record("phi-roundtrip", "p=%s" % p, ok, phi_sigma_inv(phi_sigma(e)), e)
    rng = random.Random(_SEED + 5)
    for i in range(25):
        f = _rand_poly(rng, bounds.n(10))
        ok = phi_sigma(phi_sigma_inv(f)) == f
        rep.record("phi-roundtrip", "poly case %d" % i, ok, phi_sigma(phi_sigma_inv(f)), f)
    return rep


@_register("pjind-diagram", "k0sigma", max_n=24, max_j=5)  # 24 and 5: 4.0 s, 24 and 6: 5.1 s
def _check_pjind_diagram(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for p in partitions_upto(bounds.n(10)):
        e = K0SigmaElem.basis(p)
        for j in range(1, bounds.j(5) + 1):
            by_row = pj_ind(e, j)
            by_cols = e
            for i in range(1, j + 1):
                by_cols = p_i_ind(by_cols, i)
            lhs = phi_sigma(by_row)
            rhs = DiffPoly.gen(j - 1) * phi_sigma(e)
            if lhs == rhs:
                lhs, rhs = by_row, by_cols
            rep.record("pjind-diagram", "p=%s, j=%d" % (p, j), lhs == rhs, lhs, rhs)
    return rep


@_register("nabla-diagram", "k0sigma", max_n=34)  # 34: 4.5 s, 35: 5.8 s
def _check_nabla_diagram(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for p in partitions_upto(bounds.n(10)):
        e = K0SigmaElem.basis(p)
        lhs = phi_sigma(nabla(e))
        rhs = phi_sigma(e).derive()
        rep.record("nabla-diagram", "p=%s" % p, lhs == rhs, lhs, rhs)
    return rep


# 24 and 6: 4.6 s, 24 and 7: 5.9 s
@_register("nabla-pjind-commutation", "k0sigma", max_n=24, max_j=6)
def _check_nabla_pjind(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for p in partitions_upto(bounds.n(10)):
        e = K0SigmaElem.basis(p)
        for j in range(1, bounds.j(5) + 1):
            lhs = nabla(pj_ind(e, j))
            rhs = pj_ind(e, j + 1) + pj_ind(nabla(e), j)
            rep.record("nabla-pjind-commutation", "p=%s, j=%d" % (p, j), lhs == rhs, lhs, rhs)
    return rep


@_register("k0-ring-iso", "k0sigma", max_n=11)  # 11: 2.7 s, 12: 5.6 s
def _check_k0_ring_iso(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    ps = partitions_upto(bounds.n(8))
    for a in ps:
        ea = K0SigmaElem.basis(a)
        rep.record("k0-product-unit", "a=%s" % a, ea * K0SigmaElem.unit() == ea,
                   ea * K0SigmaElem.unit(), ea)
        for b in ps:
            eb = K0SigmaElem.basis(b)
            lhs = phi_sigma(ea * eb)
            rhs = phi_sigma(ea) * phi_sigma(eb)
            rep.record("k0-ring-iso", "a=%s, b=%s" % (a, b), lhs == rhs, lhs, rhs)
            rep.record("k0-product-commutative", "a=%s, b=%s" % (a, b),
                       ea * eb == eb * ea, ea * eb, eb * ea)
    small = partitions_upto(min(4, bounds.n(4)))
    for a in small:
        for b in small:
            for c in small:
                ea, eb, ec = (K0SigmaElem.basis(q) for q in (a, b, c))
                lhs, rhs = (ea * eb) * ec, ea * (eb * ec)
                rep.record("k0-product-associative", "a=%s, b=%s, c=%s" % (a, b, c),
                           lhs == rhs, lhs, rhs)
    return rep


@_register("nabla-leibniz", "k0sigma", max_n=11)  # 11: 4.3 s, 12: 8.8 s
def _check_nabla_leibniz(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    ps = partitions_upto(bounds.n(6))
    for a in ps:
        for b in ps:
            ea, eb = K0SigmaElem.basis(a), K0SigmaElem.basis(b)
            lhs = nabla(ea * eb)
            rhs = nabla(ea) * eb + ea * nabla(eb)
            rep.record("nabla-leibniz", "a=%s, b=%s" % (a, b), lhs == rhs, lhs, rhs)
    return rep


@_register("ind-dimension", "k0sigma", max_n=29)  # 29: 4.1 s, 30: 5.3 s
def _check_ind_dimension(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for p in partitions_upto(bounds.n(10)):
        e = ind(K0SigmaElem.basis(p))
        lhs = sum(c * standard_tableaux_count(q) for q, c in e.terms.items())
        rhs = (p.size + 1) * standard_tableaux_count(p)
        rep.record("ind-dimension", "p=%s" % p, lhs == rhs, lhs, rhs)
        back = res(K0SigmaElem.basis(p))
        ok = all(q.size == p.size - 1 for q in back.terms) if p.size else back.is_zero()
        rep.record("res-grading", "p=%s" % p, ok, back, "")
    return rep


@_register("k0-bracket-transport", "k0sigma", max_n=7)  # 7: 2.3 s, 8: 7.3 s
def _check_k0_bracket_transport(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    ps = partitions_upto(bounds.n(5))
    for a in ps:
        for b in ps:
            ea, eb = K0SigmaElem.basis(a), K0SigmaElem.basis(b)
            got = lambda_bracket_k0(ea, eb, ctx)
            want = bracket_master(phi_sigma(ea), phi_sigma(eb), ctx)
            ok = (sorted(got) == sorted(want.terms)
                  and all(phi_sigma(got[k]) == want.coeff(k) for k in got))
            rep.record("k0-bracket-transport", "a=%s, b=%s" % (a, b), ok,
                       "transported bracket", want)
    small = partitions_upto(min(4, bounds.n(4)))
    for a in small:
        fa = phi_sigma(K0SigmaElem.basis(a))
        for b in small:
            if a.size + b.size > 4:
                continue
            fb = phi_sigma(K0SigmaElem.basis(b))
            d = skew_defect(fa, fb, ctx)
            rep.record("k0-bracket-skew", "a=%s, b=%s" % (a, b), d.is_zero(), d, "0")
            for c in small:
                if a.size + b.size + c.size > 4:
                    continue
                fc = phi_sigma(K0SigmaElem.basis(c))
                dj = jacobi_defect(fa, fb, fc, ctx)
                rep.record("k0-bracket-jacobi", "a=%s, b=%s, c=%s" % (a, b, c),
                           dj.is_zero(), "nonzero defect", "0")
    return rep


# ------------------------------------------------------------ nilcoxeter

@_register("weyl-relation", "nilcoxeter", max_n=100_000)  # 100000: 3.0 s, 170000: 4.4 s
def _check_weyl_relation(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    for n in range(bounds.n(50) + 1):
        e = K0NElem.basis(n)
        lhs = res_k0n(ind_k0n(e)) - ind_k0n(res_k0n(e))
        rep.record("weyl-relation-k0", "n=%d" % n, lhs == e, lhs, e)
        s = G0NElem.basis(n)
        lhs2 = res_g0n(ind_g0n(s)) - ind_g0n(res_g0n(s))
        rep.record("weyl-relation-g0", "n=%d" % n, lhs2 == s, lhs2, s)
    return rep


@_register("phi-n-intertwine", "nilcoxeter", max_n=499)  # 499: 4.8 s, 500: 5.1 s
def _check_phi_n(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    x = XPoly.x()
    for n in range(bounds.n(30) + 1):
        e = K0NElem.basis(n)
        rep.record("phi-n-ind", "n=%d" % n, phi_n(ind_k0n(e)) == x * phi_n(e),
                   phi_n(ind_k0n(e)), x * phi_n(e))
        rep.record("phi-n-res", "n=%d" % n, phi_n(res_k0n(e)) == phi_n(e).derivative(),
                   phi_n(res_k0n(e)), phi_n(e).derivative())
        rep.record("phi-n-roundtrip", "n=%d" % n, phi_n_inv(phi_n(e)) == e, phi_n_inv(phi_n(e)), e)
        for m in range(0, bounds.n(30) + 1, 7):
            lhs = phi_n(e * K0NElem.basis(m))
            rhs = phi_n(e) * phi_n(K0NElem.basis(m))
            rep.record("phi-n-ring", "n=%d, m=%d" % (n, m), lhs == rhs, lhs, rhs)
            ok = factorial(n + m) == comb(n + m, n) * factorial(n) * factorial(m)
            rep.record("g0-structure-constant", "n=%d, m=%d" % (n, m), ok,
                       factorial(n + m), comb(n + m, n) * factorial(n) * factorial(m))
    return rep


@_register("weyl-assoc", "nilcoxeter")
def _check_weyl_assoc(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    rng = random.Random(_SEED + 6)

    def rand_weyl():
        out = WeylElem.zero()
        for _ in range(rng.randint(1, 3)):
            out = out + WeylElem.monomial(rng.randint(0, 5), rng.randint(0, 5),
                                          rng.choice([i for i in range(-5, 6) if i]))
        return out

    powers = [XPoly.monomial(k) for k in range(9)]
    for i in range(40):
        u, v, w = rand_weyl(), rand_weyl(), rand_weyl()
        lhs, rhs = (u * v) * w, u * (v * w)
        rep.record("weyl-associative", "case %d" % i, lhs == rhs, lhs, rhs)
        uv = u * v
        ok = all(uv.apply(p) == u.apply(v.apply(p)) for p in powers)
        rep.record("weyl-action-consistent", "case %d" % i, ok, uv, "action of u then v")
    return rep


@_register("witt-commutator", "nilcoxeter", max_j=500)  # 500: 3.7 s, 505: 5.1 s
def _check_witt(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    top = bounds.j(8)
    for p in range(1, top + 1):
        for q in range(1, top + 1):
            u = WeylElem.monomial(p, 1)
            v = WeylElem.monomial(q, 1)
            lhs = u * v - v * u
            rhs = WeylElem.monomial(p + q - 1, 1, q - p)
            rep.record("witt-commutator", "p=%d, q=%d" % (p, q), lhs == rhs, lhs, rhs)
    return rep


@_register("quantization-diagram", "nilcoxeter", max_n=20)  # 20: 4.3 s, 21: 5.8 s
def _check_quantization(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    # The quantization maps live at central charge 0 regardless of the
    # session charge; the sweep pins that down explicitly.
    rep = CheckReport()
    ctx0 = AlgebraCtx(0)
    for p in partitions_upto(bounds.n(6)):
        e = K0SigmaElem.basis(p)
        word = psi1(e, ctx0)
        lhs = word.to_weyl()
        rhs = psi2(phi_sigma(e), ctx0)
        rep.record("quantization-diagram", "p=%s (c=0)" % p, lhs == rhs, lhs, rhs)
        for m in range(0, bounds.n(6) + 1, 2):
            via_action = word.act_k0n(K0NElem.basis(m))
            via_weyl = phi_n_inv(lhs.apply(phi_n(K0NElem.basis(m))))
            rep.record("quantization-action", "p=%s, [N%d]" % (p, m),
                       via_action == via_weyl, via_action, via_weyl)
    return rep


# ------------------------------------------------------------------- zhu

@_register("zhu-diagrams", "zhu", max_n=15, max_j=79)  # 15 and 79: 4.1 s, 15 and 80: 5.2 s
def _check_zhu_diagrams(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    return verify_zhu_diagrams(bounds.j(4), bounds.n(8), ctx)


@_register("zhu-ring-hom", "zhu", max_deg=39)  # 39: 4.8 s, 40: 6.5 s
def _check_zhu_ring_hom(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()
    rng = random.Random(_SEED + 7)
    for i in range(60):
        f, g = _rand_poly(rng, bounds.deg(8)), _rand_poly(rng, bounds.deg(8))
        lhs, rhs = zhu_h(f * g), zhu_h(f) * zhu_h(g)
        rep.record("zhu-ring-hom", "case %d" % i, lhs == rhs, lhs, rhs)
        lhs, rhs = q_map(f * g), q_map(f) * q_map(g)
        rep.record("q-ring-hom", "case %d" % i, lhs == rhs, lhs, rhs)
    return rep


@_register("zhu-k0-cube", "zhu", max_n=26, max_j=7)  # 26 and 7: 4.9 s, 26 and 8: 6.2 s
def _check_zhu_k0_cube(bounds: Bounds, ctx: AlgebraCtx) -> CheckReport:
    rep = CheckReport()

    def through_zhu(e: K0SigmaElem) -> K0NElem:
        return phi_n_inv(zhu_h(phi_sigma(e)))

    def through_q(e: K0SigmaElem) -> K0NElem:
        return phi_n_inv(q_map(phi_sigma(e)))

    for p in partitions_upto(bounds.n(8)):
        e = K0SigmaElem.basis(p)
        for j in range(bounds.j(4) + 1):
            lhs = through_zhu(pj_ind(e, j + 1))
            rhs = ind_k0n(through_zhu(e)) if j == 0 else K0NElem.zero()
            rep.record("zhu-k0-cube-mult", "p=%s, j=%d" % (p, j), lhs == rhs, lhs, rhs)
            lhs = through_q(pj_ind(e, j + 1))
            rhs = K0NElem.zero()
            if j == 0:
                rhs = ind_k0n(through_q(e))
            elif j == 1:
                rhs = through_q(e)
            rep.record("q-k0-cube-mult", "p=%s, j=%d" % (p, j), lhs == rhs, lhs, rhs)
        lhs = through_q(nabla(e))
        rhs = res_k0n(through_q(e))
        rep.record("q-k0-cube-derive", "p=%s" % p, lhs == rhs, lhs, rhs)
        lhs = through_zhu(nabla(e))
        rep.record("zhu-k0-cube-derive", "p=%s" % p, lhs.is_zero(), lhs, "0")
    return rep
