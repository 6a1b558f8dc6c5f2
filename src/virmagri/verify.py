"""Named verification sweeps covering every stated algebraic identity.

Each check runs a finite exhaustive sweep (or a seeded random one, where
the identity is quantified over all elements).  It is a generator of
cases (identity, case, lhs, rhs): the case passes when lhs == rhs, and a
failing case shows both sides.  A case whose verdict is not that one
equality adds its verdict as a fifth element, and its sides are then
only what a failure shows.  The registry maps stable names to checks so
suites are addressable individually from the command line; group names
select every check of one module, and "all" runs the lot.

The registry's one harness turns a check into a CheckReport: it runs the
generator to its end inside the check's own bracket_memo(), so a sweep
that meets one argument pair many times (Jacobi, Leibniz, skew) computes
its bracket once.  The memo lives for one check, never for a whole
suite, and the oracles (bracket_recursive, the test-suite models) are
never cached.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
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
from .zhu import q_map, zhu_h, zhu_poisson_bracket

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


# What a check yields: (identity, case, lhs, rhs) or (identity, case, lhs, rhs, ok).
Cases = Iterator[tuple]

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
            rep = CheckReport()
            with bracket_memo():
                for identity, case, lhs, rhs, *ok in fn(bounds, ctx):
                    rep.record(identity, case, ok[0] if ok else lhs == rhs, lhs, rhs)
            return rep

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
    return CheckReport([r for check in resolve_suite(name)
                        for r in CHECKS[check](bounds, ctx).records])


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


def _case(*monos) -> str:
    """The label "a=.., b=..[, c=..]" of a pair or triple of monomials."""
    return ", ".join("%s=%s" % kv for kv in zip("abc", map(_fmt_mono, monos)))


# ----------------------------------------------------------- partitions

@_register("conjugate-involution", "partitions", max_n=37)  # 37: 4.5 s, 38: 5.4 s
def _check_conjugate_involution(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for p in partitions_upto(bounds.n(12)):
        q = p.conjugate()
        back = q.conjugate()
        yield "conjugate-involution", "p=%s" % p, back, p, back == p and q.size == p.size


@_register("branching-dimension", "partitions", max_n=31)  # 31: 4.9 s, 32: 5.6 s
def _check_branching_dimension(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for p in partitions_upto(bounds.n(12)):
        yield ("branching-dimension", "p=%s" % p,
               sum(standard_tableaux_count(q) for q in p.addable_results()),
               (p.size + 1) * standard_tableaux_count(p))


@_register("union-laws", "partitions", max_n=14)  # 14: 4.4 s, 15: 8.8 s
def _check_union_laws(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    ps = partitions_upto(bounds.n(6))
    for a in ps:
        for b in ps:
            u, v = a.union(b), b.union(a)
            ok = u == v and u.size == a.size + b.size
            yield "union-commutative", "a=%s, b=%s" % (a, b), u, v, ok
        yield "union-unit", "a=%s" % a, a.union(Partition()), a
    small = partitions_upto(min(4, bounds.n(4)))
    for a in small:
        for b in small:
            for c in small:
                yield ("union-associative", "a=%s, b=%s, c=%s" % (a, b, c),
                       a.union(b).union(c), a.union(b.union(c)))


@_register("insert-row", "partitions", max_n=27, max_j=6)  # 27 and 6: 4.9 s, 27 and 7: 5.8 s
def _check_insert_row(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for p in partitions_upto(bounds.n(10)):
        for j in range(1, bounds.j(5) + 1):
            case = "p=%s, j=%d" % (p, j)
            q = p.insert_row(j)
            yield "insert-row-union", case, q, p.union(Partition((j,)))
            cols = list(p.conjugate().parts)
            cols += [0] * (j - len(cols))
            bumped = [c + 1 if i < j else c for i, c in enumerate(cols)]
            yield "insert-row-conjugate", case, q.conjugate(), Partition(bumped)


# ------------------------------------------------------------- diffpoly

@_register("mul-laws", "diffpoly", max_deg=38)  # 38: 4.8 s, 39: 5.8 s
def _check_mul_laws(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    rng = random.Random(_SEED)
    d = bounds.deg(8)
    for i in range(60):
        f, g = _rand_poly(rng, d), _rand_poly(rng, d)
        yield "mul-commutative", "case %d" % i, f * g, g * f
        yield "mul-unit", "case %d" % i, f * DiffPoly.one(), f
    for i in range(30):
        f, g, h = (_rand_poly(rng, min(d, 5)) for _ in range(3))
        yield "mul-associative", "case %d" % i, (f * g) * h, f * (g * h)
        yield "mul-distributive", "case %d" % i, f * (g + h), f * g + f * h


@_register("derive-leibniz", "diffpoly", max_deg=37)  # 37: 3.1 s, 38: 5.3 s
def _check_derive_leibniz(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    rng = random.Random(_SEED + 1)
    for i in range(80):
        f, g = _rand_poly(rng, bounds.deg(8)), _rand_poly(rng, bounds.deg(8))
        yield "derive-leibniz", "case %d" % i, (f * g).derive(), f.derive() * g + f * g.derive()


@_register("derive-grading", "diffpoly", max_deg=35)  # 35: 4.0 s, 36: 5.1 s
def _check_derive_grading(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for m in _monomials_upto(bounds.deg(8)):
        d = DiffPoly.monomial(m).derive()
        ok = all(mono_degree(k) == mono_degree(m) + 1 and
                 conformal_weight(k) == conformal_weight(m) + 1
                 for k in d.terms)
        yield "derive-grading", "m=%s" % _fmt_mono(m), d, "", ok


@_register("monomial-partition-bijection", "diffpoly", max_n=39)  # 39: 4.5 s, 40: 5.7 s
def _check_mono_bijection(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
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
        parts = partitions_of(n)
        via_parts = sorted(tuple(v - 1 for v in p.parts) for p in parts)
        yield ("monomial-partition-bijection", "degree %d" % n, "%d monomials" % len(direct),
               "%d partitions" % len(parts), direct == via_parts and len(direct) == len(parts))


@_register("partial-product-rule", "diffpoly", max_deg=41)  # 41: 4.5 s, 42: 7.6 s
def _check_partial_product_rule(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    rng = random.Random(_SEED + 2)
    for i in range(40):
        f, g = _rand_poly(rng, bounds.deg(7)), _rand_poly(rng, bounds.deg(7))
        for k in range(5):
            yield ("partial-product-rule", "case %d, k=%d" % (i, k), (f * g).partial_wrt(k),
                   f.partial_wrt(k) * g + f * g.partial_wrt(k))


# -------------------------------------------------------------- brackets

@_register("generator-bracket", "brackets")
def _check_generator_bracket(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    L = DiffPoly.gen(0)
    want = LambdaPoly({0: DiffPoly.gen(1), 1: 2 * L, 3: DiffPoly.const(ctx.central_charge)})
    yield "generator-bracket", "master, c=%d" % ctx.central_charge, bracket_master(L, L, ctx), want
    yield ("generator-bracket", "recursive, c=%d" % ctx.central_charge,
           bracket_recursive(L, L, ctx), want)
    yield "generator-bracket", "shape matches gen_bracket", gen_bracket(ctx), want


@_register("oracle-agreement", "brackets", max_deg=11)  # 11: 4.5 s, 12: 7.4 s
def _check_oracle_agreement(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for a, b in _mono_pairs_total(bounds.deg(7)):
        fa, fb = DiffPoly.monomial(a), DiffPoly.monomial(b)
        yield ("oracle-agreement-monomials", _case(a, b),
               bracket_master(fa, fb, ctx), bracket_recursive(fa, fb, ctx))
    rng = random.Random(_SEED + 3)
    for i in range(200):
        f, g = _rand_poly(rng, bounds.deg(8)), _rand_poly(rng, bounds.deg(8))
        yield ("oracle-agreement-random", "case %d" % i,
               bracket_master(f, g, ctx), bracket_recursive(f, g, ctx))


@_register("skew", "brackets", max_deg=12)  # 12: 2.9 s, 13: 7.1 s
def _check_skew(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for a, b in _mono_pairs_total(bounds.deg(8)):
        d = skew_defect(DiffPoly.monomial(a), DiffPoly.monomial(b), ctx)
        yield "skew", _case(a, b), d, LambdaPoly.zero()


@_register("jacobi", "brackets", max_deg=8)  # 8: 2.2 s, 9: 5.8 s
def _check_jacobi(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for a, b, c in _mono_triples_total(bounds.deg(6)):
        d = jacobi_defect(DiffPoly.monomial(a), DiffPoly.monomial(b), DiffPoly.monomial(c), ctx)
        yield "jacobi", _case(a, b, c), "nonzero defect", "0", d.is_zero()


@_register("sesquilinearity", "brackets", max_deg=10)  # 10: 4.5 s, 11: 9.5 s
def _check_sesquilinearity(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for a, b in _mono_pairs_total(bounds.deg(8)):
        case = _case(a, b)
        fa, fb = DiffPoly.monomial(a), DiffPoly.monomial(b)
        base = bracket_master(fa, fb, ctx)
        yield ("sesquilinearity-left", case,
               bracket_master(fa.derive(), fb, ctx), base.lambda_shift(1, -1))
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
        yield "sesquilinearity-right", case, lhs, rhs


@_register("bracket-leibniz", "brackets", max_deg=12)  # 12: 3.5 s, 13: 7.1 s
def _check_bracket_leibniz(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for a, b, c in _mono_triples_total(bounds.deg(6)):
        fa, fb, fc = (DiffPoly.monomial(m) for m in (a, b, c))
        yield ("bracket-leibniz", _case(a, b, c), bracket_master(fa, fb * fc, ctx),
               bracket_master(fa, fc, ctx).scale(fb) + bracket_master(fa, fb, ctx).scale(fc))


@_register("hamiltonian", "brackets", max_deg=8)  # 8: 3.8 s, 9: 13.2 s
def _check_hamiltonian(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    monos = _monomials_upto(bounds.deg(6))
    for a in monos:
        for b in monos:
            for n, d in hamiltonian_defects(a, b, ctx).items():
                yield "hamiltonian", "%s, n=%d" % (_case(a, b), n), d, DiffPoly.zero()


@_register("nth-product-spot", "brackets")
def _check_nth_product_spot(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    L, dL, c = DiffPoly.gen(0), DiffPoly.gen(1), ctx.central_charge
    yield "nth-product-spot", "(L)_(1)(L), c=%d" % c, nth_product(L, L, 1, ctx), 2 * L
    yield ("nth-product-spot", "(L)_(3)(L), c=%d" % c,
           nth_product(L, L, 3, ctx), DiffPoly.const(6 * c))
    yield "nth-product-spot", "(d1L)_(1)(d1L)", nth_product(dL, dL, 1, ctx), -DiffPoly.gen(2)


@_register("integrality", "brackets", max_deg=25)  # 25: 3.5 s, 26: 6.3 s
def _check_integrality(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    rng = random.Random(_SEED + 4)
    for i in range(40):
        f, g = _rand_poly(rng, bounds.deg(8)), _rand_poly(rng, bounds.deg(8))
        br = bracket_master(f, g, ctx)
        ok = all(isinstance(c, int) for p in br.terms.values() for c in p.terms.values())
        yield "integrality", "case %d" % i, br, "integer coefficients", ok
        for n in sorted(br.terms):
            yield ("nth-product-consistency", "case %d, n=%d" % (i, n),
                   nth_product(f, g, n, ctx), br.coeff(n) * factorial(n))


# --------------------------------------------------------------- k0sigma

@_register("phi-roundtrip", "k0sigma", max_n=38)  # 38: 4.9 s, 39: 5.9 s
def _check_phi_roundtrip(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for p in partitions_upto(bounds.n(10)):
        e = K0SigmaElem.basis(p)
        yield "phi-roundtrip", "p=%s" % p, phi_sigma_inv(phi_sigma(e)), e
    rng = random.Random(_SEED + 5)
    for i in range(25):
        f = _rand_poly(rng, bounds.n(10))
        yield "phi-roundtrip", "poly case %d" % i, phi_sigma(phi_sigma_inv(f)), f


@_register("pjind-diagram", "k0sigma", max_n=24, max_j=5)  # 24 and 5: 4.0 s, 24 and 6: 5.1 s
def _check_pjind_diagram(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
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
            yield "pjind-diagram", "p=%s, j=%d" % (p, j), lhs, rhs


@_register("nabla-diagram", "k0sigma", max_n=34)  # 34: 4.5 s, 35: 5.8 s
def _check_nabla_diagram(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for p in partitions_upto(bounds.n(10)):
        e = K0SigmaElem.basis(p)
        yield "nabla-diagram", "p=%s" % p, phi_sigma(nabla(e)), phi_sigma(e).derive()


# 24 and 6: 4.6 s, 24 and 7: 5.9 s
@_register("nabla-pjind-commutation", "k0sigma", max_n=24, max_j=6)
def _check_nabla_pjind(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for p in partitions_upto(bounds.n(10)):
        e = K0SigmaElem.basis(p)
        for j in range(1, bounds.j(5) + 1):
            yield ("nabla-pjind-commutation", "p=%s, j=%d" % (p, j),
                   nabla(pj_ind(e, j)), pj_ind(e, j + 1) + pj_ind(nabla(e), j))


@_register("k0-ring-iso", "k0sigma", max_n=11)  # 11: 2.7 s, 12: 5.6 s
def _check_k0_ring_iso(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    ps = partitions_upto(bounds.n(8))
    for a in ps:
        ea = K0SigmaElem.basis(a)
        yield "k0-product-unit", "a=%s" % a, ea * K0SigmaElem.unit(), ea
        for b in ps:
            eb = K0SigmaElem.basis(b)
            case = "a=%s, b=%s" % (a, b)
            ab = ea * eb
            yield "k0-ring-iso", case, phi_sigma(ab), phi_sigma(ea) * phi_sigma(eb)
            yield "k0-product-commutative", case, ab, eb * ea
    small = partitions_upto(min(4, bounds.n(4)))
    for a in small:
        for b in small:
            for c in small:
                ea, eb, ec = (K0SigmaElem.basis(q) for q in (a, b, c))
                yield ("k0-product-associative", "a=%s, b=%s, c=%s" % (a, b, c),
                       (ea * eb) * ec, ea * (eb * ec))


@_register("nabla-leibniz", "k0sigma", max_n=11)  # 11: 4.3 s, 12: 8.8 s
def _check_nabla_leibniz(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    ps = partitions_upto(bounds.n(6))
    for a in ps:
        for b in ps:
            ea, eb = K0SigmaElem.basis(a), K0SigmaElem.basis(b)
            yield ("nabla-leibniz", "a=%s, b=%s" % (a, b),
                   nabla(ea * eb), nabla(ea) * eb + ea * nabla(eb))


@_register("ind-dimension", "k0sigma", max_n=29)  # 29: 4.1 s, 30: 5.3 s
def _check_ind_dimension(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for p in partitions_upto(bounds.n(10)):
        e = ind(K0SigmaElem.basis(p))
        yield ("ind-dimension", "p=%s" % p,
               sum(c * standard_tableaux_count(q) for q, c in e.terms.items()),
               (p.size + 1) * standard_tableaux_count(p))
        back = res(K0SigmaElem.basis(p))
        ok = all(q.size == p.size - 1 for q in back.terms) if p.size else back.is_zero()
        yield "res-grading", "p=%s" % p, back, "", ok


@_register("k0-bracket-transport", "k0sigma", max_n=7)  # 7: 2.3 s, 8: 7.3 s
def _check_k0_bracket_transport(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    ps = partitions_upto(bounds.n(5))
    for a in ps:
        for b in ps:
            ea, eb = K0SigmaElem.basis(a), K0SigmaElem.basis(b)
            got = lambda_bracket_k0(ea, eb, ctx)
            yield ("k0-bracket-transport", "a=%s, b=%s" % (a, b),
                   LambdaPoly({k: phi_sigma(v) for k, v in got.items()}),
                   bracket_master(phi_sigma(ea), phi_sigma(eb), ctx))
    small = partitions_upto(min(4, bounds.n(4)))
    for a in small:
        fa = phi_sigma(K0SigmaElem.basis(a))
        for b in small:
            if a.size + b.size > 4:
                continue
            fb = phi_sigma(K0SigmaElem.basis(b))
            d = skew_defect(fa, fb, ctx)
            yield "k0-bracket-skew", "a=%s, b=%s" % (a, b), d, LambdaPoly.zero()
            for c in small:
                if a.size + b.size + c.size > 4:
                    continue
                fc = phi_sigma(K0SigmaElem.basis(c))
                dj = jacobi_defect(fa, fb, fc, ctx)
                yield ("k0-bracket-jacobi", "a=%s, b=%s, c=%s" % (a, b, c),
                       "nonzero defect", "0", dj.is_zero())


# ------------------------------------------------------------ nilcoxeter

@_register("weyl-relation", "nilcoxeter", max_n=100_000)  # 100000: 3.0 s, 170000: 4.4 s
def _check_weyl_relation(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    for n in range(bounds.n(50) + 1):
        e = K0NElem.basis(n)
        yield "weyl-relation-k0", "n=%d" % n, res_k0n(ind_k0n(e)) - ind_k0n(res_k0n(e)), e
        s = G0NElem.basis(n)
        yield "weyl-relation-g0", "n=%d" % n, res_g0n(ind_g0n(s)) - ind_g0n(res_g0n(s)), s


@_register("phi-n-intertwine", "nilcoxeter", max_n=499)  # 499: 4.8 s, 500: 5.1 s
def _check_phi_n(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    x = XPoly.x()
    for n in range(bounds.n(30) + 1):
        e = K0NElem.basis(n)
        yield "phi-n-ind", "n=%d" % n, phi_n(ind_k0n(e)), x * phi_n(e)
        yield "phi-n-res", "n=%d" % n, phi_n(res_k0n(e)), phi_n(e).derivative()
        yield "phi-n-roundtrip", "n=%d" % n, phi_n_inv(phi_n(e)), e
        for m in range(0, bounds.n(30) + 1, 7):
            case = "n=%d, m=%d" % (n, m)
            em = K0NElem.basis(m)
            yield "phi-n-ring", case, phi_n(e * em), phi_n(e) * phi_n(em)
            yield ("g0-structure-constant", case,
                   factorial(n + m), comb(n + m, n) * factorial(n) * factorial(m))


@_register("weyl-assoc", "nilcoxeter")
def _check_weyl_assoc(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
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
        uv = u * v
        yield "weyl-associative", "case %d" % i, uv * w, u * (v * w)
        ok = all(uv.apply(p) == u.apply(v.apply(p)) for p in powers)
        yield "weyl-action-consistent", "case %d" % i, uv, "action of u then v", ok


@_register("witt-commutator", "nilcoxeter", max_j=500)  # 500: 3.7 s, 505: 5.1 s
def _check_witt(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    top = bounds.j(8)
    for p in range(1, top + 1):
        for q in range(1, top + 1):
            u = WeylElem.monomial(p, 1)
            v = WeylElem.monomial(q, 1)
            yield ("witt-commutator", "p=%d, q=%d" % (p, q),
                   u * v - v * u, WeylElem.monomial(p + q - 1, 1, q - p))


@_register("quantization-diagram", "nilcoxeter", max_n=20)  # 20: 4.3 s, 21: 5.8 s
def _check_quantization(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    # The quantization maps live at central charge 0 regardless of the
    # session charge; the sweep pins that down explicitly.
    ctx0 = AlgebraCtx(0)
    for p in partitions_upto(bounds.n(6)):
        e = K0SigmaElem.basis(p)
        word = psi1(e, ctx0)
        weyl = word.to_weyl()
        yield "quantization-diagram", "p=%s (c=0)" % p, weyl, psi2(phi_sigma(e), ctx0)
        for m in range(0, bounds.n(6) + 1, 2):
            yield ("quantization-action", "p=%s, [N%d]" % (p, m), word.act_k0n(K0NElem.basis(m)),
                   phi_n_inv(weyl.apply(phi_n(K0NElem.basis(m)))))


# ------------------------------------------------------------------- zhu

@_register("zhu-diagrams", "zhu", max_n=15, max_j=79)  # 15 and 79: 4.1 s, 15 and 80: 5.2 s
def _check_zhu_diagrams(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    # Over the partition monomials f of size at most max_n and orders j up
    # to max_j: the multiplication rules of both maps, zhu_h killing the
    # total derivative, q_map intertwining it, and the induced bracket
    # vanishing, on generator pairs and on all monomial pairs apart.
    x, zero = XPoly.x(), XPoly.zero()
    n_max = bounds.n(8)
    monos = [DiffPoly.monomial(m) for m in _monomials_upto(n_max)]
    for f in monos:
        fs = str(f)
        for j in range(bounds.j(4) + 1):
            case = "f=%s, j=%d" % (fs, j)
            gj = DiffPoly.gen(j)
            yield "zhu-multiplication", case, zhu_h(gj * f), x * zhu_h(f) if j == 0 else zero
            rhs = x * q_map(f) if j == 0 else q_map(f) if j == 1 else zero
            yield "q-multiplication", case, q_map(gj * f), rhs
        yield "zhu-derivative", "f=%s" % fs, zhu_h(f.derive()), zero
        yield "q-derivative", "f=%s" % fs, q_map(f.derive()), q_map(f).derivative()
    for i, f in enumerate(monos):
        df = f.max_degree()
        for g in monos[i:]:
            if df + g.max_degree() > n_max:
                continue
            both_gens = len(next(iter(f.terms))) == 1 and len(next(iter(g.terms))) == 1
            name = "zhu-zeroth-product-generators" if both_gens else "zhu-zeroth-product-all"
            yield name, "f=%s, g=%s" % (f, g), zhu_poisson_bracket(f, g, ctx), zero


@_register("zhu-ring-hom", "zhu", max_deg=39)  # 39: 4.8 s, 40: 6.5 s
def _check_zhu_ring_hom(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    rng = random.Random(_SEED + 7)
    for i in range(60):
        f, g = _rand_poly(rng, bounds.deg(8)), _rand_poly(rng, bounds.deg(8))
        yield "zhu-ring-hom", "case %d" % i, zhu_h(f * g), zhu_h(f) * zhu_h(g)
        yield "q-ring-hom", "case %d" % i, q_map(f * g), q_map(f) * q_map(g)


@_register("zhu-k0-cube", "zhu", max_n=26, max_j=7)  # 26 and 7: 4.9 s, 26 and 8: 6.2 s
def _check_zhu_k0_cube(bounds: Bounds, ctx: AlgebraCtx) -> Cases:
    def through_zhu(e: K0SigmaElem) -> K0NElem:
        return phi_n_inv(zhu_h(phi_sigma(e)))

    def through_q(e: K0SigmaElem) -> K0NElem:
        return phi_n_inv(q_map(phi_sigma(e)))

    zero = K0NElem.zero()
    for p in partitions_upto(bounds.n(8)):
        e = K0SigmaElem.basis(p)
        for j in range(bounds.j(4) + 1):
            case = "p=%s, j=%d" % (p, j)
            rhs = ind_k0n(through_zhu(e)) if j == 0 else zero
            yield "zhu-k0-cube-mult", case, through_zhu(pj_ind(e, j + 1)), rhs
            rhs = ind_k0n(through_q(e)) if j == 0 else through_q(e) if j == 1 else zero
            yield "q-k0-cube-mult", case, through_q(pj_ind(e, j + 1)), rhs
        yield "q-k0-cube-derive", "p=%s" % p, through_q(nabla(e)), res_k0n(through_q(e))
        yield "zhu-k0-cube-derive", "p=%s" % p, through_zhu(nabla(e)), zero
