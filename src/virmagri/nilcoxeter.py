"""Grothendieck groups of the nil-Coxeter tower, the Weyl algebra, and the
operator realization of differential monomials.

K0 carries the basis [N_n] (projective classes) and G0 the basis [L_n]
(simple classes); induction and restriction act as x and d/dx under the
polynomial realization phi_n.  Weyl elements are kept in normal order,
all x powers to the left of all derivative powers, with products
renormalized through the relation D x = x D + 1.
"""

from __future__ import annotations

from math import comb, factorial, perm
from operator import add

from .diffpoly import AlgebraCtx, DiffPoly
from .errors import DomainError
from .k0sigma import K0SigmaElem
from .sparse import Sparse


class _IntBasisElem(Sparse):
    """Integer combination over a basis indexed by non-negative integers."""

    __slots__ = ()

    @classmethod
    def basis(cls, n: int):
        if n < 0:
            raise ValueError("basis index must be non-negative, got %d" % n)
        return cls({n: 1})


class K0NElem(_IntBasisElem):
    """Combination of projective classes [N_n]; [N_0] is the product unit."""

    key_mul = staticmethod(add)


class G0NElem(_IntBasisElem):
    """Combination of simple classes [L_n]; products pick up binomial
    structure constants, keeping everything integral."""

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return G0NElem.collect((n + m, c * d * comb(n + m, n)) for n, c in self.terms.items()
                               for m, d in other.terms.items())


def ind_k0n(e: K0NElem) -> K0NElem:
    """[N_n] -> [N_(n+1)], extended linearly."""
    return K0NElem({n + 1: c for n, c in e.terms.items()})


def res_k0n(e: K0NElem) -> K0NElem:
    """[N_n] -> n*[N_(n-1)], extended linearly; kills [N_0]."""
    return K0NElem({n - 1: c * n for n, c in e.terms.items() if n > 0})


def ind_g0n(e: G0NElem) -> G0NElem:
    """[L_n] -> (n+1)*[L_(n+1)], extended linearly."""
    return G0NElem({n + 1: c * (n + 1) for n, c in e.terms.items()})


def res_g0n(e: G0NElem) -> G0NElem:
    """[L_n] -> [L_(n-1)], extended linearly; kills [L_0]."""
    return G0NElem({n - 1: c for n, c in e.terms.items() if n > 0})


class XPoly(Sparse):
    """Sparse integer polynomial in one variable x."""

    __slots__ = ()
    key_mul = staticmethod(add)

    @classmethod
    def one(cls) -> "XPoly":
        return cls({0: 1})

    @classmethod
    def x(cls) -> "XPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, n: int, c: int = 1) -> "XPoly":
        return cls({n: c})

    def derivative(self) -> "XPoly":
        return XPoly({n - 1: c * n for n, c in self.terms.items() if n > 0})


def phi_n(e: K0NElem) -> XPoly:
    """The polynomial realization [N_n] -> x^n."""
    return XPoly(dict(e.terms))


def phi_n_inv(p: XPoly) -> K0NElem:
    return K0NElem(dict(p.terms))


class WeylElem(Sparse):
    """Normally ordered integer combination of x^a D^b."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "WeylElem":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "WeylElem":
        if a < 0 or b < 0:
            raise ValueError("negative exponent in a Weyl monomial")
        return cls({(a, b): c})

    def __mul__(self, other):
        """Product with renormalization: every D walking past an x leaves
        a lower-order correction term behind."""
        if isinstance(other, int):
            return self.scale(other)
        return WeylElem.collect(((a + e - k, b + f - k), c1 * c2 * comb(b, k) * perm(e, k))
                                for (a, b), c1 in self.terms.items()
                                for (e, f), c2 in other.terms.items()
                                for k in range(min(b, e) + 1))

    def apply(self, p: XPoly) -> XPoly:
        """Act on a polynomial: x multiplies, D differentiates."""
        return XPoly.collect((n - b + a, c * cn * perm(n, b)) for (a, b), c in self.terms.items()
                             for n, cn in p.terms.items() if b <= n)


class IndResExpr(Sparse):
    """Integer combination of formal words in the letters Ind and Res.

    Words are tuples over {'I', 'R'}, leftmost letter acting last; the
    substitution Ind -> x, Res -> D lands in the Weyl algebra.
    """

    __slots__ = ()
    key_mul = staticmethod(add)

    @classmethod
    def word(cls, letters, coeff: int = 1) -> "IndResExpr":
        w = tuple(letters)
        if any(ch not in ("I", "R") for ch in w):
            raise ValueError("word letters must be 'I' or 'R'")
        return cls({w: coeff})

    @classmethod
    def identity(cls) -> "IndResExpr":
        return cls({(): 1})

    def to_weyl(self) -> WeylElem:
        """Substitute x for Ind and D for Res, normalizing the product."""
        out = WeylElem.zero()
        for w, c in self.terms.items():
            prod = WeylElem.one()
            for ch in w:
                prod = prod * (WeylElem.monomial(1, 0) if ch == "I" else WeylElem.monomial(0, 1))
            out = out + prod * c
        return out

    def act_k0n(self, e: K0NElem) -> K0NElem:
        """Run the word as an operator on a projective-class combination,
        rightmost letter first."""
        out = K0NElem.zero()
        for w, c in self.terms.items():
            cur = e
            for ch in reversed(w):
                cur = ind_k0n(cur) if ch == "I" else res_k0n(cur)
            out = out + cur.scale(c)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]), reverse=True):
            word = "".join("Ind" if ch == "I" else "Res" for ch in w) or "Id"
            bits.append(word if c == 1 else "%d*%s" % (c, word))
        return " + ".join(bits)


def _require_zero_charge(ctx: AlgebraCtx, what: str) -> None:
    if ctx.central_charge != 0:
        raise DomainError(
            "%s is defined at central charge 0, got %d" % (what, ctx.central_charge))


def psi2(f: DiffPoly, ctx: AlgebraCtx) -> WeylElem:
    """Quantize a differential polynomial: each factor of order j becomes
    j! * x^(j+3) D, multiplied out left to right in decreasing order."""
    _require_zero_charge(ctx, "quantization")
    out = WeylElem.zero()
    for m, c in f.terms.items():
        prod = WeylElem.one()
        scal = c
        for j in m:
            scal *= factorial(j)
            prod = prod * WeylElem.monomial(j + 3, 1)
        out = out + prod * scal
    return out


def psi1(e: K0SigmaElem, ctx: AlgebraCtx) -> IndResExpr:
    """Quantize a class combination as a formal Ind/Res word: the part p
    contributes (p-1)! * Ind^(p+2) Res, factors in decreasing part order."""
    _require_zero_charge(ctx, "quantization")
    out = IndResExpr.zero()
    for p, c in e.terms.items():
        letters: list[str] = []
        scal = c
        for part in p.parts:
            j = part - 1
            scal *= factorial(j)
            letters.extend(["I"] * (j + 3) + ["R"])
        out = out + IndResExpr.word(letters, scal)
    return out
