"""Differential polynomials in one field generator, over the integers.

The algebra is the polynomial ring on commuting generators L, d1L, d2L,
... where dkL stands for the k-th total derivative of L.  A monomial is
stored as a weakly decreasing tuple of derivative orders, so its degree-n
slice is in bijection with the partitions of n via order k <-> part k+1.
Coefficients are Python ints; all arithmetic is exact.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .sparse import Sparse


class AlgebraCtx(namedtuple("AlgebraCtx", "central_charge")):
    """Session configuration: the integer central charge of the bracket.

    The charge must be a genuine int; integer coefficients everywhere
    depend on it.
    """

    __slots__ = ()

    def __new__(cls, central_charge: int = 0):
        if not isinstance(central_charge, int) or isinstance(central_charge, bool):
            raise TypeError("central charge must be an integer, got %r" % (central_charge,))
        return super().__new__(cls, central_charge)


def mono(orders) -> tuple[int, ...]:
    """Canonical monomial key for a multiset of derivative orders."""
    ks = tuple(sorted((int(k) for k in orders), reverse=True))
    if ks and ks[-1] < 0:
        raise ValueError("derivative orders must be non-negative, got %d" % ks[-1])
    return ks


def mono_mul(a, b) -> tuple[int, ...]:
    return tuple(sorted(a + b, reverse=True))


def mono_degree(m) -> int:
    """Each factor dkL contributes k + 1; the unit monomial has degree 0."""
    return sum(k + 1 for k in m)


def conformal_weight(m) -> int:
    """Each factor dkL contributes k + 2; the unit monomial has weight 0."""
    return sum(k + 2 for k in m)


def _row(m: tuple) -> tuple:
    """The total derivative of monomial m as ((monomial, count), ...): one
    entry per distinct order k in m, raising one factor dkL to d(k+1)L,
    with the multiplicity of k as its count."""
    return tuple((m[:i] + (k + 1,) + m[i + 1:], m.count(k))
                 for i, k in enumerate(m) if not i or k != m[i - 1])


# A row holds one tuple of deg(m) orders per distinct order of m: the row
# of one 1,000-factor monomial over 300 orders holds about 2.4 MB
# (tracemalloc).  So only rows of monomials of at most ROW_CACHE_FACTORS
# factors are kept, at most about 3.8 KB each (sys.getsizeof, 16 distinct
# orders near 3,000), and the 4,096 rows of _row_cache hold at most about
# 15 MB.  A verification suite derives a few hundred distinct monomials of
# at most 12 factors hundreds of thousands of times, so its working set
# fits many times over.  Rows are kept for the life of the process: the
# factor bound and the row count are what bound the cache's bytes.
ROW_CACHE_FACTORS = 16
_row_cache = lru_cache(maxsize=4096)(_row)


def _derive_row(m: tuple) -> tuple:
    """_row(m), from _row_cache if m has at most ROW_CACHE_FACTORS factors."""
    return (_row_cache if len(m) <= ROW_CACHE_FACTORS else _row)(m)


def derive_terms(terms: dict, row=_derive_row) -> dict:
    """The total derivative of {monomial: int} terms, without zeros: the
    package's one derivative loop.  row(m) is the derivative of monomial
    m as ((monomial, count), ...); the default serves tuple monomials, and
    bracket_master passes rows of its packed monomials."""
    out: dict = {}
    get = out.get
    for m, c in terms.items():
        for m2, n in row(m):
            out[m2] = get(m2, 0) + c * n
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return out


class DiffPoly(Sparse):
    """Sparse integer polynomial in the generators dkL.

    terms maps canonical monomial tuples to nonzero int coefficients.
    Instances are treated as immutable; every operation returns a fresh
    value.
    """

    __slots__ = ()
    key_mul = staticmethod(mono_mul)

    @classmethod
    def one(cls) -> "DiffPoly":
        return cls({(): 1})

    @classmethod
    def const(cls, c: int) -> "DiffPoly":
        return cls({(): int(c)})

    @classmethod
    def gen(cls, k: int) -> "DiffPoly":
        """The single generator dkL."""
        return cls({mono((k,)): 1})

    @classmethod
    def monomial(cls, orders, coeff: int = 1) -> "DiffPoly":
        return cls({mono(orders): int(coeff)})

    def __pow__(self, e: int) -> "DiffPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = DiffPoly.one()
        for _ in range(e):
            out = out * self
        return out

    def derive(self) -> "DiffPoly":
        """Total derivative: dkL goes to d(k+1)L, extended by the product rule."""
        return DiffPoly._nonzero(derive_terms(self.terms))

    def partial_wrt(self, k: int) -> "DiffPoly":
        """Formal partial derivative with respect to the generator dkL,
        all generators treated as independent variables: each factor dkL of
        a monomial in turn is replaced by 1."""
        return DiffPoly.collect((m[:i] + m[i + 1:], c) for m, c in self.terms.items()
                                for i, j in enumerate(m) if j == k)

    def orders_present(self) -> set[int]:
        """Derivative orders occurring in any monomial."""
        return {k for m in self.terms for k in m}

    def max_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)
