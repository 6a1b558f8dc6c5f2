"""The free abelian group on partition classes and its functor-induced maps.

A class combination is written as an integer combination of basis symbols
[mu] for partitions mu.  Under phi_sigma the basis element [mu] goes to
the monomial whose derivative orders are the parts of mu, each lowered by
one; that identification transports the whole bracket calculus onto the
partition side.
"""

from __future__ import annotations

from .brackets import bracket_master
from .diffpoly import AlgebraCtx, DiffPoly
from .errors import DomainError
from .partitions import Partition
from .sparse import Sparse


class K0SigmaElem(Sparse):
    """Integer combination of partition basis classes."""

    __slots__ = ()
    key_mul = staticmethod(Partition.union)

    @classmethod
    def basis(cls, p) -> "K0SigmaElem":
        return cls({Partition(p): 1})

    @classmethod
    def unit(cls) -> "K0SigmaElem":
        """The class of the empty partition, unit of the product."""
        return cls.basis(())


def _linear(e: K0SigmaElem, on_basis) -> K0SigmaElem:
    """Extend a basis-level map (Partition -> K0SigmaElem) linearly."""
    return K0SigmaElem.collect((q, c * d) for p, c in e.terms.items()
                               for q, d in on_basis(p).terms.items())


def phi_sigma(e: K0SigmaElem) -> DiffPoly:
    """Basis class of mu goes to the monomial with orders (part-1 for each part)."""
    return DiffPoly.collect((tuple(part - 1 for part in p.parts), c)
                            for p, c in e.terms.items())


def phi_sigma_inv(f: DiffPoly) -> K0SigmaElem:
    """Inverse correspondence: order k becomes part k+1."""
    return K0SigmaElem.collect((Partition(k + 1 for k in m), c) for m, c in f.terms.items())


def ind(e: K0SigmaElem) -> K0SigmaElem:
    """Linear extension of the one-box-addition branching sum."""
    return _linear(e, lambda p: K0SigmaElem(
        {q: 1 for q in p.addable_results()}))


def res(e: K0SigmaElem) -> K0SigmaElem:
    """Linear extension of the one-box-removal branching sum."""
    return _linear(e, lambda p: K0SigmaElem(
        {q: 1 for q in p.removable_results()}))


def _p_i_basis(mu: Partition, i: int) -> K0SigmaElem:
    conj = mu.conjugate().parts
    l = len(conj)
    if i > l + 1:
        return K0SigmaElem.zero()
    if i > 1:
        here = conj[i - 1] if i - 1 < l else 0
        if not conj[i - 2] > here:
            return K0SigmaElem.zero()
    cols = list(conj) + [0] * (i - l)
    cols[i - 1] += 1
    return K0SigmaElem.basis(Partition(cols).conjugate())


def p_i_ind(e: K0SigmaElem, i: int) -> K0SigmaElem:
    """Column-selective induction: add one box to column i of the
    conjugate diagram when that keeps it a diagram, otherwise kill the
    class."""
    if i < 1:
        raise DomainError("column index must be at least 1, got %d" % i)
    return _linear(e, lambda p: _p_i_basis(p, i))


def pj_ind(e: K0SigmaElem, j: int) -> K0SigmaElem:
    """Insert a row of j boxes into every basis diagram.

    This equals the composition of the column steps p_1 up to p_j; the
    pjind-diagram sweep checks the two routes against each other.
    """
    if j < 1:
        raise DomainError("row length must be at least 1, got %d" % j)
    return _linear(e, lambda p: K0SigmaElem.basis(p.insert_row(j)))


def _nabla_basis(p: Partition) -> K0SigmaElem:
    """Grow each part in turn; equal parts give the same class."""
    parts = p.parts
    return K0SigmaElem.collect((Partition(parts[:i] + (v + 1,) + parts[i + 1:]), 1)
                               for i, v in enumerate(parts))


def nabla(e: K0SigmaElem) -> K0SigmaElem:
    """The derivation on class combinations: grow one part by a box,
    weighted by the multiplicity of the part value."""
    return _linear(e, _nabla_basis)


class K0LambdaPoly(Sparse):
    """Finite map from lambda exponent to K0SigmaElem coefficient."""

    __slots__ = ()


def lambda_bracket_k0(a: K0SigmaElem, b: K0SigmaElem, ctx: AlgebraCtx) -> K0LambdaPoly:
    """The bracket transported through phi_sigma, coefficient by coefficient."""
    br = bracket_master(phi_sigma(a), phi_sigma(b), ctx)
    return K0LambdaPoly._nonzero({k: phi_sigma_inv(p) for k, p in br.terms.items()})
