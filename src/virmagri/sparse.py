"""Finite integer combinations over a hashable basis.

Every algebra element type in the package is one of these: a dict from
basis keys to nonzero coefficients, where a coefficient is an int or
itself a Sparse value (lambda polynomials carry DiffPoly coefficients).
The constructor copies the caller's dict and drops zero coefficients, so
accumulation loops never have to; it filters only when a zero is
present.  The coefficient rings (the integers and the integer
differential polynomials) have no zero divisors, so negating or scaling
by a nonzero factor cannot make a zero and builds its result unchecked.
"""

from __future__ import annotations


class Sparse:
    """Immutable finite combination: terms maps keys to nonzero coefficients.

    Subclasses with a multiplicative basis set key_mul to the product of
    two keys and get the bilinear product; the others have no product.
    """

    __slots__ = ("terms",)
    key_mul = None

    def __init__(self, terms=None):
        if not terms:
            self.terms = {}
        elif all(terms.values()):
            self.terms = dict(terms)
        else:
            self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def _nonzero(cls, terms: dict):
        """Wrap terms, a fresh dict known to hold no zero, without a check
        or a copy."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def collect(cls, pairs):
        """The sum of (key, coefficient) pairs, a key possibly repeated and a
        coefficient an int or a Sparse value; cancelled keys are dropped."""
        out: dict = {}
        for k, c in pairs:
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return cls(out)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        # collect inlined: this loop is the hot path of polynomial sums.  Both
        # sides hold no zero, so only a key the merge cancels is deleted.
        out = dict(self.terms)
        get = out.get
        for k, c in other.terms.items():
            cur = get(k)
            if cur is None:
                out[k] = c
            elif s := cur + c:
                out[k] = s
            else:
                del out[k]
        return self._nonzero(out)

    def __neg__(self):
        return self._nonzero({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        """Multiply every coefficient by f (an int, or a coefficient value)."""
        if not f:
            return type(self)()
        return self._nonzero({k: c * f for k, c in self.terms.items()})

    def __mul__(self, other):
        key_mul = self.key_mul
        if key_mul is None:
            return NotImplemented
        if isinstance(other, int):
            return self.scale(other)
        # collect inlined: this loop is the hot path of polynomial products.
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = key_mul(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
        return type(self)(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self):
        from .text import format_value  # text imports every value type

        return format_value(self)
