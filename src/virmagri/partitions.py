"""Integer partitions and Young-diagram combinatorics.

Partitions index everything downstream: they label the basis classes of
the symmetric-group side and they are in bijection with the monomials of
the differential polynomial algebra.  All operations are pure; Partition
values are immutable and hashable.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import DomainError


class Partition:
    """A weakly decreasing sequence of positive integers.

    The constructor normalizes: parts are sorted into weakly decreasing
    order and zero parts are dropped, so any multiset of non-negative
    integers yields its canonical representative.  Negative parts are
    rejected.  The empty partition is the unique partition of 0.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            self.parts = parts.parts
            return
        ps = sorted((int(p) for p in parts), reverse=True)
        if ps and ps[-1] < 0:
            raise ValueError("partition parts must be non-negative, got %d" % ps[-1])
        while ps and ps[-1] == 0:
            ps.pop()
        self.parts = tuple(ps)

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __repr__(self):
        return "Partition(%r)" % (list(self.parts),)

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def conjugate(self) -> "Partition":
        """Transpose the Young diagram: column lengths become parts."""
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(cols)

    def addable_results(self) -> list["Partition"]:
        """Partitions reachable by adding one box, ordered by the row index
        of the added box (top to bottom, the new bottom row last)."""
        out = []
        for i, p in enumerate(self.parts):
            if i == 0 or p < self.parts[i - 1]:
                grown = list(self.parts)
                grown[i] += 1
                out.append(Partition(grown))
        out.append(Partition(self.parts + (1,)))
        return out

    def removable_results(self) -> list["Partition"]:
        """Partitions reachable by removing one corner box, ordered by row index."""
        out = []
        last = len(self.parts) - 1
        for i, p in enumerate(self.parts):
            if i == last or p > self.parts[i + 1]:
                shrunk = list(self.parts)
                shrunk[i] -= 1
                out.append(Partition(shrunk))
        return out

    def union(self, other) -> "Partition":
        """Multiset union of the parts of both partitions."""
        other = Partition(other)
        # Both sides are canonical now: one sort, no second validation.
        out = Partition.__new__(Partition)
        out.parts = tuple(sorted(self.parts + other.parts, reverse=True))
        return out

    def insert_row(self, j: int) -> "Partition":
        """Insert one row of j boxes.  A row must hold at least one box."""
        if j < 1:
            raise DomainError("cannot insert a row of %d boxes" % j)
        return Partition(self.parts + (j,))


def standard_tableaux_count(p) -> int:
    """Number of standard fillings of the diagram of p, by the hook-length
    formula: n! over the product of the hook lengths of the n boxes."""
    p = Partition(p)
    cols = p.conjugate().parts
    hooks = 1
    for r, row in enumerate(p.parts):
        for c in range(row):
            hooks *= (row - c) + (cols[c] - r) - 1
    return factorial(p.size) // hooks


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        return []
    return [Partition(t) for t in _partition_tuples(n, n)]


def partitions_upto(n: int) -> list[Partition]:
    """All partitions of every size from 0 through n, sizes ascending."""
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out
