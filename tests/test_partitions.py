import pytest
from hypothesis import given, strategies as st

from helpers import (
    conjugate_by_cells,
    covered_by_cells,
    covers_by_cells,
    partition_st,
    syt_by_fillings,
    syt_by_hooks,
)
from virmagri import Partition, partitions_of, partitions_upto, standard_tableaux_count
from virmagri.errors import DomainError


def P(*parts):
    return Partition(parts)


def test_constructor_normalizes():
    assert Partition((1, 3, 2)) == P(3, 2, 1)
    assert Partition((2, 0, 1, 0)) == P(2, 1)
    assert Partition(()) == Partition([])
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_conjugate_known_values():
    assert P(4, 2, 1).conjugate() == P(3, 2, 1, 1)
    assert Partition().conjugate() == Partition()
    assert P(5, 5).conjugate() == P(2, 2, 2, 2, 2)


def test_conjugate_matches_cell_transpose():
    for p in partitions_upto(8):
        assert p.conjugate() == conjugate_by_cells(p)


@given(partition_st(12))
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate().size == p.size


def test_addable_known_values():
    assert P(1).addable_results() == [P(2), P(1, 1)]
    assert P(2, 1).addable_results() == [P(3, 1), P(2, 2), P(2, 1, 1)]
    assert Partition().addable_results() == [P(1)]


def test_removable_known_values():
    assert P(2, 1).removable_results() == [P(1, 1), P(2)]
    assert P(1).removable_results() == [Partition()]
    assert P(3, 3).removable_results() == [P(3, 2)]
    assert Partition().removable_results() == []


def test_box_moves_match_cell_model():
    for p in partitions_upto(7):
        assert p.addable_results() == covers_by_cells(p)
        assert p.removable_results() == covered_by_cells(p)
        distinct = len(set(p.parts))
        assert len(p.addable_results()) == distinct + 1


def test_union_known_values():
    assert P(2, 1).union(P(3, 1)) == P(3, 2, 1, 1)
    assert P(1, 1).union(P(1)) == P(1, 1, 1)
    assert P(4, 2).union(Partition()) == P(4, 2)


@given(partition_st(), partition_st())
def test_union_commutative_and_additive(a, b):
    u = a.union(b)
    assert u == b.union(a)
    assert u.size == a.size + b.size


@given(partition_st(5), partition_st(5), partition_st(5))
def test_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


def test_insert_row_known_values():
    assert P(5, 2, 1).insert_row(4) == P(5, 4, 2, 1)
    assert Partition().insert_row(3) == P(3)
    assert P(2, 2).insert_row(2) == P(2, 2, 2)
    with pytest.raises(DomainError):
        P(2, 1).insert_row(0)


@given(partition_st(), st.integers(1, 6))
def test_insert_row_is_union_with_a_row(p, j):
    assert p.insert_row(j) == p.union(Partition((j,)))


@given(partition_st(), st.integers(1, 6))
def test_insert_row_bumps_first_j_columns(p, j):
    cols = list(p.conjugate().parts)
    cols += [0] * (j - len(cols))
    want = Partition(c + 1 if i < j else c for i, c in enumerate(cols))
    assert p.insert_row(j).conjugate() == want


def test_tableaux_count_known_values():
    assert standard_tableaux_count(P(2, 1)) == 2
    assert standard_tableaux_count(P(2, 2)) == 2
    for n in range(1, 9):
        assert standard_tableaux_count(Partition((n,))) == 1
    assert standard_tableaux_count(Partition()) == 1


def test_tableaux_count_three_routes_agree():
    # hook-length formula vs direct filling enumeration vs the box-removal recursion
    for p in partitions_upto(7):
        got = standard_tableaux_count(p)
        assert got == syt_by_fillings(p)
        assert got == syt_by_hooks(p)
        if p.size:
            assert got == sum(standard_tableaux_count(q) for q in p.removable_results())


def test_tableaux_count_hooks_to_twelve():
    for p in partitions_upto(12):
        assert standard_tableaux_count(p) == syt_by_hooks(p)


def test_tableaux_count_hooks_thirteen_to_sixteen():
    # The box (3,3) first exists at 16 boxes, as the corner of the 4x4
    # square, whose hook there is 1; the sweeps and the test above stop at
    # 12 boxes, so a wrong hook at that box showed nowhere before.
    for n in range(13, 17):
        for p in partitions_of(n):
            assert standard_tableaux_count(p) == syt_by_hooks(p)
    assert standard_tableaux_count(P(4, 4, 4, 4)) == 24024


def test_branching_dimension_identity():
    for p in partitions_upto(8):
        total = sum(standard_tableaux_count(q) for q in p.addable_results())
        assert total == (p.size + 1) * standard_tableaux_count(p)


def test_partitions_of_counts():
    counts = [len(partitions_of(n)) for n in range(13)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n in range(9):
        for p in partitions_of(n):
            assert p.size == n
    # descending lexicographic order
    assert partitions_of(4) == [P(4), P(3, 1), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1)]


def test_ordering_and_text():
    assert str(P(5, 2, 1)) == "[5,2,1]"
    assert str(Partition()) == "[]"
    assert P(2, 1) < P(3)
    assert sorted([P(3), P(2, 1)]) == [P(2, 1), P(3)]
