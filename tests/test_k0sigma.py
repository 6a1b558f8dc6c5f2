import pytest
from hypothesis import given, settings, strategies as st

from helpers import diffpoly_st, partition_st
from virmagri import (
    AlgebraCtx,
    DiffPoly,
    K0LambdaPoly,
    K0SigmaElem,
    Partition,
    bracket_master,
    ind,
    lambda_bracket_k0,
    nabla,
    p_i_ind,
    phi_sigma,
    phi_sigma_inv,
    pj_ind,
    res,
    standard_tableaux_count,
)
from virmagri.errors import DomainError

C1 = AlgebraCtx(1)


def B(*parts):
    return K0SigmaElem.basis(parts)


def test_phi_sigma_known_values():
    assert phi_sigma(B(2, 1)) == DiffPoly.monomial((1, 0))
    assert phi_sigma(B()) == DiffPoly.one()
    e = 3 * B(3, 1, 1) - B(2)
    assert phi_sigma(e) == 3 * DiffPoly.monomial((2, 0, 0)) - DiffPoly.gen(1)


@given(st.dictionaries(partition_st(7), st.integers(-5, 5), max_size=4), st.integers(1, 5))
def test_pj_ind_equals_column_step_composition(terms, j):
    e = K0SigmaElem(terms)
    composition = e
    for i in range(1, j + 1):
        composition = p_i_ind(composition, i)
    assert pj_ind(e, j) == composition


@given(partition_st(10))
def test_phi_roundtrip_on_classes(p):
    e = K0SigmaElem.basis(p)
    assert phi_sigma_inv(phi_sigma(e)) == e


@given(diffpoly_st(8))
def test_phi_roundtrip_on_polynomials(f):
    assert phi_sigma(phi_sigma_inv(f)) == f


def test_ind_res_known_values():
    assert ind(B(1)) == B(2) + B(1, 1)
    assert res(B(2, 1)) == B(1, 1) + B(2)
    assert res(B()).is_zero()


def test_p_i_known_values():
    # adding a box to column i of the conjugate diagram
    assert p_i_ind(B(1), 1) == B(1, 1)
    assert p_i_ind(B(1), 2) == B(2)
    assert p_i_ind(B(1, 1), 2) == B(2, 1)
    assert p_i_ind(B(1), 3).is_zero()
    assert p_i_ind(B(), 1) == B(1)
    with pytest.raises(DomainError):
        p_i_ind(B(2), 0)


def test_p_i_pieces_sum_to_ind():
    for p in [Partition(t) for t in [(), (1,), (2, 1), (3, 1, 1), (2, 2)]]:
        e = K0SigmaElem.basis(p)
        total = K0SigmaElem.zero()
        for i in range(1, len(p) + 3):
            total = total + p_i_ind(e, i)
        assert total == ind(e)


def test_pj_ind_known_values():
    assert pj_ind(B(5, 2, 1), 4) == B(5, 4, 2, 1)
    for j in range(1, 5):
        assert pj_ind(B(), j) == K0SigmaElem.basis((j,))
    assert pj_ind(B(2, 2), 2) == B(2, 2, 2)
    with pytest.raises(DomainError):
        pj_ind(B(1), 0)


def test_nabla_known_values():
    assert nabla(B(2, 2, 1)) == 2 * B(3, 2, 1) + B(2, 2, 2)
    assert nabla(B()).is_zero()
    assert nabla(B(1)) == B(2)


def test_product_known_values():
    assert B(2, 1) * B(3, 1) == B(3, 2, 1, 1)
    assert B(1) * B(1) == B(1, 1)
    e = 2 * B(2) - B(1, 1)
    assert e * K0SigmaElem.unit() == e


def test_lambda_bracket_known_values():
    got = lambda_bracket_k0(B(1), B(1), C1)
    assert got == K0LambdaPoly({0: B(2), 1: 2 * B(1), 3: B()})
    assert lambda_bracket_k0(B(), B(3, 2), C1) == K0LambdaPoly()
    got = lambda_bracket_k0(B(2), B(2), C1)
    assert got == K0LambdaPoly({1: -B(3), 2: -3 * B(2), 3: -2 * B(1), 5: -B()})


@given(partition_st(9), st.integers(1, 5))
def test_row_insertion_diagram(p, j):
    e = K0SigmaElem.basis(p)
    assert phi_sigma(pj_ind(e, j)) == DiffPoly.gen(j - 1) * phi_sigma(e)


@given(partition_st(10))
def test_nabla_diagram(p):
    e = K0SigmaElem.basis(p)
    assert phi_sigma(nabla(e)) == phi_sigma(e).derive()


@given(partition_st(8), st.integers(1, 5))
def test_nabla_pjind_commutation(p, j):
    e = K0SigmaElem.basis(p)
    assert nabla(pj_ind(e, j)) == pj_ind(e, j + 1) + pj_ind(nabla(e), j)


@given(partition_st(8), partition_st(8))
def test_phi_is_a_ring_map(a, b):
    ea, eb = K0SigmaElem.basis(a), K0SigmaElem.basis(b)
    assert phi_sigma(ea * eb) == phi_sigma(ea) * phi_sigma(eb)
    assert ea * eb == eb * ea


@given(partition_st(6), partition_st(6))
def test_nabla_leibniz(a, b):
    ea, eb = K0SigmaElem.basis(a), K0SigmaElem.basis(b)
    assert nabla(ea * eb) == nabla(ea) * eb + ea * nabla(eb)


@given(partition_st(10))
def test_ind_dimension_identity(p):
    e = ind(K0SigmaElem.basis(p))
    got = sum(c * standard_tableaux_count(q) for q, c in e.terms.items())
    assert got == (p.size + 1) * standard_tableaux_count(p)


@given(partition_st(5), partition_st(4))
@settings(max_examples=30)
def test_bracket_transport_consistency(a, b):
    ea, eb = K0SigmaElem.basis(a), K0SigmaElem.basis(b)
    got = lambda_bracket_k0(ea, eb, C1)
    want = bracket_master(phi_sigma(ea), phi_sigma(eb), C1)
    assert sorted(got.terms) == sorted(want.terms)
    for k, e in got.terms.items():
        assert phi_sigma(e) == want.coeff(k)


def test_linear_extension_of_maps():
    e = 2 * B(2, 1) - 3 * B(1)
    assert nabla(e) == 2 * nabla(B(2, 1)) - 3 * nabla(B(1))
    assert ind(e) == 2 * ind(B(2, 1)) - 3 * ind(B(1))
    assert pj_ind(e, 2) == 2 * pj_ind(B(2, 1), 2) - 3 * pj_ind(B(1), 2)
