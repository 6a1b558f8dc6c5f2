import pytest
from hypothesis import given, settings, strategies as st

from helpers import partition_st
from virmagri import (
    AlgebraCtx,
    DiffPoly,
    G0NElem,
    IndResExpr,
    K0NElem,
    K0SigmaElem,
    WeylElem,
    XPoly,
    ind_g0n,
    ind_k0n,
    phi_n,
    phi_n_inv,
    phi_sigma,
    psi1,
    psi2,
    res_g0n,
    res_k0n,
)
from virmagri.errors import DomainError

C0 = AlgebraCtx(0)


def W(a, b, c=1):
    return WeylElem.monomial(a, b, c)


def test_k0n_action_known_values():
    assert ind_k0n(K0NElem.basis(3)) == K0NElem.basis(4)
    assert res_k0n(K0NElem.basis(3)) == K0NElem.basis(2) * 3
    assert res_k0n(K0NElem.basis(0)).is_zero()


def test_g0n_action_known_values():
    assert ind_g0n(G0NElem.basis(2)) == G0NElem.basis(3) * 3
    assert res_g0n(G0NElem.basis(5)) == G0NElem.basis(4)
    assert res_g0n(G0NElem.basis(0)).is_zero()


def test_class_products_known_values():
    assert K0NElem.basis(2) * K0NElem.basis(3) == K0NElem.basis(5)
    assert G0NElem.basis(1) * G0NElem.basis(1) == G0NElem.basis(2) * 2
    e = 2 * G0NElem.basis(3) - G0NElem.basis(1)
    assert G0NElem.basis(0) * e == e


def test_weyl_commutation_relation():
    for n in range(51):
        e = K0NElem.basis(n)
        assert res_k0n(ind_k0n(e)) - ind_k0n(res_k0n(e)) == e
        s = G0NElem.basis(n)
        assert res_g0n(ind_g0n(s)) - ind_g0n(res_g0n(s)) == s


def test_phi_n_known_values():
    assert phi_n(K0NElem.basis(3)) == XPoly.monomial(3)
    assert phi_n(K0NElem.basis(0)) == XPoly.one()
    e = 2 * K0NElem.basis(1) - K0NElem.basis(0)
    assert phi_n(e) == XPoly({1: 2, 0: -1})
    assert phi_n_inv(phi_n(e)) == e


def test_phi_n_intertwines():
    x = XPoly.x()
    for n in range(31):
        e = K0NElem.basis(n)
        assert phi_n(ind_k0n(e)) == x * phi_n(e)
        assert phi_n(res_k0n(e)) == phi_n(e).derivative()


def test_weyl_mul_known_values():
    assert W(0, 1) * W(1, 0) == W(1, 1) + WeylElem.one()
    assert W(1, 0) * W(0, 1) == W(1, 1)
    assert W(0, 2) * W(2, 0) == W(2, 2) + 4 * W(1, 1) + 2 * WeylElem.one()


def test_weyl_apply_known_values():
    x2 = XPoly.monomial(2)
    assert W(1, 1).apply(x2) == 2 * x2
    assert W(0, 1).apply(XPoly.one()) == XPoly.zero()
    lhs = (W(2, 2) + 4 * W(1, 1) + 2 * WeylElem.one()).apply(x2)
    rhs = W(0, 2).apply(W(2, 0).apply(x2))
    assert lhs == rhs == 12 * x2


_weyl_st = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-5, 5)),
    min_size=1, max_size=3,
).map(lambda ts: sum((W(a, b, c) for a, b, c in ts), WeylElem.zero()))


@given(_weyl_st, _weyl_st)
def test_weyl_mul_matches_operator_action(u, v):
    # the polynomial action is faithful, so checking products against
    # composed actions on enough powers of x pins the normal form
    uv = u * v
    for k in range(9):
        p = XPoly.monomial(k)
        assert uv.apply(p) == u.apply(v.apply(p))


@given(_weyl_st, _weyl_st, _weyl_st)
@settings(max_examples=40)
def test_weyl_mul_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


def test_witt_commutator():
    for p in range(1, 9):
        for q in range(1, 9):
            lhs = W(p, 1) * W(q, 1) - W(q, 1) * W(p, 1)
            assert lhs == W(p + q - 1, 1, q - p)


def test_psi2_known_values():
    assert psi2(DiffPoly.gen(2), C0) == 2 * W(5, 1)
    assert psi2(DiffPoly.gen(0), C0) == W(3, 1)
    assert psi2(DiffPoly.gen(0) ** 2, C0) == W(6, 2) + 3 * W(5, 1)
    assert psi2(DiffPoly.one(), C0) == WeylElem.one()
    with pytest.raises(DomainError):
        psi2(DiffPoly.gen(0), AlgebraCtx(1))


def test_psi1_known_values():
    w = psi1(K0SigmaElem.basis((1,)), C0)
    assert w == IndResExpr.word("IIIR")
    assert w.to_weyl() == W(3, 1)
    w = psi1(K0SigmaElem.basis((3,)), C0)
    assert w == IndResExpr.word("IIIIIR", 2)
    assert w.to_weyl() == 2 * W(5, 1)
    w = psi1(K0SigmaElem.basis((1, 1)), C0)
    assert w == IndResExpr.word("IIIRIIIR")
    assert w.to_weyl() == W(6, 2) + 3 * W(5, 1)
    with pytest.raises(DomainError):
        psi1(K0SigmaElem.basis((1,)), AlgebraCtx(-2))


@given(partition_st(6))
def test_quantization_diagram(p):
    e = K0SigmaElem.basis(p)
    assert psi1(e, C0).to_weyl() == psi2(phi_sigma(e), C0)


@given(partition_st(5), st.integers(0, 6))
@settings(max_examples=40)
def test_word_action_matches_weyl_action(p, m):
    word = psi1(K0SigmaElem.basis(p), C0)
    base = K0NElem.basis(m)
    via_action = word.act_k0n(base)
    via_weyl = phi_n_inv(word.to_weyl().apply(phi_n(base)))
    assert via_action == via_weyl


def test_ind_res_expr_algebra():
    a = IndResExpr.word("IR")
    b = IndResExpr.word("RI")
    assert a + b == IndResExpr({("I", "R"): 1, ("R", "I"): 1})
    assert (a * b) == IndResExpr.word("IRRI")
    assert a.to_weyl() == W(1, 1)
    assert b.to_weyl() == W(1, 1) + WeylElem.one()
    assert IndResExpr.identity().act_k0n(K0NElem.basis(4)) == K0NElem.basis(4)


@pytest.mark.parametrize("make", [
    lambda: K0NElem.basis(-1),
    lambda: G0NElem.basis(-1),
    lambda: WeylElem.monomial(-1, 0),
    lambda: IndResExpr.word("IX"),
], ids=["k0n-basis", "g0n-basis", "weyl-monomial", "ind-res-word"])
def test_negative_indices_and_unknown_letters_are_refused(make):
    with pytest.raises(ValueError):
        make()


def test_g0_structure_constants_are_divided_power_consistent():
    from math import comb, factorial

    for n in range(0, 20):
        for m in range(0, 20):
            assert factorial(n + m) == comb(n + m, n) * factorial(n) * factorial(m)
