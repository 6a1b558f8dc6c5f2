import pytest
from hypothesis import given, strategies as st

from helpers import diffpoly_st, mono_st, p1_derive, realize, realize_line, eval_at
from virmagri import DiffPoly, conformal_weight, mono, mono_degree, partitions_of
from virmagri.diffpoly import ROW_CACHE_FACTORS, _row_cache

L = DiffPoly.gen(0)
dL = DiffPoly.gen(1)


def test_mono_canonicalization():
    assert mono([0, 1, 1]) == (1, 1, 0)
    assert mono([]) == ()
    with pytest.raises(ValueError):
        mono([-1])


def test_product_known_values():
    assert L * dL == DiffPoly.monomial((1, 0))
    assert (L + dL) * (L - dL) == L * L - dL * dL
    f = 3 * DiffPoly.monomial((2, 0)) - dL
    assert DiffPoly.one() * f == f
    assert f * DiffPoly.zero() == DiffPoly.zero()


def test_derive_known_values():
    assert (L * L).derive() == 2 * DiffPoly.monomial((1, 0))
    assert DiffPoly.one().derive() == DiffPoly.zero()
    # (d1L)^2 L -> 2 d2L d1L L + d1L^3
    f = DiffPoly.monomial((1, 1, 0))
    assert f.derive() == 2 * DiffPoly.monomial((2, 1, 0)) + DiffPoly.monomial((1, 1, 1))


def test_rows_of_long_monomials_are_not_cached():
    # 1,000 factors over 300 orders: the row alone would hold about 2.4 MB.
    m = mono(k % 300 for k in range(1000))
    want: dict = {}
    for k in set(m):
        rest = list(m)
        rest.remove(k)
        key = mono(rest + [k + 1])
        want[key] = want.get(key, 0) + m.count(k)
    _row_cache.cache_clear()
    assert DiffPoly.monomial(m).derive() == DiffPoly(want)
    assert _row_cache.cache_info().currsize == 0
    short = mono(range(ROW_CACHE_FACTORS))
    assert DiffPoly.monomial(short).derive().terms
    assert _row_cache.cache_info().currsize == 1
    _row_cache.cache_clear()


def test_degree_and_weight_known_values():
    assert mono_degree(mono((0, 0, 3))) == 6
    assert mono_degree(()) == 0
    for n in range(7):
        assert mono_degree((n,)) == n + 1
        assert conformal_weight((n,)) == n + 2
    assert conformal_weight(()) == 0
    assert conformal_weight((1, 0)) == 5


def test_partial_known_values():
    assert (L * L).partial_wrt(0) == 2 * L
    assert (L * L).partial_wrt(1) == DiffPoly.zero()
    f = DiffPoly.monomial((1, 1, 0))  # L (d1L)^2
    assert f.partial_wrt(1) == 2 * DiffPoly.monomial((1, 0))


@given(diffpoly_st(), diffpoly_st())
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(diffpoly_st(4), diffpoly_st(4), diffpoly_st(4))
def test_mul_associative_distributive(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(diffpoly_st(8), diffpoly_st(8))
def test_derive_leibniz(f, g):
    assert (f * g).derive() == f.derive() * g + f * g.derive()


@given(diffpoly_st(7), st.lists(st.integers(-4, 4), min_size=3, max_size=6))
def test_derive_matches_plain_polynomial_model(f, coeffs):
    # realize each order-k factor as the k-th derivative of a concrete
    # integer polynomial; the total derivative must become d/dt
    l_poly = {i: c for i, c in enumerate(coeffs) if c}
    assert realize(f.derive(), l_poly) == p1_derive(realize(f, l_poly))


@given(diffpoly_st(7), st.integers(0, 4),
       st.dictionaries(st.integers(0, 7), st.integers(-5, 5), max_size=8))
def test_partial_matches_line_restriction(f, k, values):
    # the linear t-coefficient of f restricted to a coordinate line equals
    # the formal partial evaluated at the base point
    line = realize_line(f, values, k)
    assert line.get(1, 0) == eval_at(f.partial_wrt(k), values)


@given(mono_st(8))
def test_derive_shifts_gradings(m):
    d = DiffPoly.monomial(m).derive()
    for k in d.terms:
        assert mono_degree(k) == mono_degree(m) + 1
        assert conformal_weight(k) == conformal_weight(m) + 1


def test_degree_slices_match_partitions():
    def enum_monos(total, cap):
        if total == 0:
            yield ()
            return
        for k in range(min(cap, total - 1), -1, -1):
            for rest in enum_monos(total - (k + 1), k):
                yield (k,) + rest

    for n in range(11):
        direct = sorted(enum_monos(n, n))
        via_parts = sorted(tuple(v - 1 for v in p.parts) for p in partitions_of(n))
        assert direct == via_parts


def test_charge_must_be_an_integer():
    from virmagri import AlgebraCtx

    AlgebraCtx(-7)
    with pytest.raises(TypeError):
        AlgebraCtx(1.5)
    with pytest.raises(TypeError):
        AlgebraCtx("3")
    with pytest.raises(TypeError):
        AlgebraCtx(True)


def test_charge_context_is_an_immutable_value():
    from virmagri import AlgebraCtx

    ctx = AlgebraCtx(central_charge=1)
    assert repr(ctx) == "AlgebraCtx(central_charge=1)"
    assert repr(AlgebraCtx()) == "AlgebraCtx(central_charge=0)"
    assert ctx == AlgebraCtx(1) and ctx != AlgebraCtx(-2) and AlgebraCtx() == AlgebraCtx(0)
    assert hash(ctx) == hash(AlgebraCtx(1)) and len({ctx, AlgebraCtx(1), AlgebraCtx(0)}) == 2
    with pytest.raises(AttributeError):
        ctx.central_charge = 2
    assert ctx.central_charge == 1


def test_pow_and_scalars():
    assert L ** 0 == DiffPoly.one()
    assert L ** 3 == L * L * L
    assert (-2) * L == DiffPoly.monomial((0,), -2)
    assert DiffPoly.const(5) == 5 * DiffPoly.one()
    assert DiffPoly.const(0).is_zero()
    with pytest.raises(ValueError):
        L ** -1
