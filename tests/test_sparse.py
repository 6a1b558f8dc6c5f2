import pytest

from virmagri import (
    BiLambdaPoly,
    DiffPoly,
    G0NElem,
    IndResExpr,
    K0NElem,
    K0SigmaElem,
    LambdaPoly,
    Partition,
    WeylElem,
    XPoly,
)

L = DiffPoly.gen(0)
dL = DiffPoly.gen(1)

SAMPLES = [
    DiffPoly({(1, 0): 3, (): -2}),
    LambdaPoly({0: L, 2: -3 * dL}),
    BiLambdaPoly({(0, 1): L, (2, 0): -dL}),
    K0SigmaElem({Partition((2, 1)): 2, Partition(()): -1}),
    K0NElem({0: 1, 3: -2}),
    G0NElem({0: 1, 3: -2}),
    XPoly({0: 1, 3: -2}),
    WeylElem({(1, 2): 3, (0, 0): -1}),
    IndResExpr({("I", "R"): 2, (): -1}),
]


@pytest.mark.parametrize("a", SAMPLES, ids=lambda a: type(a).__name__)
def test_zero_results_are_empty(a):
    zero = type(a).zero()
    assert a and not a.is_zero()
    d = a - a
    assert not d and d.terms == {} and d == zero
    assert a.scale(0).terms == {} and a.scale(0) == zero
    assert a + zero == a and a - zero == a and -(-a) == a
    assert type(a)({k: 0 for k in a.terms}).is_zero()


@pytest.mark.parametrize("a", [s for s in SAMPLES if isinstance(s, (LambdaPoly, BiLambdaPoly))],
                         ids=lambda a: type(a).__name__)
def test_lambda_types_have_no_product(a):
    with pytest.raises(TypeError):
        a * a
    with pytest.raises(TypeError):
        a * 2
    with pytest.raises(TypeError):
        2 * a


def test_equality_needs_the_same_type():
    terms = {0: 1, 3: -2}
    assert K0NElem(terms) == K0NElem(dict(terms))
    assert K0NElem(terms) != G0NElem(terms)
    assert XPoly(terms) != K0NElem(terms)
    assert K0NElem() != G0NElem()


@pytest.mark.parametrize("a", SAMPLES, ids=lambda a: type(a).__name__)
def test_constructor_copies_and_drops_zeros(a):
    cls = type(a)
    terms = dict(a.terms)
    b = cls(terms)
    key, c = next(iter(terms.items()))
    terms[key] = c + c
    terms["another key"] = c
    assert b == a and b.terms is not terms
    with_zero = cls({**a.terms, "zero key": 0 * c})
    assert with_zero == a and "zero key" not in with_zero.terms
    for f in (1, -1, 3):
        assert all(a.scale(f).terms.values())
    assert all((-a).terms.values())
    assert a.scale(0).terms == {} and a.scale(0) == cls.zero()


@pytest.mark.parametrize("a", SAMPLES, ids=lambda a: type(a).__name__)
def test_collect_sums_pairs_and_drops_cancelled_keys(a):
    cls, items = type(a), list(a.terms.items())
    # Repeated keys sum; a LambdaPoly's DiffPoly coefficients add as Sparse values.
    assert cls.collect(items + items) == a + a
    assert cls.collect([(k, 3 * c) for k, c in items] + [(k, -2 * c) for k, c in items]) == a
    # A full cancellation leaves no key, not a zero coefficient.
    (k0, c0), *rest = items
    got = cls.collect(items + [(k0, -c0)])
    assert got.terms == dict(rest) and k0 not in got.terms
    assert cls.collect(items + [(k, -c) for k, c in items]).terms == {}
    assert cls.collect([]).terms == {} and cls.collect(iter(items)) == a
    # A plain-dict model of the same sum, interleaved repeats included.
    pairs = [(k, m * c) for m in (2, -1, 5, -6) for k, c in items] + items[:1]
    model: dict = {}
    for k, c in pairs:
        model[k] = model[k] + c if k in model else c
    assert cls.collect(pairs) == cls(model) == cls(dict(items[:1]))


def test_collect_adds_sparse_coefficients():
    got = LambdaPoly.collect([(0, L), (2, dL), (0, dL), (2, -dL), (1, 2 * L), (1, L)])
    assert got == LambdaPoly({0: L + dL, 1: 3 * L}) and 2 not in got.terms
