import pytest
from hypothesis import given, strategies as st

from helpers import diffpoly_st, partition_st
from virmagri import (
    AlgebraCtx,
    DiffPoly,
    G0NElem,
    K0NElem,
    K0SigmaElem,
    LambdaPoly,
    Partition,
    WeylElem,
    XPoly,
    bracket_master,
)
from virmagri.errors import ParseError
from virmagri.text import (
    format_diffpoly,
    format_k0lambda,
    format_k0sigma,
    format_kn,
    format_lambdapoly,
    format_partition,
    format_weyl,
    format_xpoly,
    parse_diffpoly,
    parse_k0lambda,
    parse_k0sigma,
    parse_kn,
    parse_lambdapoly,
    parse_partition,
    parse_weyl,
    parse_xpoly,
)

L = DiffPoly.gen(0)
dL = DiffPoly.gen(1)


def test_parse_diffpoly_known_values():
    want = 3 * DiffPoly.monomial((1, 1, 0)) - 2 * DiffPoly.gen(3)
    assert parse_diffpoly("3 L d1L^2 - 2 d3L") == want
    assert parse_diffpoly("3 d1L^2 L - 2 d3L") == want
    assert parse_diffpoly("1") == DiffPoly.one()
    assert parse_diffpoly("0") == DiffPoly.zero()
    assert parse_diffpoly("-L + L").is_zero()
    assert parse_diffpoly("2*d2L") == 2 * DiffPoly.gen(2)


def test_format_diffpoly_known_values():
    f = 3 * DiffPoly.monomial((1, 1, 0)) - 2 * DiffPoly.gen(3)
    assert format_diffpoly(f) == "3 d1L^2 L - 2 d3L"
    assert format_diffpoly(DiffPoly.zero()) == "0"
    assert format_diffpoly(DiffPoly.one()) == "1"
    assert format_diffpoly(-L) == "-L"
    assert format_diffpoly(DiffPoly.const(-7)) == "-7"
    assert format_diffpoly(L + DiffPoly.const(1)) == "L + 1"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_diffpoly("3 dxL")
    assert e.value.pos == 3
    with pytest.raises(ParseError):
        parse_diffpoly("d-1L")
    with pytest.raises(ParseError):
        parse_diffpoly("2 L +")
    with pytest.raises(ParseError):
        parse_diffpoly("L ; L")
    with pytest.raises(ParseError):
        parse_diffpoly("")


@given(diffpoly_st(8, max_terms=4))
def test_diffpoly_round_trip(f):
    assert parse_diffpoly(format_diffpoly(f)) == f


def test_lambdapoly_text_known_values():
    br = bracket_master(L, L, AlgebraCtx(1))
    assert format_lambdapoly(br) == "(d1L) + (2 L)*lam + (1)*lam^3"
    assert parse_lambdapoly("(d1L) + (2 L)*lam + (1)*lam^3") == br
    assert format_lambdapoly(LambdaPoly.zero()) == "0"
    assert parse_lambdapoly("0").is_zero()
    assert parse_lambdapoly("(2 L)*lam") == LambdaPoly({1: 2 * L})


@given(st.dictionaries(st.integers(0, 6), diffpoly_st(5), max_size=4))
def test_lambdapoly_round_trip(coeffs):
    P = LambdaPoly(coeffs)
    assert parse_lambdapoly(format_lambdapoly(P)) == P


def test_partition_text():
    assert parse_partition("[5,2,1]") == Partition((5, 2, 1))
    assert parse_partition("[]") == Partition()
    assert format_partition(Partition((5, 2, 1))) == "[5,2,1]"
    with pytest.raises(ParseError):
        parse_partition("[5,2")
    with pytest.raises(ParseError):
        parse_partition("[-1]")
    with pytest.raises(ParseError):
        parse_partition("[2,1] junk")


def test_k0sigma_text():
    e = 2 * K0SigmaElem.basis((3, 1)) - K0SigmaElem.basis((2, 2))
    assert parse_k0sigma("2*[3,1] - [2,2]") == e
    assert parse_k0sigma("2 [3,1] - [2,2]") == e
    assert format_k0sigma(e) == "2*[3,1] - [2,2]"
    assert parse_k0sigma("0").is_zero()
    assert format_k0sigma(K0SigmaElem.zero()) == "0"
    assert parse_k0sigma("[]") == K0SigmaElem.unit()


@given(st.dictionaries(partition_st(8), st.integers(-9, 9), max_size=4))
def test_k0sigma_round_trip(terms):
    e = K0SigmaElem(terms)
    assert parse_k0sigma(format_k0sigma(e)) == e


def test_kn_text():
    kind, e = parse_kn("3*[N2] - [N0]")
    assert kind == "N"
    assert e == 3 * K0NElem.basis(2) - K0NElem.basis(0)
    assert format_kn(e) == "3*[N2] - [N0]"
    kind, e = parse_kn("[L4]")
    assert kind == "L"
    assert e == G0NElem.basis(4)
    kind, e = parse_kn("0")
    assert e.is_zero()
    with pytest.raises(ParseError):
        parse_kn("[N1] + [L2]")
    with pytest.raises(ParseError):
        parse_kn("[X2]")


@given(st.dictionaries(st.integers(0, 12), st.integers(-9, 9), max_size=4))
def test_kn_round_trip(terms):
    e = K0NElem(terms)
    kind, back = parse_kn(format_kn(e))
    assert back == e
    s = G0NElem(terms)
    kind, back = parse_kn(format_kn(s))
    assert (back == s) or (s.is_zero() and back.is_zero())


def test_xpoly_text():
    p = XPoly({2: 1, 0: 1})
    assert format_xpoly(p) == "x^2 + 1"
    assert parse_xpoly("x^2 + 1") == p
    assert format_xpoly(XPoly({1: 2})) == "2 x"
    assert parse_xpoly("2 x") == XPoly({1: 2})
    assert parse_xpoly("0").is_zero()
    assert parse_xpoly("-x^3 + 4") == XPoly({3: -1, 0: 4})


@given(st.dictionaries(st.integers(0, 9), st.integers(-9, 9), max_size=4))
def test_xpoly_round_trip(terms):
    p = XPoly(terms)
    assert parse_xpoly(format_xpoly(p)) == p


def test_weyl_text():
    w = WeylElem.monomial(6, 2) + 3 * WeylElem.monomial(5, 1)
    assert format_weyl(w) == "x^6 D^2 + 3 x^5 D"
    assert parse_weyl("x^6 D^2 + 3 x^5 D") == w
    assert format_weyl(WeylElem.one()) == "1"
    assert parse_weyl("x D + 1") == WeylElem.monomial(1, 1) + WeylElem.one()
    assert parse_weyl("0").is_zero()


@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       st.integers(-9, 9), max_size=4))
def test_weyl_round_trip(terms):
    w = WeylElem(terms)
    assert parse_weyl(format_weyl(w)) == w


def test_k0lambda_text():
    coeffs = {0: K0SigmaElem.basis((2,)), 1: 2 * K0SigmaElem.basis((1,)),
              3: K0SigmaElem.unit()}
    text = format_k0lambda(coeffs)
    assert text == "([2]) + (2*[1])*lam + ([])*lam^3"
    back = parse_k0lambda(text)
    assert back == coeffs
    assert format_k0lambda({}) == "0"
    assert parse_k0lambda("0") == {}
    assert parse_k0lambda("(0)") == {}
    assert parse_k0lambda("([1]) + (0)*lam^2") == {0: K0SigmaElem.basis((1,))}


@given(st.dictionaries(st.integers(0, 6),
                       st.dictionaries(partition_st(6), st.integers(-9, 9), max_size=3)
                       .map(K0SigmaElem), max_size=4))
def test_k0lambda_round_trip(coeffs):
    assert parse_k0lambda(format_k0lambda(coeffs)) == {k: v for k, v in coeffs.items() if v}


# (parser, text, character position of the first offending token)
PARSE_ERRORS = [
    (parse_diffpoly, "3 dxL", 3), (parse_diffpoly, "d-1L", 1), (parse_diffpoly, "2 L +", 5),
    (parse_diffpoly, "L ; L", 2), (parse_diffpoly, "", 0), (parse_diffpoly, "d3", 2),
    (parse_diffpoly, "L^x", 2), (parse_diffpoly, "L*2", 1),
    (parse_lambdapoly, "(L", 2), (parse_lambdapoly, "L", 0), (parse_lambdapoly, "(L)*lum", 4),
    (parse_lambdapoly, "(L) + ", 6), (parse_lambdapoly, "(L)*lam^", 8),
    (parse_lambdapoly, "(L ; L)", 3), (parse_lambdapoly, "0 + (L)", 0),
    (parse_lambdapoly, "2 (L)", 0),
    (parse_partition, "[5,2", 4), (parse_partition, "[-1]", 3), (parse_partition, "[2,1] junk", 6),
    (parse_partition, "[2,]", 3), (parse_partition, "", 0),
    (parse_k0sigma, "[3,1] +", 7), (parse_k0sigma, "2*[3,1] - x", 10), (parse_k0sigma, "-", 1),
    (parse_k0sigma, "0 + [1]", 2), (parse_k0sigma, "[1] [2]", 4), (parse_k0sigma, "2*", 2),
    (parse_k0sigma, "[1,-2]", 5),
    (parse_kn, "[N1] + [L2]", 8), (parse_kn, "[X2]", 1), (parse_kn, "[N]", 2), (parse_kn, "[N2", 3),
    (parse_kn, "N2", 0), (parse_kn, "3*[N2] -", 8), (parse_kn, "2*", 2),
    (parse_xpoly, "x^", 2), (parse_xpoly, "y", 0), (parse_xpoly, "x + ", 4),
    (parse_xpoly, "x^2 x", 4), (parse_xpoly, "3 x D", 4),
    (parse_weyl, "D x", 2), (parse_weyl, "x^2 D^", 6), (parse_weyl, "x D +", 5),
    (parse_weyl, "z", 0), (parse_weyl, "x*D", 1),
    (parse_k0lambda, "([1]", 4), (parse_k0lambda, "([1])*lam^", 10), (parse_k0lambda, "(L)", 1),
    (parse_k0lambda, "([1]) + 0", 8), (parse_k0lambda, "(0", 2), (parse_k0lambda, "([2]) ([1])", 6),
    (parse_k0lambda, "(2*)", 3),
    # A '*' must be followed by a key, not by the end, a sign or ')'.
    (parse_diffpoly, "2*", 2), (parse_diffpoly, "2 * + L", 4), (parse_lambdapoly, "(2*)", 3),
    (parse_xpoly, "2*", 2), (parse_weyl, "2*", 2),
]


@pytest.mark.parametrize("parse, text, pos", PARSE_ERRORS)
def test_parse_errors_report_the_offending_position(parse, text, pos):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.pos == pos
    assert "at position %d" % pos in str(e.value)
