"""Text forms for every value the engine prints, and their parsers.

Every form but the partition literal is a signed sum of terms
``[coeff[*]] key``; the forms differ only in their key:

  differential polynomials   3 d1L^2 L - 2 d3L | 1 | 0       factors L, dkL, each with ^e
  lambda polynomials         (d1L) + (2 L)*lam + (-2)*lam^3   (coefficient)*lam^k, no coeff
  partitions                 [5,2,1] | []
  class combinations         2*[3,1] - [2,2] | 0             a partition literal
  nil-Coxeter classes        3*[N2] - [N0] | [L4] | 0        [Nn] or [Ln], kinds not mixed
  x polynomials              x^2 + 1 | 2 x | 0               x^n
  Weyl elements              x^6 D^2 + 3 x^5 D + 2 | 0       x^a D^b

One loop (_parse_sum) reads every sum and one formatter (_format_sum)
prints it.  Where a key may be empty (polynomials, x, Weyl) a coefficient
without '*' is a constant term; a '*' must be followed by a key.  A lambda
coefficient is itself a differential-polynomial or class-combination sum
in parentheses.  A bare 0 is the zero value in every form, inside the
parentheses too.

Formatters emit canonical order (monomial factors in weakly decreasing
derivative order, lambda powers ascending, everything else by degree);
parsers accept any term order and report the character position of the
first offending token.
"""

from __future__ import annotations

import sys
from itertools import groupby

from .brackets import LambdaPoly
from .diffpoly import DiffPoly, mono
from .errors import DomainError, ParseError
from .k0sigma import K0SigmaElem
from .nilcoxeter import G0NElem, K0NElem, WeylElem, XPoly
from .partitions import Partition
from .sparse import acc

# A monomial is stored as a tuple with one entry per factor, so the ten
# characters "L^99999999" would ask for 10^8 entries.  The parser refuses a
# monomial with more factors than this (a DomainError, exit 3 in the CLI)
# before it builds the list.  The benchmark's operands have at most 12
# factors.  On a 2-core x86 host `der "L^10000"` and `bracket "L^10000" L`
# take 0.2 s; der of 10,000 factors over 1,000 distinct orders makes 1,000
# monomials of that size and takes 3 s.
MAX_FACTORS = 10_000


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.text, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            self.error("expected %r" % ch)

    def take_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            return None
        limit = sys.get_int_max_str_digits()  # 0 means no limit
        if limit and self.pos - start > limit:
            self.pos = start
            self.error("integer literal of more than %d digits" % limit)
        return int(self.text[start:self.pos])

    def take_word(self, word: str) -> bool:
        self.skip_ws()
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False

    def at_end(self) -> bool:
        return self.peek() == ""

    def expect_end(self) -> None:
        if not self.at_end():
            self.error("unexpected trailing input")


def _take_sign(s: _Scanner, required: bool):
    c = s.peek()
    if c == "+":
        s.pos += 1
        return 1
    if c == "-":
        s.pos += 1
        return -1
    return None if required else 1


def _take_exponent(s: _Scanner) -> int:
    if s.take("^"):
        e = s.take_int()
        if e is None:
            s.error("expected an integer exponent after '^'")
        return e
    return 1


def _take_coeff(s: _Scanner, starts: str, what: str) -> int:
    """Read an optional integer and an optional '*'; return the integer
    (1 if absent).  Unless the integer came without '*', a key -- named
    what, starting with a character of starts -- must follow."""
    c = s.take_int()
    if c is not None and not s.take("*"):
        return c
    ch = s.peek()
    if not ch or ch not in starts:
        s.error("expected %s after '*'" % what if c is not None
                else "expected a coefficient or %s" % what)
    return 1 if c is None else c


def _parse_sum(s: _Scanner, take_term, stops: str = "") -> dict:
    """Read a signed sum of terms; take_term(s) reads one term, sign
    excluded, and returns (key, coefficient).  A bare 0 followed by the end
    or a character of stops is the empty sum.  Stops before the first token
    that is not '+' or '-' after a term; cancelled keys are left in the
    returned dict for the element constructor to drop."""
    terms: dict = {}
    if s.peek() == "0":
        mark = s.pos
        s.pos += 1
        if s.at_end() or s.peek() in stops:
            return terms
        s.pos = mark
    sign = _take_sign(s, required=False)
    while sign is not None:
        key, c = take_term(s)
        acc(terms, key, c if sign > 0 else -c)
        sign = _take_sign(s, required=True)
    return terms


def _parse(text: str, take_term) -> dict:
    s = _Scanner(text)
    terms = _parse_sum(s, take_term)
    s.expect_end()
    return terms


def _power(var: str, n: int) -> str:
    return "" if n == 0 else var if n == 1 else "%s^%d" % (var, n)


def _format_sum(sorted_terms, key_text, sep: str) -> str:
    """Signed-sum text of (key, coefficient) pairs.  key_text(key) is ""
    for the unit key, whose term is its bare coefficient; sep goes between
    a coefficient other than +-1 and its key."""
    pieces = []
    for key, c in sorted_terms:
        text = key_text(key)
        pieces.append(" - " if c < 0 else " + ")
        if not text:
            pieces.append(str(abs(c)))
        elif abs(c) == 1:
            pieces.append(text)
        else:
            pieces.append("%d%s%s" % (abs(c), sep, text))
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


# ---------------------------------------------------------------- diffpoly

def _diffpoly_term(s: _Scanner):
    c = _take_coeff(s, "Ld", "a generator")
    orders: list[int] = []
    while True:
        ch = s.peek()
        if ch == "L":
            s.pos += 1
            k = 0
        elif ch == "d":
            s.pos += 1
            k = s.take_int()
            if k is None:
                s.error("expected a derivative order after 'd'")
            if not s.take("L"):
                s.error("expected 'L' after the derivative order")
        else:
            return mono(orders), c
        e = _take_exponent(s)
        if len(orders) + e > MAX_FACTORS:
            raise DomainError("a monomial has at most %d factors here, got more at position %d"
                              % (MAX_FACTORS, s.pos))
        orders.extend([k] * e)


def parse_diffpoly(text: str) -> DiffPoly:
    return DiffPoly(_parse(text, _diffpoly_term))


def _format_mono(m) -> str:
    return " ".join(_power("L" if k == 0 else "d%dL" % k, len(list(run)))
                    for k, run in groupby(m))


def format_diffpoly(f: DiffPoly) -> str:
    return _format_sum(f.sorted_terms(), _format_mono, " ")


# ------------------------------------------------------------- lambdapoly

def _lambda_term(take_term, cls):
    """Term reader for (coefficient)*lam^k, the coefficient a signed sum of
    take_term terms in parentheses, made a cls value."""

    def take(s: _Scanner):
        s.expect("(")
        coeff = cls(_parse_sum(s, take_term, stops=")"))
        s.expect(")")
        k = 0
        if s.take("*"):
            if not s.take_word("lam"):
                s.error("expected 'lam' after '*'")
            k = _take_exponent(s)
        return k, coeff

    return take


def parse_lambdapoly(text: str) -> LambdaPoly:
    return LambdaPoly(_parse(text, _lambda_term(_diffpoly_term, DiffPoly)))


def _format_lambda_terms(coeffs: dict, fmt) -> str:
    if not coeffs:
        return "0"
    return " + ".join("(%s)%s" % (fmt(coeffs[k]), "*" + _power("lam", k) if k else "")
                      for k in sorted(coeffs))


def format_lambdapoly(P: LambdaPoly) -> str:
    return _format_lambda_terms(P.terms, format_diffpoly)


# -------------------------------------------------------------- partition

def _parse_partition_literal(s: _Scanner) -> Partition:
    s.expect("[")
    parts = []
    if not s.take("]"):
        while True:
            sign = -1 if s.take("-") else 1
            v = s.take_int()
            if v is None:
                s.error("expected a part value")
            if sign < 0:
                s.error("partition parts must be positive")
            parts.append(v)
            if s.take(","):
                continue
            s.expect("]")
            break
    return Partition(parts)


def parse_partition(text: str) -> Partition:
    s = _Scanner(text)
    p = _parse_partition_literal(s)
    s.expect_end()
    return p


def format_partition(p: Partition) -> str:
    return str(p)


# -------------------------------------------------------- class elements

def _partition_term(s: _Scanner):
    c = _take_coeff(s, "[", "a partition literal")
    return _parse_partition_literal(s), c


def parse_k0sigma(text: str) -> K0SigmaElem:
    return K0SigmaElem(_parse(text, _partition_term))


def format_k0sigma(e: K0SigmaElem) -> str:
    return _format_sum(e.sorted_terms(), str, "*")


def parse_kn(text: str):
    """Parse a nil-Coxeter class combination.

    Returns ('N', K0NElem) or ('L', G0NElem) depending on the literals;
    the two kinds may not be mixed.  Bare '0' parses as the zero
    projective-class combination.
    """
    kind = None

    def take_term(s: _Scanner):
        nonlocal kind
        c = _take_coeff(s, "[", "a class literal")
        s.expect("[")
        ch = s.peek()
        if ch not in ("N", "L"):
            s.error("expected a class letter 'N' or 'L'")
        if kind is None:
            kind = ch
        elif kind != ch:
            s.error("cannot mix [N..] and [L..] classes")
        s.pos += 1
        n = s.take_int()
        if n is None:
            s.error("expected a class index")
        s.expect("]")
        return n, c

    terms = _parse(text, take_term)
    kind = kind or "N"
    return kind, (K0NElem if kind == "N" else G0NElem)(terms)


def format_kn(e) -> str:
    return _format_sum(e.sorted_terms(), lambda n: "[%s%d]" % (e.label, n), "*")


# ------------------------------------------------------------- x / Weyl

def _xpoly_term(s: _Scanner):
    c = _take_coeff(s, "x", "'x'")
    return (_take_exponent(s) if s.take("x") else 0), c


def parse_xpoly(text: str) -> XPoly:
    return XPoly(_parse(text, _xpoly_term))


def format_xpoly(p: XPoly) -> str:
    return _format_sum(p.sorted_terms(), lambda n: _power("x", n), " ")


def _weyl_term(s: _Scanner):
    c = _take_coeff(s, "xD", "'x' or 'D'")
    a = _take_exponent(s) if s.take("x") else 0
    b = _take_exponent(s) if s.take("D") else 0
    return (a, b), c


def parse_weyl(text: str) -> WeylElem:
    return WeylElem(_parse(text, _weyl_term))


def _format_weyl_key(key) -> str:
    return " ".join(filter(None, (_power("x", key[0]), _power("D", key[1]))))


def format_weyl(w: WeylElem) -> str:
    return _format_sum(w.sorted_terms(), _format_weyl_key, " ")


# --------------------------------------------------- transported bracket

def parse_k0lambda(text: str) -> dict[int, K0SigmaElem]:
    """Lambda-polynomial text with class-combination coefficients."""
    terms = _parse(text, _lambda_term(_partition_term, K0SigmaElem))
    return {k: v for k, v in terms.items() if v}


def format_k0lambda(coeffs: dict[int, K0SigmaElem]) -> str:
    return _format_lambda_terms({k: v for k, v in coeffs.items() if v}, format_k0sigma)
