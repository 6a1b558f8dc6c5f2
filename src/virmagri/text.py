"""Text forms for every value the engine prints, and their parsers.

Grammar summary:

  differential polynomials   3 d1L^2 L - 2 d3L   |  1  |  0
  lambda polynomials         (d1L) + (2 L)*lam + (-2)*lam^3  |  0
  partitions                 [5,2,1]  |  []
  class combinations         2*[3,1] - [2,2]  |  0
  nil-Coxeter classes        3*[N2] - [N0]  |  [L4]  |  0
  x polynomials              x^2 + 1  |  2 x  |  0
  Weyl elements              x^6 D^2 + 3 x^5 D + 2  |  0

Formatters emit canonical order (monomial factors in weakly decreasing
derivative order, lambda powers ascending, everything else by degree);
parsers accept any term order and report the character position of the
first offending token.
"""

from __future__ import annotations

import sys

from .brackets import LambdaPoly
from .diffpoly import DiffPoly, mono
from .errors import ParseError
from .k0sigma import K0SigmaElem
from .nilcoxeter import G0NElem, K0NElem, WeylElem, XPoly
from .partitions import Partition


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


def _take_exponent(s: _Scanner, default: int = 1) -> int:
    if s.take("^"):
        e = s.take_int()
        if e is None:
            s.error("expected an integer exponent after '^'")
        return e
    return default


# ---------------------------------------------------------------- diffpoly

def _parse_diffpoly_term(s: _Scanner):
    coeff = s.take_int()
    if coeff is not None:
        s.take("*")
    orders: list[int] = []
    seen_factor = False
    while True:
        c = s.peek()
        if c == "L":
            s.pos += 1
            k = 0
        elif c == "d":
            s.pos += 1
            k = s.take_int()
            if k is None:
                s.error("expected a derivative order after 'd'")
            if not s.take("L"):
                s.error("expected 'L' after the derivative order")
        else:
            break
        seen_factor = True
        orders.extend([k] * _take_exponent(s))
    if coeff is None and not seen_factor:
        s.error("expected a coefficient or a generator")
    return mono(orders), (1 if coeff is None else coeff)


def _parse_diffpoly_body(s: _Scanner, stops: str = "") -> DiffPoly:
    terms: dict = {}
    sign = _take_sign(s, required=False)
    while True:
        m, c = _parse_diffpoly_term(s)
        terms[m] = terms.get(m, 0) + sign * c
        nxt = s.peek()
        if nxt in ("+", "-"):
            sign = _take_sign(s, required=True)
            continue
        if nxt == "" or nxt in stops:
            break
        s.error("unexpected token in polynomial")
    return DiffPoly(terms)


def parse_diffpoly(text: str) -> DiffPoly:
    s = _Scanner(text)
    out = _parse_diffpoly_body(s)
    s.expect_end()
    return out


def _format_mono(m) -> str:
    if not m:
        return "1"
    pieces = []
    i = 0
    while i < len(m):
        j = i
        while j < len(m) and m[j] == m[i]:
            j += 1
        base = "L" if m[i] == 0 else "d%dL" % m[i]
        e = j - i
        pieces.append(base if e == 1 else "%s^%d" % (base, e))
        i = j
    return " ".join(pieces)


def _join_signed(parts: list[tuple[int, str]]) -> str:
    # parts: (coefficient sign, body without sign)
    out = []
    for i, (c, body) in enumerate(parts):
        if i == 0:
            out.append("-" + body if c < 0 else body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def format_diffpoly(f: DiffPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for m, c in f.sorted_terms():
        if not m:
            body = str(abs(c))
        elif abs(c) == 1:
            body = _format_mono(m)
        else:
            body = "%d %s" % (abs(c), _format_mono(m))
        parts.append((c, body))
    return _join_signed(parts)


# ------------------------------------------------------------- lambdapoly

def _parse_lambda_summands(s: _Scanner, parse_body):
    """Shared shape of lambda-polynomial text: parenthesized coefficients
    with optional *lam^k markers."""
    out: dict = {}
    if s.peek() == "0":
        mark = s.pos
        s.pos += 1
        if s.at_end():
            return out
        s.pos = mark
    sign = _take_sign(s, required=False)
    while True:
        s.expect("(")
        coeff = parse_body(s)
        s.expect(")")
        k = 0
        if s.take("*"):
            if not s.take_word("lam"):
                s.error("expected 'lam' after '*'")
            k = _take_exponent(s)
        prev = out.get(k)
        cur = coeff if sign > 0 else -coeff
        out[k] = cur if prev is None else prev + cur
        nxt = s.peek()
        if nxt in ("+", "-"):
            sign = _take_sign(s, required=True)
            continue
        break
    return out


def parse_lambdapoly(text: str) -> LambdaPoly:
    s = _Scanner(text)
    out = _parse_lambda_summands(s, lambda sc: _parse_diffpoly_body(sc, stops=")"))
    s.expect_end()
    return LambdaPoly(out)


def _format_lambda_terms(coeffs: dict, fmt) -> str:
    if not coeffs:
        return "0"
    bits = []
    for k in sorted(coeffs):
        head = "(%s)" % fmt(coeffs[k])
        if k == 0:
            bits.append(head)
        elif k == 1:
            bits.append(head + "*lam")
        else:
            bits.append("%s*lam^%d" % (head, k))
    return " + ".join(bits)


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

def parse_k0sigma(text: str) -> K0SigmaElem:
    s = _Scanner(text)
    if s.peek() == "0":
        mark = s.pos
        s.pos += 1
        if s.at_end():
            return K0SigmaElem.zero()
        s.pos = mark
    terms: dict = {}
    sign = _take_sign(s, required=False)
    while True:
        coeff = s.take_int()
        if coeff is not None:
            s.take("*")
        if s.peek() != "[":
            s.error("expected a partition literal")
        p = _parse_partition_literal(s)
        c = sign * (1 if coeff is None else coeff)
        terms[p] = terms.get(p, 0) + c
        nxt = s.peek()
        if nxt in ("+", "-"):
            sign = _take_sign(s, required=True)
            continue
        break
    s.expect_end()
    return K0SigmaElem(terms)


def format_k0sigma(e: K0SigmaElem) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for p, c in e.sorted_terms():
        lit = str(p)
        body = lit if abs(c) == 1 else "%d*%s" % (abs(c), lit)
        parts.append((c, body))
    return _join_signed(parts)


def parse_kn(text: str):
    """Parse a nil-Coxeter class combination.

    Returns ('N', K0NElem) or ('L', G0NElem) depending on the literals;
    the two kinds may not be mixed.  Bare '0' parses as the zero
    projective-class combination.
    """
    s = _Scanner(text)
    if s.peek() == "0":
        mark = s.pos
        s.pos += 1
        if s.at_end():
            return "N", K0NElem.zero()
        s.pos = mark
    kind = None
    terms: dict = {}
    sign = _take_sign(s, required=False)
    while True:
        coeff = s.take_int()
        if coeff is not None:
            s.take("*")
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
        c = sign * (1 if coeff is None else coeff)
        terms[n] = terms.get(n, 0) + c
        nxt = s.peek()
        if nxt in ("+", "-"):
            sign = _take_sign(s, required=True)
            continue
        break
    s.expect_end()
    cls = K0NElem if kind == "N" else G0NElem
    return kind, cls(terms)


def format_kn(e) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for n, c in e.sorted_terms():
        lit = "[%s%d]" % (e.label, n)
        body = lit if abs(c) == 1 else "%d*%s" % (abs(c), lit)
        parts.append((c, body))
    return _join_signed(parts)


# ------------------------------------------------------------- x / Weyl

def parse_xpoly(text: str) -> XPoly:
    s = _Scanner(text)
    terms: dict = {}
    sign = _take_sign(s, required=False)
    while True:
        coeff = s.take_int()
        if coeff is not None:
            s.take("*")
        n = 0
        if s.take("x"):
            n = _take_exponent(s)
        elif coeff is None:
            s.error("expected a coefficient or 'x'")
        c = sign * (1 if coeff is None else coeff)
        terms[n] = terms.get(n, 0) + c
        nxt = s.peek()
        if nxt in ("+", "-"):
            sign = _take_sign(s, required=True)
            continue
        break
    s.expect_end()
    return XPoly(terms)


def format_xpoly(p: XPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for n, c in p.sorted_terms():
        if n == 0:
            body = str(abs(c))
        else:
            var = "x" if n == 1 else "x^%d" % n
            body = var if abs(c) == 1 else "%d %s" % (abs(c), var)
        parts.append((c, body))
    return _join_signed(parts)


def parse_weyl(text: str) -> WeylElem:
    s = _Scanner(text)
    terms: dict = {}
    sign = _take_sign(s, required=False)
    while True:
        coeff = s.take_int()
        if coeff is not None:
            s.take("*")
        a = b = 0
        seen = False
        if s.take("x"):
            a = _take_exponent(s)
            seen = True
        if s.take("D"):
            b = _take_exponent(s)
            seen = True
        if coeff is None and not seen:
            s.error("expected a coefficient, 'x' or 'D'")
        c = sign * (1 if coeff is None else coeff)
        key = (a, b)
        terms[key] = terms.get(key, 0) + c
        nxt = s.peek()
        if nxt in ("+", "-"):
            sign = _take_sign(s, required=True)
            continue
        break
    s.expect_end()
    return WeylElem(terms)


def format_weyl(w: WeylElem) -> str:
    if w.is_zero():
        return "0"
    parts = []
    for (a, b), c in w.sorted_terms():
        bits = []
        if a:
            bits.append("x" if a == 1 else "x^%d" % a)
        if b:
            bits.append("D" if b == 1 else "D^%d" % b)
        if not bits:
            body = str(abs(c))
        else:
            var = " ".join(bits)
            body = var if abs(c) == 1 else "%d %s" % (abs(c), var)
        parts.append((c, body))
    return _join_signed(parts)


# --------------------------------------------------- transported bracket

def parse_k0lambda(text: str) -> dict[int, K0SigmaElem]:
    """Lambda-polynomial text with class-combination coefficients."""

    def body(sc: _Scanner) -> K0SigmaElem:
        terms: dict = {}
        sign = _take_sign(sc, required=False)
        while True:
            coeff = sc.take_int()
            if coeff is not None:
                sc.take("*")
            if sc.peek() != "[":
                sc.error("expected a partition literal")
            p = _parse_partition_literal(sc)
            c = sign * (1 if coeff is None else coeff)
            terms[p] = terms.get(p, 0) + c
            nxt = sc.peek()
            if nxt in ("+", "-"):
                sign = _take_sign(sc, required=True)
                continue
            break
        return K0SigmaElem(terms)

    s = _Scanner(text)
    out = _parse_lambda_summands(s, body)
    s.expect_end()
    return {k: v for k, v in out.items() if not v.is_zero()}


def format_k0lambda(coeffs: dict[int, K0SigmaElem]) -> str:
    return _format_lambda_terms(
        {k: v for k, v in coeffs.items() if not v.is_zero()}, format_k0sigma)
