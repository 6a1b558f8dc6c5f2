"""Command-line front end.

One verb per invocation.  Operands are classified by syntactic shape:
[N..]/[L..] literals denote nil-Coxeter classes, any other bracketed
literal a partition-class combination, everything else a differential
polynomial.  Exit codes: 0 ok, 1 verification failure, 2 parse error,
3 domain violation.

The _VERBS table gives each verb its handler, positionals and help;
build_parser reads it.  A handler returns the value it computed, and
_render gives its output in the one format asked for, and the exit code:
text.format_value or text.to_jsonable for an algebra value or an int, the
summary and the counterexamples or the JSON records for a CheckReport.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .brackets import bracket_master, f_side_adds, nth_product
from .diffpoly import AlgebraCtx, DiffPoly
from .errors import DomainError, ParseError
from .k0sigma import (
    ind as ind_sigma,
    lambda_bracket_k0,
    nabla,
    phi_sigma,
    phi_sigma_inv,
    pj_ind,
    res as res_sigma,
)
from .nilcoxeter import K0NElem, ind_g0n, ind_k0n, phi_n, psi2, res_g0n, res_k0n
from .partitions import standard_tableaux_count
from .report import CheckReport
from .text import (
    format_value,
    parse_diffpoly,
    parse_k0sigma,
    parse_kn,
    parse_partition,
    to_jsonable,
)
from .verify import Bounds, run_suite, suite_caps, suite_names
from .zhu import q_map, zhu_h

_KN_LITERAL = re.compile(r"\[\s*[NL]\d")


def _operand_kind(text: str) -> str:
    if _KN_LITERAL.search(text):
        return "kn"
    if "[" in text:
        return "k0"
    return "diffpoly"


# ---------------------------------------------------------------- verbs

# An operand of derivative order n puts the binomials C(n, k) into the
# bracket through (lambda+d)^n.  Up to this order each has at most 902
# digits, well inside Python's 4,300-digit str() limit.  Every other verb
# that reads a polynomial operand takes the same limit, so no verb accepts
# an order the bracket would refuse.
MAX_ORDER = 3000


def _bounded(f: DiffPoly) -> DiffPoly:
    top = max(f.orders_present(), default=0)
    if top > MAX_ORDER:
        raise DomainError("derivative orders are at most %d here, got d%dL" % (MAX_ORDER, top))
    return f


# brackets.f_side_adds counts, before any arithmetic, the adds that build
# bracket_master's f side, the powers (lambda+d)^t Phi, in the order the
# bracket takes: about 1.5 k^2 for d<k>L^2 against d<k>L.  On a 2-core
# x86_64 host a spawned `bracket d450L^2 d450L` (305,778 adds) took 4.6 s
# and printed 80 MB, and d500L (377,253 adds) 6.4 s; d3000L (13.5 million)
# ran out of memory.  The count sees no growth in the terms of a
# derivative: d150L^3 against d150L makes 34,428 adds and takes 22 s.
BRACKET_MAX_ADDS = 320_000


def _bracketable(f: DiffPoly, g: DiffPoly, ctx) -> tuple:
    """(f, g), refused past MAX_ORDER or BRACKET_MAX_ADDS before any arithmetic."""
    f, g = _bounded(f), _bounded(g)
    adds = f_side_adds(f, g, ctx)
    if adds > BRACKET_MAX_ADDS:
        raise DomainError("the bracket's f side takes at most %d adds here, got %d"
                          % (BRACKET_MAX_ADDS, adds))
    return f, g


# Quantizing writes a factor dkL (the part k+1) as the Ind/Res word
# Ind^(k+3) Res, k+4 letters, and normal-orders the product factor by
# factor, each step against every term built so far; a class is quantized
# as its polynomial phi_sigma(e).  The time grows faster than the square
# of the letter count: on a 2-core x86 host a spawned `quantize L^400`
# (1,600 letters) takes 0.37 s, and in-process L^2000 takes 23 s and
# d100L^400 18 s.
QUANTIZE_MAX_LETTERS = 1600


def _quantizable(f: DiffPoly) -> DiffPoly:
    letters = sum(k + 4 for m in f.terms for k in m)
    if letters > QUANTIZE_MAX_LETTERS:
        raise DomainError("quantize takes at most %d Ind/Res letters (dkL counts k+4), got %d"
                          % (QUANTIZE_MAX_LETTERS, letters))
    return f


# A count squared is at most n! (the squares sum to n!), so up to this many
# boxes it has at most 3,706 digits, within Python's 4,300-digit str() limit.
SYT_MAX_BOXES = 2500


# [L_n][L_m] = C(n+m, n) [L_(n+m)], and C(n+m, n) grows with n and m, so
# the top indices of two combinations give their product's largest
# constant, on a class no other pair reaches.  C(N, k) >= C(N, K) >=
# (N/K)^K for K <= k = min(n, m) <= N/2; K = min(k, 4 * limit) keeps the
# float finite and, as N/K >= 2, still clears the limit when k does.  The
# rule acts before any arithmetic: [L1000000] squared took 37 s to reach
# exit 3 from str().  With the limit off (0) it holds at Python's default
# limit, as the work model prices a pair by its index, not its digits.
def _printable_g0n_product(ea, eb) -> None:
    if not (ea and eb):
        return
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    n, m = max(ea.terms), max(eb.terms)
    k = min(n, m, 4 * limit)
    if k and k * (math.log10(n + m) - math.log10(k)) > limit + 1:
        raise DomainError("the result has an integer of more than %d digits" % limit)


# mul takes every pair of terms, one from each operand, so the work counts
# 30 for each pair plus the size of both its keys: the factors of a
# monomial or the parts of a partition class, which the product sorts, 0
# for [N..] and n // 8 for [L_n], whose C(n+m, n) has about (n+m)/3.3
# digits when n = m (a pair costs about 3 us and a unit of size 0.1 us).
# On a 2-core x86 host, as one CLI call, the largest squares inside the
# limit took 4.0 s for d1L + ... + d960L, 5.1 s for [1] + ... + [960],
# 2.9 s for L^99 d1L + ... + L^99 d360L and 3.6-4.3 s for [L1] + ... +
# [L552].  [N1] + ... + [N1000] squared took 0.24 s; [N1] + ... + [N6000]
# took 6.3 s.
MUL_MAX_WORK = 3 * 10**7


def _bounded_product(a, b, size=len):
    """a * b, refused before any arithmetic past MUL_MAX_WORK; size(key)
    is a key's work in each of its pairs beyond the pair's own 30."""
    na, nb = len(a.terms), len(b.terms)
    work = 30 * na * nb + nb * sum(map(size, a.terms)) + na * sum(map(size, b.terms))
    if work > MUL_MAX_WORK:
        raise DomainError("the product takes more than %d units of work (%d term pairs)"
                          % (MUL_MAX_WORK, na * nb))
    return a * b


def _run_bracket(args, ctx):
    if _operand_kind(args.a) == "k0" and _operand_kind(args.b) == "k0":
        a, b = parse_k0sigma(args.a), parse_k0sigma(args.b)
        _bracketable(phi_sigma(a), phi_sigma(b), ctx)
        return lambda_bracket_k0(a, b, ctx)
    return bracket_master(*_bracketable(parse_diffpoly(args.a), parse_diffpoly(args.b), ctx), ctx)


def _run_nprod(args, ctx):
    return nth_product(*_bracketable(parse_diffpoly(args.a), parse_diffpoly(args.b), ctx),
                       args.n, ctx)


def _run_mul(args, ctx):
    kind = _operand_kind(args.a)
    if kind != _operand_kind(args.b):
        raise DomainError("cannot multiply operands of different kinds")
    if kind == "k0":
        return _bounded_product(parse_k0sigma(args.a), parse_k0sigma(args.b))
    if kind == "kn":
        ea, eb = parse_kn(args.a), parse_kn(args.b)
        if type(ea) is not type(eb):
            raise DomainError("cannot multiply [N..] and [L..] classes")
        if type(ea) is K0NElem:
            return _bounded_product(ea, eb, lambda n: 0)
        _printable_g0n_product(ea, eb)
        return _bounded_product(ea, eb, lambda n: n // 8)
    return _bounded_product(_bounded(parse_diffpoly(args.a)), _bounded(parse_diffpoly(args.b)))


def _branching(on_k0n, on_g0n, on_sigma):
    """The handler of ind or res, on [N..], [L..] or partition classes."""

    def run(args, ctx):
        if _operand_kind(args.e) == "kn":
            e = parse_kn(args.e)
            return (on_k0n if type(e) is K0NElem else on_g0n)(e)
        return on_sigma(parse_k0sigma(args.e))

    return run


def _run_quantize(args, ctx):
    # psi2(phi_sigma(e)) is psi1(e).to_weyl(), which the quantization-diagram
    # sweep checks; psi2 multiplies factors where to_weyl multiplies letters.
    if _operand_kind(args.a) == "k0":
        return psi2(_quantizable(phi_sigma(parse_k0sigma(args.a))), ctx)
    return psi2(_quantizable(parse_diffpoly(args.a)), ctx)


def _run_phi(args, ctx):
    kind = _operand_kind(args.a)
    if kind == "kn":
        e = parse_kn(args.a)
        if type(e) is not K0NElem:
            raise DomainError("the polynomial realization is defined on [N..] classes")
        return phi_n(e)
    if kind == "k0":
        return phi_sigma(parse_k0sigma(args.a))
    return phi_sigma_inv(_bounded(parse_diffpoly(args.a)))


def _run_count_syt(args, ctx):
    p = parse_partition(args.p)
    if p.size > SYT_MAX_BOXES:
        raise DomainError("count-syt takes at most %d boxes, got %d" % (SYT_MAX_BOXES, p.size))
    return standard_tableaux_count(p)


def _run_verify(args, ctx):
    # Each check carries its own caps (verify.CAPS); a suite takes a size
    # only if every check it runs accepts it, checked before any sweep.
    caps = suite_caps(args.suite)
    for flag in ("max_n", "max_j", "max_deg"):
        value, cap = getattr(args, flag), caps.get(flag)
        if value is not None and (value < 0 or cap is not None and value > cap):
            raise DomainError("--%s takes %s for --suite %s, got %d" % (
                flag.replace("_", "-"), "0 or more" if cap is None else "0 to %d" % cap,
                args.suite, value))
    bounds = Bounds(max_n=args.max_n, max_j=args.max_j, max_deg=args.max_deg)
    return run_suite(args.suite, bounds, ctx)


# verb -> (handler, positionals, help), in the order --help lists them.  The
# positionals n and j are integers, the others operand texts.
_VERBS = {
    "bracket": (_run_bracket, "a b",
                "lambda bracket of two operands (derivative orders at most %d)" % MAX_ORDER),
    "nprod": (_run_nprod, "a b n",
              "n-th product of two polynomials (derivative orders at most %d)" % MAX_ORDER),
    "mul": (_run_mul, "a b", "product of two operands"),
    "der": (lambda args, ctx: _bounded(parse_diffpoly(args.a)).derive(), "a",
            "total derivative of a polynomial"),
    "pjind": (lambda args, ctx: pj_ind(parse_k0sigma(args.e), args.j), "e j",
              "insert a row of j boxes"),
    "nabla": (lambda args, ctx: nabla(parse_k0sigma(args.e)), "e",
              "derivation on class combinations"),
    "ind": (_branching(ind_k0n, ind_g0n, ind_sigma), "e", "induction on a class combination"),
    "res": (_branching(res_k0n, res_g0n, res_sigma), "e", "restriction on a class combination"),
    "zhu": (lambda args, ctx: zhu_h(_bounded(parse_diffpoly(args.a))), "a",
            "energy projection to the x polynomial ring"),
    "qmap": (lambda args, ctx: q_map(_bounded(parse_diffpoly(args.a))), "a",
             "quotient map to the x polynomial ring"),
    "quantize": (_run_quantize, "a",
                 "normally ordered Weyl image (central charge 0 only; at most %d Ind/Res "
                 "letters, a factor dkL counting k+4)" % QUANTIZE_MAX_LETTERS),
    "phi": (_run_phi, "a", "move an operand across the basis correspondences"),
    "count-syt": (_run_count_syt, "p",
                  "count standard fillings of a partition (at most %d boxes)" % SYT_MAX_BOXES),
    "verify": (_run_verify, "", "run verification sweeps"),
}


def _render(value, args):
    """The output of a handler's value in the format asked for, and the
    exit code; the other format is never built."""
    report = isinstance(value, CheckReport)
    code = int(not value.ok) if report else 0
    if args.format == "json":
        import json  # here, not at the top: a text call is about 2 ms faster without it

        payload = {"type": "report", **value.to_jsonable()} if report else to_jsonable(value)
        return json.dumps({"verb": args.verb, "charge": args.charge, "result": payload}), code
    if not report:
        return format_value(value), code
    lines = value.summary_lines() + [
        "  counterexample [%s] %s: lhs=%s rhs=%s" % (r.identity, r.case, r.lhs, r.rhs)
        for r in value.failures()[:20]]
    return "\n".join(lines), code


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--charge", type=int, default=0,
                        help="integer central charge (default 0)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")

    parser = argparse.ArgumentParser(
        prog="virmagri",
        description="Exact integer calculus for the rank-one energy-momentum "
                    "bracket, partition-class combinatorics, and their "
                    "finitizations.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, positionals, help) in _VERBS.items():
        p = sub.add_parser(name, parents=[common], help=help)
        for arg in positionals.split():
            p.add_argument(arg, type=int if arg in ("n", "j") else None)

    p, all_caps = sub.choices["verify"], suite_caps("all")
    p.add_argument("--suite", default="all", choices=suite_names(),
                   metavar="SUITE", help="check name, group name, or 'all'")
    for flag, sweeps in (("n", "size"), ("j", "row/order"), ("deg", "degree")):
        p.add_argument("--max-" + flag, type=int, default=None,
                       help="override %s sweeps (0 to the cap of each check run; %d for all)"
                            % (sweeps, all_caps["max_" + flag]))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    ctx = AlgebraCtx(args.charge)
    try:
        text, code = _render(_VERBS[args.verb][0](args, ctx), args)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except DomainError as e:
        print("domain error: %s" % e, file=sys.stderr)
        return 3
    except ValueError as e:
        # str() of an int past sys.get_int_max_str_digits() raises a bare ValueError.
        if "integer string conversion" not in str(e):
            raise
        print("domain error: the result has an integer of more than %d digits"
              % sys.get_int_max_str_digits(), file=sys.stderr)
        return 3
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early, as `| head` does.  Point stdout at
        # devnull so the flush at exit writes nowhere instead of failing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
