"""Command-line front end.

One verb per invocation.  Operands are classified by syntactic shape:
[N..]/[L..] literals denote nil-Coxeter classes, any other bracketed
literal a partition-class combination, everything else a differential
polynomial.  Exit codes: 0 ok, 1 verification failure, 2 parse error,
3 domain violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .brackets import LambdaPoly, bracket_master, nth_product
from .diffpoly import AlgebraCtx, DiffPoly
from .errors import DomainError, ParseError
from .k0sigma import (
    K0SigmaElem,
    ind as ind_sigma,
    lambda_bracket_k0,
    nabla,
    phi_sigma,
    phi_sigma_inv,
    pj_ind,
    res as res_sigma,
)
from .nilcoxeter import WeylElem, XPoly, ind_g0n, ind_k0n, phi_n, psi1, psi2, res_g0n, res_k0n
from .partitions import standard_tableaux_count
from .text import (
    format_diffpoly,
    format_k0lambda,
    format_k0sigma,
    format_kn,
    format_lambdapoly,
    format_weyl,
    format_xpoly,
    parse_diffpoly,
    parse_k0sigma,
    parse_kn,
    parse_partition,
)
from .verify import Bounds, run_suite, suite_caps, suite_names

_KN_LITERAL = re.compile(r"\[\s*[NL]\d")


def _operand_kind(text: str) -> str:
    if _KN_LITERAL.search(text):
        return "kn"
    if "[" in text:
        return "k0"
    return "diffpoly"


# ------------------------------------------------------------- payloads

def _diffpoly_payload(f: DiffPoly) -> dict:
    return {"type": "diffpoly",
            "terms": [{"mono": list(m), "c": c} for m, c in f.sorted_terms()]}


def _lambdapoly_payload(P: LambdaPoly) -> dict:
    return {"type": "lambdapoly",
            "terms": [{"lam": k, "coeff": _diffpoly_payload(P.terms[k])["terms"]}
                      for k in sorted(P.terms)]}


def _k0_payload(e: K0SigmaElem) -> dict:
    return {"type": "k0sigma",
            "terms": [{"partition": list(p.parts), "c": c} for p, c in e.sorted_terms()]}


def _k0lambda_payload(coeffs: dict) -> dict:
    return {"type": "lambdapoly-k0",
            "terms": [{"lam": k, "coeff": _k0_payload(coeffs[k])["terms"]}
                      for k in sorted(coeffs)]}


def _kn_payload(e) -> dict:
    return {"type": "k0n" if e.label == "N" else "g0n",
            "terms": [{"n": n, "c": c} for n, c in e.sorted_terms()]}


def _xpoly_payload(p: XPoly) -> dict:
    return {"type": "xpoly",
            "terms": [{"pow": n, "c": c} for n, c in p.sorted_terms()]}


def _weyl_payload(w: WeylElem) -> dict:
    return {"type": "weyl",
            "terms": [{"x": a, "d": b, "c": c} for (a, b), c in w.sorted_terms()]}


# ---------------------------------------------------------------- verbs

# An operand of derivative order n puts the binomials C(n, k) into the
# bracket through (lambda+d)^n.  Up to this order each has at most 902
# digits, well inside Python's 4,300-digit str() limit.  The bracket of
# L with d3000L takes about 1.5 s on a 2-core x86 host, and the time
# grows faster than the square of the order: d7000L takes 12 s.
MAX_ORDER = 3000


def _bounded(f: DiffPoly) -> DiffPoly:
    top = max(f.orders_present(), default=0)
    if top > MAX_ORDER:
        raise DomainError("derivative orders are at most %d here, got d%dL" % (MAX_ORDER, top))
    return f


# Quantizing writes a factor dkL (the part k+1) as the Ind/Res word
# Ind^(k+3) Res, k+4 letters, and normal-orders the product letter by
# letter (classes) or factor by factor (polynomials), each step against
# every term built so far.  The time grows faster than the square of
# the letter count: on a 2-core x86 host L^400 (1,600 letters) takes
# 0.9 s, L^2000 30 s, d100L^400 54 s, and the class of 100 parts 1001
# (100,400 letters) 21 s.
QUANTIZE_MAX_LETTERS = 1600


def _quantizable(f: DiffPoly) -> DiffPoly:
    letters = sum(k + 4 for m in f.terms for k in m)
    if letters > QUANTIZE_MAX_LETTERS:
        raise DomainError("quantize takes at most %d Ind/Res letters (dkL counts k+4), got %d"
                          % (QUANTIZE_MAX_LETTERS, letters))
    return f


def _run_bracket(args, ctx):
    if _operand_kind(args.a) == "k0" and _operand_kind(args.b) == "k0":
        a, b = parse_k0sigma(args.a), parse_k0sigma(args.b)
        for e in (a, b):
            _bounded(phi_sigma(e))
        coeffs = lambda_bracket_k0(a, b, ctx)
        return format_k0lambda(coeffs), _k0lambda_payload(coeffs)
    br = bracket_master(_bounded(parse_diffpoly(args.a)), _bounded(parse_diffpoly(args.b)), ctx)
    return format_lambdapoly(br), _lambdapoly_payload(br)


def _run_nprod(args, ctx):
    out = nth_product(_bounded(parse_diffpoly(args.a)), _bounded(parse_diffpoly(args.b)),
                      args.n, ctx)
    return format_diffpoly(out), _diffpoly_payload(out)


def _run_mul(args, ctx):
    kind = _operand_kind(args.a)
    if kind != _operand_kind(args.b):
        raise DomainError("cannot multiply operands of different kinds")
    if kind == "k0":
        out = parse_k0sigma(args.a) * parse_k0sigma(args.b)
        return format_k0sigma(out), _k0_payload(out)
    if kind == "kn":
        ka, ea = parse_kn(args.a)
        kb, eb = parse_kn(args.b)
        if ka != kb:
            raise DomainError("cannot multiply [N..] and [L..] classes")
        out = ea * eb
        return format_kn(out), _kn_payload(out)
    out = parse_diffpoly(args.a) * parse_diffpoly(args.b)
    return format_diffpoly(out), _diffpoly_payload(out)


def _run_der(args, ctx):
    out = parse_diffpoly(args.a).derive()
    return format_diffpoly(out), _diffpoly_payload(out)


def _run_pjind(args, ctx):
    out = pj_ind(parse_k0sigma(args.e), args.j)
    return format_k0sigma(out), _k0_payload(out)


def _run_nabla(args, ctx):
    out = nabla(parse_k0sigma(args.e))
    return format_k0sigma(out), _k0_payload(out)


def _run_ind(args, ctx):
    if _operand_kind(args.e) == "kn":
        kind, e = parse_kn(args.e)
        out = ind_k0n(e) if kind == "N" else ind_g0n(e)
        return format_kn(out), _kn_payload(out)
    out = ind_sigma(parse_k0sigma(args.e))
    return format_k0sigma(out), _k0_payload(out)


def _run_res(args, ctx):
    if _operand_kind(args.e) == "kn":
        kind, e = parse_kn(args.e)
        out = res_k0n(e) if kind == "N" else res_g0n(e)
        return format_kn(out), _kn_payload(out)
    out = res_sigma(parse_k0sigma(args.e))
    return format_k0sigma(out), _k0_payload(out)


def _run_zhu(args, ctx):
    from .zhu import zhu_h

    out = zhu_h(parse_diffpoly(args.a))
    return format_xpoly(out), _xpoly_payload(out)


def _run_qmap(args, ctx):
    from .zhu import q_map

    out = q_map(parse_diffpoly(args.a))
    return format_xpoly(out), _xpoly_payload(out)


def _run_quantize(args, ctx):
    if _operand_kind(args.a) == "k0":
        e = parse_k0sigma(args.a)
        _quantizable(phi_sigma(e))
        out = psi1(e, ctx).to_weyl()
    else:
        out = psi2(_quantizable(parse_diffpoly(args.a)), ctx)
    return format_weyl(out), _weyl_payload(out)


def _run_phi(args, ctx):
    kind = _operand_kind(args.a)
    if kind == "kn":
        knd, e = parse_kn(args.a)
        if knd != "N":
            raise DomainError("the polynomial realization is defined on [N..] classes")
        out = phi_n(e)
        return format_xpoly(out), _xpoly_payload(out)
    if kind == "k0":
        out = phi_sigma(parse_k0sigma(args.a))
        return format_diffpoly(out), _diffpoly_payload(out)
    out = phi_sigma_inv(parse_diffpoly(args.a))
    return format_k0sigma(out), _k0_payload(out)


# A count squared is at most n! (the squares sum to n!), so up to this many
# boxes it has at most 3,706 digits, within Python's 4,300-digit str() limit.
SYT_MAX_BOXES = 2500


def _run_count_syt(args, ctx):
    p = parse_partition(args.p)
    if p.size > SYT_MAX_BOXES:
        raise DomainError("count-syt takes at most %d boxes, got %d" % (SYT_MAX_BOXES, p.size))
    n = standard_tableaux_count(p)
    return str(n), {"type": "int", "value": n}


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
    rep = run_suite(args.suite, bounds, ctx)
    lines = rep.summary_lines()
    for r in rep.failures()[:20]:
        lines.append("  counterexample [%s] %s: lhs=%s rhs=%s" % (r.identity, r.case, r.lhs, r.rhs))
    payload = {"type": "report"}
    payload.update(rep.to_jsonable())
    return "\n".join(lines), payload, (0 if rep.ok else 1)


_HANDLERS = {
    "bracket": _run_bracket,
    "nprod": _run_nprod,
    "mul": _run_mul,
    "der": _run_der,
    "pjind": _run_pjind,
    "nabla": _run_nabla,
    "ind": _run_ind,
    "res": _run_res,
    "zhu": _run_zhu,
    "qmap": _run_qmap,
    "quantize": _run_quantize,
    "phi": _run_phi,
    "count-syt": _run_count_syt,
    "verify": _run_verify,
}


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

    p = sub.add_parser("bracket", parents=[common],
                       help="lambda bracket of two operands "
                            "(derivative orders at most %d)" % MAX_ORDER)
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("nprod", parents=[common],
                       help="n-th product of two polynomials "
                            "(derivative orders at most %d)" % MAX_ORDER)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("n", type=int)

    p = sub.add_parser("mul", parents=[common], help="product of two operands")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("der", parents=[common], help="total derivative of a polynomial")
    p.add_argument("a")

    p = sub.add_parser("pjind", parents=[common], help="insert a row of j boxes")
    p.add_argument("e")
    p.add_argument("j", type=int)

    p = sub.add_parser("nabla", parents=[common], help="derivation on class combinations")
    p.add_argument("e")

    p = sub.add_parser("ind", parents=[common], help="induction on a class combination")
    p.add_argument("e")

    p = sub.add_parser("res", parents=[common], help="restriction on a class combination")
    p.add_argument("e")

    p = sub.add_parser("zhu", parents=[common], help="energy projection to the x polynomial ring")
    p.add_argument("a")

    p = sub.add_parser("qmap", parents=[common], help="quotient map to the x polynomial ring")
    p.add_argument("a")

    p = sub.add_parser("quantize", parents=[common],
                       help="normally ordered Weyl image (central charge 0 only; "
                            "at most %d Ind/Res letters, a factor dkL counting k+4)"
                            % QUANTIZE_MAX_LETTERS)
    p.add_argument("a")

    p = sub.add_parser("phi", parents=[common],
                       help="move an operand across the basis correspondences")
    p.add_argument("a")

    p = sub.add_parser("count-syt", parents=[common],
                       help="count standard fillings of a partition "
                            "(at most %d boxes)" % SYT_MAX_BOXES)
    p.add_argument("p")

    p = sub.add_parser("verify", parents=[common], help="run verification sweeps")
    all_caps = suite_caps("all")
    p.add_argument("--suite", default="all", choices=suite_names(),
                   metavar="SUITE", help="check name, group name, or 'all'")
    p.add_argument("--max-n", type=int, default=None,
                   help="override size sweeps (0 to the cap of each check run; "
                        "%d for all)" % all_caps["max_n"])
    p.add_argument("--max-j", type=int, default=None,
                   help="override row/order sweeps (0 to the cap of each check run; "
                        "%d for all)" % all_caps["max_j"])
    p.add_argument("--max-deg", type=int, default=None,
                   help="override degree sweeps (0 to the cap of each check run; "
                        "%d for all)" % all_caps["max_deg"])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    ctx = AlgebraCtx(args.charge)
    try:
        result = _HANDLERS[args.verb](args, ctx)
        text, payload, code = result if len(result) == 3 else (*result, 0)
        if args.format == "json":
            text = json.dumps({"verb": args.verb, "charge": args.charge, "result": payload})
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
    print(text)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
