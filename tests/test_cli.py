import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

from helpers import syt_by_hooks
from virmagri import AlgebraCtx, DiffPoly, IndResExpr, K0NElem, WeylElem, XPoly
from virmagri.brackets import f_side_adds
from virmagri.cli import BRACKET_MAX_ADDS, MAX_ORDER, QUANTIZE_MAX_LETTERS, SYT_MAX_BOXES, main
from virmagri.report import CheckReport
from virmagri.text import (
    MAX_FACTORS,
    parse_diffpoly,
    parse_k0lambda,
    parse_k0sigma,
    parse_kn,
    parse_lambdapoly,
    parse_weyl,
    parse_xpoly,
)
from virmagri.verify import suite_caps


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_bracket_generator(capsys):
    code, out, _ = run(capsys, "bracket", "L", "L", "--charge", "1")
    assert code == 0
    assert out == "(d1L) + (2 L)*lam + (1)*lam^3"
    code, out, _ = run(capsys, "bracket", "L", "L")
    assert out == "(d1L) + (2 L)*lam"
    code, out, _ = run(capsys, "bracket", "L", "L", "--charge", "-2")
    assert out == "(d1L) + (2 L)*lam + (-2)*lam^3"


def test_bracket_on_classes(capsys):
    code, out, _ = run(capsys, "bracket", "[1]", "[1]", "--charge", "1")
    assert code == 0
    assert out == "([2]) + (2*[1])*lam + ([])*lam^3"


def test_pjind(capsys):
    code, out, _ = run(capsys, "pjind", "[5,2,1]", "4")
    assert code == 0
    assert out == "[5,4,2,1]"


def test_nprod_negative_order_is_domain_error(capsys):
    code, out, err = run(capsys, "nprod", "L", "L", "-1")
    assert code == 3
    assert out == ""
    assert err.startswith("domain error:")


def test_count_syt_large_shapes(capsys):
    assert run(capsys, "count-syt", "[600,600]") == (0, str(syt_by_hooks((600, 600))), "")
    assert run(capsys, "count-syt", "[%d]" % SYT_MAX_BOXES) == (0, "1", "")
    for shape in ("[%d]" % (SYT_MAX_BOXES + 1), "[12000,12000]"):
        code, out, err = run(capsys, "count-syt", shape, "--format", "json")
        assert code == 3
        assert out == ""
        assert err.startswith("domain error:")


def test_bracket_huge_derivative_order_is_refused_fast(capsys):
    for argv in (("bracket", "L", "d15000L"), ("nprod", "d15000L", "L", "1"),
                 ("bracket", "[15000]", "[1]"), ("bracket", "L", "d%dL" % (MAX_ORDER + 1))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (3, "")
        assert err.startswith("domain error:") and "Traceback" not in err


def test_brackets_past_the_f_side_limit_are_refused_fast(capsys):
    # d3000L^2 against d3000L is inside the order limit, but its f side
    # takes 13.5 million adds; it ran out of memory with a traceback.
    for argv in (("bracket", "d3000L^2", "d3000L"), ("nprod", "d3000L^2", "d3000L", "2"),
                 ("bracket", "d500L^2", "d500L", "--charge", "1"),
                 ("bracket", "[3001,3001]", "[3001]")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, ""), argv
        assert err.startswith("domain error:") and "adds" in err and "Traceback" not in err
    # L against d3000L and d450L^2 against d450L stay inside the limit.
    C0, C1 = AlgebraCtx(0), AlgebraCtx(1)
    L, d3000, d450 = DiffPoly.gen(0), DiffPoly.gen(3000), DiffPoly.gen(450)
    assert f_side_adds(L, d3000, C1) == 3003
    assert f_side_adds(d450 * d450, d450, C1) <= BRACKET_MAX_ADDS
    assert f_side_adds(d3000 * d3000, d3000, C0) == 13513503
    code, out, err = run(capsys, "bracket", "L", "d3000L", "--charge", "1")
    assert (code, err) == (0, "") and out.endswith(" + (1)*lam^3003")


def test_every_verb_refuses_orders_past_the_limit(capsys):
    over = "d%dL" % (MAX_ORDER + 1)
    for argv in (("der", over), ("phi", over), ("zhu", over), ("qmap", over),
                 ("mul", over, "L"), ("mul", "L", "L + " + over),
                 ("der", "d99999999999999999999L"), ("phi", "d99999999999999999999L")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (3, ""), argv
        assert err.startswith("domain error:") and "Traceback" not in err
    assert run(capsys, "der", "d%dL" % MAX_ORDER) == (0, "d%dL" % (MAX_ORDER + 1), "")


def test_huge_exponents_are_refused_fast(capsys):
    for argv in (("der", "L^99999999999999999999"), ("der", "L^100000000"),
                 ("mul", "d2L^%d" % (MAX_FACTORS + 1), "L"),
                 ("bracket", "L", "L^5000 d1L^5001"), ("zhu", "2 L^%d d1L" % MAX_FACTORS)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (3, "")
        assert err.startswith("domain error:") and "Traceback" not in err
    assert run(capsys, "der", "L^5000")[:2] == (0, "5000 d1L L^4999")
    assert run(capsys, "der", "d1L^%d" % MAX_FACTORS)[0] == 0


def test_verify_sweep_sizes_are_checked_before_any_sweep(capsys):
    over = [("--" + flag.replace("_", "-"), str(cap + 1)) for flag, cap in suite_caps("all").items()]
    for argv in (("--max-n", "-1"), ("--max-deg", "-3"), ("--max-j", "-1"), *over,
                 ("--suite", "jacobi", "--max-deg", "12"),
                 ("--suite", "conjugate-involution", "--max-n", "60"),
                 ("--suite", "weyl-relation", "--max-j", "-1")):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("domain error: --max-") and "Traceback" not in err


def test_verify_sweep_caps_belong_to_each_check(capsys):
    assert run(capsys, "verify", "--suite", "conjugate-involution", "--max-n", "12")[:2] == (
        0, "PASS conjugate-involution (272 cases)")
    assert run(capsys, "verify", "--suite", "weyl-relation", "--max-n", "50")[:2] == (
        0, "PASS weyl-relation-k0 (51 cases)\nPASS weyl-relation-g0 (51 cases)")
    assert run(capsys, "verify", "--suite", "witt-commutator", "--max-j", "0")[:2] == (0, "")
    # witt-commutator reads no --max-n, so no size of it is refused.
    assert run(capsys, "verify", "--suite", "witt-commutator", "--max-j", "1",
               "--max-n", "1000000")[:2] == (0, "PASS witt-commutator (1 cases)")


def test_quantize_refuses_long_words_fast(capsys):
    assert QUANTIZE_MAX_LETTERS == 4 * 400
    for argv in (("quantize", "L^2000"), ("quantize", "L^401"), ("quantize", "d100L^400"),
                 ("quantize", "[1598]"), ("quantize", "[%s]" % ",".join(["1001"] * 100))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("domain error: quantize takes") and "Traceback" not in err
    assert run(capsys, "quantize", "L^2") == (0, "x^6 D^2 + 3 x^5 D", "")
    assert run(capsys, "quantize", "[1,1]")[:2] == (0, "x^6 D^2 + 3 x^5 D")


def test_quantize_on_a_class_takes_the_polynomial_route(capsys, monkeypatch):
    want = run(capsys, "quantize", "d1L L^2")
    assert want[0] == 0 and want[1]

    def unused(self):
        raise AssertionError("quantize on a class goes through psi2(phi_sigma(e))")

    monkeypatch.setattr(IndResExpr, "to_weyl", unused)
    assert run(capsys, "quantize", "[2,1,1]") == want


def test_dangling_star_is_a_parse_error(capsys):
    for argv in (("der", "2*"), ("der", "L + 3 *"), ("nabla", "2*")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error:") and "position %d" % len(argv[1]) in err


def test_bracket_large_derivative_order_still_computes(capsys):
    code, out, err = run(capsys, "bracket", "L", "d1500L")
    assert (code, err) == (0, "")
    assert out.startswith("(d1501L) + (") and out.endswith("(2 L)*lam^1501")


def test_results_too_long_to_print_are_domain_errors(capsys):
    # 6c has 4,301 digits; so does the square of a 2,151-digit coefficient.
    big = "9" * 2151 + " L"
    for argv in (("nprod", "L", "L", "3", "--charge", "9" * 4300),
                 ("mul", big, big), ("mul", big, big, "--format", "json")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("domain error:") and "4300 digits" in err
    code, out, err = run(capsys, "mul", "9" * 4301 + " L", "L")
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and "position 0" in err


def test_class_products_too_long_to_print_are_refused_fast(capsys):
    # [L1000000]^2 computed C(2000000, 1000000) for 37 s before str()
    # refused it; the index literals may have up to 4,300 digits.
    huge = "[L%d]" % 10 ** 400
    for a, b in (("[L1000000]", "[L1000000]"), ("[L10000000]", "2[L3] - [L10000000]"),
                 (huge, huge)):
        start = time.monotonic()
        code, out, err = run(capsys, "mul", a, b)
        assert time.monotonic() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("domain error:") and "4300 digits" in err
        assert "Traceback" not in err
    # Nothing that prints is refused: C(14000, 7000) has 4,213 digits.
    for a, b, digits in (("[L1000000]", "[L1]", 7), ("[L7000]", "[L7000]", 4213)):
        code, out, err = run(capsys, "mul", a, b)
        assert (code, err) == (0, "")
        assert len(out.split("*")[0]) == digits


def test_class_products_too_long_to_print_are_refused_with_the_limit_off(capsys):
    # PYTHONINTMAXSTRDIGITS=0: nothing stops C(2000000, 1000000) in str(),
    # and the work model prices [L1000000] squared at 0.03 s; it ran 37 s.
    def classes(k):
        return " + ".join("[L%d]" % i for i in range(1, k + 1))

    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        start = time.monotonic()
        code, out, err = run(capsys, "mul", "[L1000000]", "[L1000000]")
        assert time.monotonic() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("domain error:") and "Traceback" not in err
        for setting in (0, limit):
            sys.set_int_max_str_digits(setting)
            code, out, err = run(capsys, "mul", "[L7000]", "[L7000]")
            assert (code, err) == (0, "") and len(out.split("*")[0]) == 4213
            code, out, err = run(capsys, "mul", classes(299), classes(299))
            assert (code, err) == (0, "") and out.endswith(" + 2*[L2]")
    finally:
        sys.set_int_max_str_digits(limit)


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses costs every process about 7 ms and 1 MB through inspect,
    # ast, dis and tokenize, and json, which only --format json reads,
    # about 2 ms; site may preload modules, so compare with them.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; before = set(sys.modules); import virmagri.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    loaded = set(proc.stdout.split())
    assert "virmagri.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}


def test_class_products_past_the_work_limit_are_refused_fast(capsys, monkeypatch):
    # The square of [L1] + ... + [L999] has small enough constants but ran
    # 44 s: the work grows as the pairs times their digits.  The work rule
    # holds with the str() digit limit off too (0 means no limit).
    def classes(k):
        return " + ".join("[L%d]" % i for i in range(1, k + 1))

    for limit in (sys.get_int_max_str_digits(), 0):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
        for a in (classes(999), "[L%d]" % 10 ** 400):
            start = time.monotonic()
            code, out, err = run(capsys, "mul", a, a)
            assert time.monotonic() - start < 2
            assert (code, out) == (3, "") and err.startswith("domain error:")
            assert "Traceback" not in err
        assert "work" in run(capsys, "mul", classes(999), classes(999))[2]
    monkeypatch.undo()
    code, out, err = run(capsys, "mul", classes(299), classes(299))
    assert (code, err) == (0, "") and out.endswith(" + 2*[L2]")


def test_products_past_the_work_limit_are_refused_fast(capsys):
    # Before the limit the square of d1L + ... + d3000L ran 38 s and of
    # [N1] + ... + [N6000] 6.3 s; the work is counted before any product.
    for a in (" + ".join("d%dL" % k for k in range(1, 3001)),
              " + ".join("[N%d]" % k for k in range(1, 6001)),
              " + ".join("[%d]" % k for k in range(1, 1001))):
        start = time.monotonic()
        code, out, err = run(capsys, "mul", a, a)
        assert time.monotonic() - start < 2
        assert (code, out) == (3, "") and err.startswith("domain error:")
        assert "work" in err and "Traceback" not in err
    code, out, err = run(capsys, "mul", " + ".join("d%dL" % k for k in range(1, 301)), "L")
    assert (code, err) == (0, "") and out.endswith(" + d1L L")


def test_nprod_past_the_top_power_is_zero(capsys):
    assert run(capsys, "nprod", "L", "L", str(10 ** 15)) == (0, "0", "")


def test_assorted_verbs(capsys):
    assert run(capsys, "nprod", "L", "L", "1") == (0, "2 L", "")
    assert run(capsys, "mul", "L", "d1L")[1] == "d1L L"
    assert run(capsys, "der", "L^2")[1] == "2 d1L L"
    assert run(capsys, "nabla", "[2,2,1]")[1] == "2*[3,2,1] + [2,2,2]"
    assert run(capsys, "ind", "[1]")[1] == "[2] + [1,1]"
    assert run(capsys, "res", "[2,1]")[1] == "[2] + [1,1]"
    assert run(capsys, "ind", "[N3]")[1] == "[N4]"
    assert run(capsys, "res", "[L5]")[1] == "[L4]"
    assert run(capsys, "zhu", "L^3 + d1L")[1] == "x^3"
    assert run(capsys, "qmap", "L d1L^2 + d2L")[1] == "x"
    assert run(capsys, "quantize", "L^2")[1] == "x^6 D^2 + 3 x^5 D"
    assert run(capsys, "quantize", "[1,1]")[1] == "x^6 D^2 + 3 x^5 D"
    assert run(capsys, "phi", "[2,1]")[1] == "d1L L"
    assert run(capsys, "phi", "d1L L")[1] == "[2,1]"
    assert run(capsys, "phi", "[N4]")[1] == "x^4"
    assert run(capsys, "count-syt", "[2,1]")[1] == "2"


def test_exit_codes(capsys):
    code, _, err = run(capsys, "der", "3 dxL")
    assert code == 2 and "position 3" in err
    code, _, err = run(capsys, "quantize", "L", "--charge", "2")
    assert code == 3 and "central charge" in err
    code, _, err = run(capsys, "pjind", "[2,1]", "0")
    assert code == 3
    code, _, err = run(capsys, "mul", "[2]", "L")
    assert code == 3
    # argparse usage failures surface as parse errors
    assert main(["verify", "--suite", "nonexistent"]) == 2
    capsys.readouterr()
    assert main(["nosuchverb"]) == 2
    capsys.readouterr()


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "bracket", "L", "L", "--charge", "1", "--format", "json")
    data = json.loads(out)
    assert data["verb"] == "bracket" and data["charge"] == 1
    assert data["result"]["type"] == "lambdapoly"
    assert data["result"]["terms"] == [
        {"lam": 0, "coeff": [{"mono": [1], "c": 1}]},
        {"lam": 1, "coeff": [{"mono": [0], "c": 2}]},
        {"lam": 3, "coeff": [{"mono": [], "c": 1}]},
    ]
    code, out, _ = run(capsys, "count-syt", "[4,3,2,1]", "--format", "json")
    assert json.loads(out)["result"] == {"type": "int", "value": 768}


def test_only_the_printed_form_is_built(capsys, monkeypatch):
    import virmagri.cli as cli

    big = "9" * 2151 + " L"
    calls = [("bracket", "d1L", "d2L L", "--charge", "-2"), ("count-syt", "[4,3,2,1]"),
             ("ind", "[N3]"), ("quantize", "L^2"), ("verify", "--suite", "witt-commutator"),
             ("mul", big, big)]
    want = {fmt: [run(capsys, *argv, "--format", fmt) for argv in calls]
            for fmt in ("text", "json")}

    def refuse(value):
        raise AssertionError("built a form that is not printed")

    for fmt, unused in (("text", "to_jsonable"), ("json", "format_value")):
        with monkeypatch.context() as m:
            m.setattr(cli, unused, refuse)
            assert [run(capsys, *argv, "--format", fmt) for argv in calls] == want[fmt]
    assert want["json"][-1][0] == want["text"][-1][0] == 3


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "witt-commutator")
    assert code == 0
    assert out.startswith("PASS witt-commutator (64 cases)")
    code, out, _ = run(capsys, "verify", "--suite", "jacobi", "--max-deg", "4",
                       "--charge", "-2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["ok"] is True
    assert data["result"]["identities"]["jacobi"]["failed"] == 0


def test_verify_failure_exit_code(capsys, monkeypatch):
    import virmagri.verify as verify_mod

    def broken(bounds, ctx):
        rep = CheckReport()
        rep.record("broken", "always", False, "1", "0")
        return rep

    monkeypatch.setitem(verify_mod.CHECKS, "witt-commutator", broken)
    code, out, _ = run(capsys, "verify", "--suite", "witt-commutator")
    assert code == 1
    assert "FAIL broken" in out and "counterexample" in out


def test_main_reraises_a_value_error_other_than_the_digit_limit(capsys, monkeypatch):
    # Only str()'s digit-limit ValueError is a domain error (exit 3); any
    # other ValueError is a fault of the program and must not read as one.
    import pytest
    import virmagri.cli as cli_mod

    def boom(args, ctx):
        raise ValueError("boom")

    monkeypatch.setitem(cli_mod._VERBS, "der", (boom, "a", "total derivative"))
    with pytest.raises(ValueError, match="boom"):
        main(["der", "L"])
    assert capsys.readouterr().err == ""


def test_text_output_round_trips(capsys):
    _, out, _ = run(capsys, "bracket", "d1L", "d1L", "--charge", "-2")
    assert parse_lambdapoly(out).coeff(1) == -DiffPoly.gen(2)
    _, out, _ = run(capsys, "bracket", "[2]", "[1]", "--charge", "1")
    parse_k0lambda(out)
    _, out, _ = run(capsys, "mul", "3 L - d1L", "L^2")
    assert parse_diffpoly(out) == (3 * DiffPoly.gen(0) - DiffPoly.gen(1)) * DiffPoly.gen(0) ** 2
    _, out, _ = run(capsys, "nabla", "[3,1]")
    assert parse_k0sigma(out) == parse_k0sigma("[4,1] + [3,2]")
    _, out, _ = run(capsys, "res", "[N7]")
    e = parse_kn(out)
    assert type(e) is K0NElem and e.terms == {6: 7}
    _, out, _ = run(capsys, "zhu", "L^2 - L^5")
    assert parse_xpoly(out) == XPoly({2: 1, 5: -1})
    _, out, _ = run(capsys, "quantize", "d1L")
    assert parse_weyl(out) == WeylElem.monomial(4, 1)


# Every verb, the zero values, mul on each operand kind, the errors of
# test_exit_codes, one sweep and every --help.  Each line runs in text and
# with --format json; its digest hashes (exit code, stdout, stderr).
_PINNED_ARGV = [shlex.split(line) for line in """
bracket L L --charge 1
bracket 'd1L L' 'L^2' --charge -2
bracket [2,1] [1] --charge 1
bracket [] [2]
nprod d1L d1L 1
nprod L L 0 --charge 3
mul '3 L d1L^2 - 2 d3L' L
mul '2*[2,1] - [1,1]' [1]
mul '[N2] - [N0]' 3*[N1]
mul [L2] '[L1] + [L0]'
mul [2] L
mul [N1] [L1]
mul [N1] [1]
mul '[L1] + [L2]' '[L1] - [L2]'
mul '[L1] - [L1]' [L2]
der 'd1L^2 L'
der '3 dxL'
pjind [5,2,1] 4
pjind [2,1] 0
nabla [2,2,1]
nabla '[3,1] - [2,2]'
ind [N3]
ind '2*[L5] - [L1]'
ind [2,1]
ind '[2] + [1,1]'
ind 0
res '2*[L5] - [L1]'
res [N0]
res [2,1]
res '[2,1] - [3]'
zhu 'L^2 d3L + 2 L'
zhu 'L^2 + 3 L^2 - 4 L^2 d1L'
qmap 'L d1L^2 + d2L'
qmap 'L d1L + L d1L^2 - L'
quantize L^2
quantize [2,1,1]
quantize []
quantize L --charge 2
quantize 'L^2 - L^2'
phi [3,1,1]
phi 'd2L L^2'
phi 'd1L L + L d1L'
phi [N4]
phi [L2]
phi 0
count-syt [4,3,2,1]
verify --suite witt-commutator
verify --suite nonexistent
nosuchverb
--help
bracket --help
nprod --help
mul --help
der --help
pjind --help
nabla --help
ind --help
res --help
zhu --help
qmap --help
quantize --help
phi --help
count-syt --help
verify --help
""".strip().splitlines()]

PINNED_OUTPUTS = {
    "bracket L L --charge 1": "e21e2afa6fbad0f9218a283980761195e5559188bb1d93abd5ae580b6a3b7102",
    "bracket L L --charge 1 --format json":
        "8b6514e79ca95dddeeb7f6843dbeb8d4620a15874167316fac4d6986052a5206",
    "bracket 'd1L L' 'L^2' --charge -2":
        "0103e23ee7b44101e575235873f139bf3defa9f8fcdad613e31112a634515395",
    "bracket 'd1L L' 'L^2' --charge -2 --format json":
        "c864a8cc2268fa8e7478bacd23ff9de62d7b0a6528686c8b5ca4928583ec335d",
    "bracket '[2,1]' '[1]' --charge 1":
        "e996d7dba94462850be360a059094d8d929266b187ae494d232e358606c2979c",
    "bracket '[2,1]' '[1]' --charge 1 --format json":
        "ddf4b8b07e909f9ea098417739b1691b98ab4513546a6dc102023307a8eb4898",
    "bracket '[]' '[2]'": "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "bracket '[]' '[2]' --format json":
        "842e692dd545034d83fd206fc883e043d25064d5339ca082b36b66a52a71c3a9",
    "nprod d1L d1L 1": "db9a97a4f1ff85f5cbee2166bb748940634e49da7354912fb0bfa212a00ce928",
    "nprod d1L d1L 1 --format json":
        "e44974e771f859c792c45efbf254f3bc7868d97f2917a7d0c708c664c3393785",
    "nprod L L 0 --charge 3": "573a0e4de152d7af299fd23979b189c709a15f00212bd167efa16c1d41423302",
    "nprod L L 0 --charge 3 --format json":
        "5e10cc5494da4f6ba9c8472ee79155559735fef4c41f155eb75fe968cca9d775",
    "mul '3 L d1L^2 - 2 d3L' L": "e5fbd264ba0ab86d89b61bd5ce76d37c3b57212865ffc6250f296506a1bb19d2",
    "mul '3 L d1L^2 - 2 d3L' L --format json":
        "794f4294943519cdbea44866e9d9aa7d4ccc2d0d54b45f23a3735b1fcf9499fc",
    "mul '2*[2,1] - [1,1]' '[1]'":
        "8f298d63a59eb7b689ff3005d092327cf3430a237f5ce35d9ed7146878fd28c0",
    "mul '2*[2,1] - [1,1]' '[1]' --format json":
        "ae56e12aeba19e391775537dba05d9ba7c9f5f6e0767abad38f51d324365c6c6",
    "mul '[N2] - [N0]' '3*[N1]'":
        "36c0d05c7c6fc77f75ed52af3750a11bac11585d92eff606839d78dc2da3de51",
    "mul '[N2] - [N0]' '3*[N1]' --format json":
        "4bf2baed65b54d56f123b2673af608910a70ed56bbedc506634e29cfa2d50872",
    "mul '[L2]' '[L1] + [L0]'": "b611b24af93205b89ef855278087dea8f960ff0a5d70138c3ef38d654490eacf",
    "mul '[L2]' '[L1] + [L0]' --format json":
        "1efe1421f140008c57e2923e4e8dee0facbd87454d68be2beb0f61430f8cd7a7",
    "mul '[2]' L": "5e4f73b502006bb48a2d222d7dbeafc17f2e9b545960158c98dbd2df70888f52",
    "mul '[2]' L --format json": "5e4f73b502006bb48a2d222d7dbeafc17f2e9b545960158c98dbd2df70888f52",
    "mul '[N1]' '[L1]'": "fd1a9c6778e9bf2be80096ecc37f819824952ada25c627b07f27ee30ed75f64e",
    "mul '[N1]' '[L1]' --format json":
        "fd1a9c6778e9bf2be80096ecc37f819824952ada25c627b07f27ee30ed75f64e",
    "mul '[N1]' '[1]'": "5e4f73b502006bb48a2d222d7dbeafc17f2e9b545960158c98dbd2df70888f52",
    "mul '[N1]' '[1]' --format json":
        "5e4f73b502006bb48a2d222d7dbeafc17f2e9b545960158c98dbd2df70888f52",
    "der 'd1L^2 L'": "412776f79057ee6c352448f966f1e668f2bc4e9a0e00a0ca915daed2a2942260",
    "der 'd1L^2 L' --format json":
        "77e73bfd8039f562098b5671bcf8439a4f67be37fe08dc9f0981b8d7b03acb6c",
    "der '3 dxL'": "2a5e0a86913abcfe493d8d75550bed41f32f4ee1b260334e635a64ef7541f8f3",
    "der '3 dxL' --format json": "2a5e0a86913abcfe493d8d75550bed41f32f4ee1b260334e635a64ef7541f8f3",
    "pjind '[5,2,1]' 4": "7acf6c08e1d610e98e6c618a07dc9498a53d951c9abf3aad1329478f66a6988a",
    "pjind '[5,2,1]' 4 --format json":
        "134ad1f173f854bccb62f0db0801bc9f224987fa96d0ec5afe4dd979a815fcc3",
    "pjind '[2,1]' 0": "2e5e09aedb3b0310f970b5eecc46a5b45a011607e5384b3ea50bbdad75fbf055",
    "pjind '[2,1]' 0 --format json":
        "2e5e09aedb3b0310f970b5eecc46a5b45a011607e5384b3ea50bbdad75fbf055",
    "nabla '[2,2,1]'": "30164f63d9db52b29383a3fb2630dec7aa481e3320981e353fefb3bfea4662d0",
    "nabla '[2,2,1]' --format json":
        "f3dac4c8ab604b2215880d2baafe6e585ab698c1bd35d33cd64795340a84de0e",
    "ind '[N3]'": "979debc7e7ebf206f9a6fbe2f7ab340c08ccaa0c3e4e18a11a0b6d8fc5cc045f",
    "ind '[N3]' --format json": "f398d8670110593357355c6a8e13810a8c1adc050c0f4f2bbbe27bbca1514c46",
    "ind '2*[L5] - [L1]'": "e30320b7e58b1db26c06f36ce1f9246e020ff4c6e00fb60661ae22b0b8bfcd21",
    "ind '2*[L5] - [L1]' --format json":
        "df1036bab00919a12e4e61b1792c1ef2e55afcf403ff43e5eab8bbda346e0fe9",
    "ind '[2,1]'": "49415b19e89e79da1cb2bf57f411e2b3680083824ef509acc5158edc2f06a3b7",
    "ind '[2,1]' --format json": "5e6f49c877fba6169167310e0da0681acf19d8d920b6bbcbafc6c0532bc0da08",
    "ind 0": "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "ind 0 --format json": "ffcaccd48d1f8966d731d61718541155ed2c24df5909032473235917360f3a3d",
    "res '2*[L5] - [L1]'": "606adc1c8ba7512bdb441196da36c9a974fbab08d8c751a033e748f91722860e",
    "res '2*[L5] - [L1]' --format json":
        "812445ff59fe54e06df6ef850223fc09c99bc350196287a71d9baa347c50a2ce",
    "res '[N0]'": "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "res '[N0]' --format json": "fbe949e44ac29ece38dd26f87ea602d9c3c4a6929e73bd5d41627a41bf4c96e5",
    "res '[2,1]'": "028b54a6873550088031b29ffc27f97b625e3a910c005f51ec36cb26f0f9dcbe",
    "res '[2,1]' --format json": "020993270a248a8f6e2440c9819deface1c6e53ee8c5ee97440411da7dae2e49",
    "zhu 'L^2 d3L + 2 L'": "6eb317d1e1638758c66a471773fbcfb390f6231774a501f65ede70e9e0e76356",
    "zhu 'L^2 d3L + 2 L' --format json":
        "a58e6d7b4b77d906028ff571e8621c75fd54f250200bba3b1ad1de345cf948ae",
    "qmap 'L d1L^2 + d2L'": "808ee5f603252336236d495f4230c09215a70af132f99fc88b73bf012840e0bc",
    "qmap 'L d1L^2 + d2L' --format json":
        "6abf25c3ac9bf4ae161e0e59f03cb920ed21dd991d86954b236fd4d7dcad26f5",
    "quantize 'L^2'": "43eef6c6bcd188ab2d5c80bb829a724ebb58c58051423367f645e5e1da44eb37",
    "quantize 'L^2' --format json":
        "b1f41aeac3a9fb0a513a466552ae61cb1501ddc96b448fbfd42818eba0bfd7fb",
    "quantize '[2,1,1]'": "425639425d48542f6ced00427f0bbd91350001662cf319d0b123d4617920847c",
    "quantize '[2,1,1]' --format json":
        "c21d21fa4e025c56d10a28eefd211e700e2ec8eca0a32115ed96aac6c756795a",
    "quantize '[]'": "90f825953954db045408ae19c16f8d5c303b78bee1e163d305a16d9c6544950d",
    "quantize '[]' --format json":
        "bbf4e3836bc7fb582d33454b03f03c14049edaa0f107e08424c15d2c6d6b7c10",
    "quantize L --charge 2": "39b545d23c63ce675d567b880a5fc547521cb3eea2715d1879ac6eae42f9f1ea",
    "quantize L --charge 2 --format json":
        "39b545d23c63ce675d567b880a5fc547521cb3eea2715d1879ac6eae42f9f1ea",
    "phi '[3,1,1]'": "8fab0d65433c90f39943122963f45418358a5cd3982f9c3e724652bba0495c9b",
    "phi '[3,1,1]' --format json":
        "e72114804d9fefa79c4334123b4bf7b9db4d244467d3ed0c8f9d94361b42aa1d",
    "phi 'd2L L^2'": "c1945d1f073f042ef2ed49df74cda9f0a318da485634335d9a92f357e9353dfc",
    "phi 'd2L L^2' --format json":
        "18bea0b73dc326e58695666f6abd7fce4043a6d45ff7350fee6022f876106b78",
    "phi '[N4]'": "fd9bc5efd6614e712c23160584495c00e92cfaf67832f365abbd82efbccd6690",
    "phi '[N4]' --format json": "5fd802ccd8a949931b4343d9fa4441cf5b95bc5401359f8c9fcd99baafefbb5b",
    "phi '[L2]'": "98beb4d7969eb975a144140613812dae5ba55da9528e603f05063b3ce004ba86",
    "phi '[L2]' --format json": "98beb4d7969eb975a144140613812dae5ba55da9528e603f05063b3ce004ba86",
    "phi 0": "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "phi 0 --format json": "7dda9141c28e72c7cecd310bf21f803625a637b22385d1714572241c55af579e",
    "count-syt '[4,3,2,1]'": "6aa95833d8ed138488c4fb5b92b31db647963ff1b76f5aaaca2b8efb97518c5f",
    "count-syt '[4,3,2,1]' --format json":
        "aa2732b1da3baf5dd54f9a7f2bf580662d3901ad8f476b339cfc1d196da09d6c",
    "verify --suite witt-commutator":
        "443fa1d8a2bc12ac5f0ec0cd52e31b733738aea12d72c493b9f1c731c12aa268",
    "verify --suite witt-commutator --format json":
        "ad4d82b5ee4f22266e1bc22f39def1e51da993a946ce9327df989f361e388b6d",
    "verify --suite nonexistent":
        "9d8853e0ba9d0d5f185e615441efa95ced10d7885b3fec9ca9c8ed9e9c1c01d4",
    "verify --suite nonexistent --format json":
        "9d8853e0ba9d0d5f185e615441efa95ced10d7885b3fec9ca9c8ed9e9c1c01d4",
    "nosuchverb": "525198c6c29eda373e5206830278c3156c95b3a0cb45a5358d9763fed194c062",
    "nosuchverb --format json": "525198c6c29eda373e5206830278c3156c95b3a0cb45a5358d9763fed194c062",
    "--help": "b1df9b72e6696c88d14b82761c9f65381653a7eb61e767eec142506ba0af5690",
    "--help --format json": "b1df9b72e6696c88d14b82761c9f65381653a7eb61e767eec142506ba0af5690",
    "bracket --help": "acfc9f541b4556932c74ddff0b49f38f8fffd7a99e28f3fee4bf85caabd9669c",
    "bracket --help --format json":
        "acfc9f541b4556932c74ddff0b49f38f8fffd7a99e28f3fee4bf85caabd9669c",
    "nprod --help": "9f34562a336c0cda95b2457696aad7a9f7beb1fd59e052e516f9afa5561cd372",
    "nprod --help --format json":
        "9f34562a336c0cda95b2457696aad7a9f7beb1fd59e052e516f9afa5561cd372",
    "mul --help": "bb8746fcb0d75989f8c1fdb9186cb512b923a50ce279159381ff2a95afd321ec",
    "mul --help --format json": "bb8746fcb0d75989f8c1fdb9186cb512b923a50ce279159381ff2a95afd321ec",
    "der --help": "cd61caba5291e8f80efad526e1aab2203f566073efd9535985e9bb46be36a91c",
    "der --help --format json": "cd61caba5291e8f80efad526e1aab2203f566073efd9535985e9bb46be36a91c",
    "pjind --help": "ba5972a31d0d08ea923b6feaf9ec2265c4af52e44042354f786344c0cb0e80fc",
    "pjind --help --format json":
        "ba5972a31d0d08ea923b6feaf9ec2265c4af52e44042354f786344c0cb0e80fc",
    "nabla --help": "8f5c9b98ece54d70cf739a7268c9422936e06c60967c2e97f6c0d87538566644",
    "nabla --help --format json":
        "8f5c9b98ece54d70cf739a7268c9422936e06c60967c2e97f6c0d87538566644",
    "ind --help": "cb8d571514aefad6f0420ecfa8a5fcc5e20b17ec06d359ed4eaefd78418ed3e7",
    "ind --help --format json": "cb8d571514aefad6f0420ecfa8a5fcc5e20b17ec06d359ed4eaefd78418ed3e7",
    "res --help": "89eb292abee61afff0f8e6411fd3beed240556a64b77b9d61758f4954da94eae",
    "res --help --format json": "89eb292abee61afff0f8e6411fd3beed240556a64b77b9d61758f4954da94eae",
    "zhu --help": "3b2886ed8e3227ad80e0f7ff145173faa691ed667068bee2bef573cef83fc154",
    "zhu --help --format json": "3b2886ed8e3227ad80e0f7ff145173faa691ed667068bee2bef573cef83fc154",
    "qmap --help": "29537412cd2b406cb0b2818e308c655bb82fb4436702d2f9d50ab05ee5d3b24a",
    "qmap --help --format json": "29537412cd2b406cb0b2818e308c655bb82fb4436702d2f9d50ab05ee5d3b24a",
    "quantize --help": "04f41d8a2a996ceb51a07b63643afde1ac43170a973915f84b5cd6810d1a5e5a",
    "quantize --help --format json":
        "04f41d8a2a996ceb51a07b63643afde1ac43170a973915f84b5cd6810d1a5e5a",
    "phi --help": "53788bddc3018adce1ecb124a521c238cf1ce082d41d481c6013de75c521dcac",
    "phi --help --format json": "53788bddc3018adce1ecb124a521c238cf1ce082d41d481c6013de75c521dcac",
    "mul '[L1] + [L2]' '[L1] - [L2]'":
        "9c917dd261febb435655378803cb636d4208c368c0b8d92c696065d9ec8e0a5f",
    "mul '[L1] + [L2]' '[L1] - [L2]' --format json":
        "a9f03dcfa4ee3056859dbcb9bbc799f51b3da6ce4e7959ddb731d866edd39214",
    "mul '[L1] - [L1]' '[L2]'": "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "mul '[L1] - [L1]' '[L2]' --format json":
        "6871359419edf058a50abeefe3406168acbfe5f2690ef8a20cd83ed0274ae4a8",
    "nabla '[3,1] - [2,2]'": "1b2e92b5a5208f121c2e8900135d9118b58021164acd0958219cc5c33e226979",
    "nabla '[3,1] - [2,2]' --format json":
        "05af1e93aac5ec2b034d9df0971376cd6503ced7186502ec345d06388c458d2f",
    "ind '[2] + [1,1]'": "e3b60310e68ecc157f5de0b38d24d6db29a0ce3d5ce181736def4c60c88e352f",
    "ind '[2] + [1,1]' --format json":
        "fa7fcb7f735f4c6546dacdc8c0787885f713642103ff7cbb56c3ff4086e1b169",
    "res '[2,1] - [3]'": "77f5e9588b10bccb24224589c7a5e90689a148fbfe129e078207c9d9d45f89cb",
    "res '[2,1] - [3]' --format json":
        "eda42827522b528baa4b40a81e780cb7b1cfbccc66e8e90ebf6037e4c48a018e",
    "zhu 'L^2 + 3 L^2 - 4 L^2 d1L'":
        "1c93779d000def996a4ad73fa0478aceb2d33c818221a79df4f76cb5cf1825d0",
    "zhu 'L^2 + 3 L^2 - 4 L^2 d1L' --format json":
        "b7cfd9d4efdd1fe2bc904fabe9c5ba33c97c072cce24e85966103b847ebbf04d",
    "qmap 'L d1L + L d1L^2 - L'":
        "808ee5f603252336236d495f4230c09215a70af132f99fc88b73bf012840e0bc",
    "qmap 'L d1L + L d1L^2 - L' --format json":
        "6abf25c3ac9bf4ae161e0e59f03cb920ed21dd991d86954b236fd4d7dcad26f5",
    "quantize 'L^2 - L^2'": "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "quantize 'L^2 - L^2' --format json":
        "49ed6e1bbbcebb16bf59caebbfc9b28273b83900ba578680d71ee38148364f05",
    "phi 'd1L L + L d1L'": "66274ac496e793322c4af14fde8dcc5fe337b7c014814f296b310aaa427f5310",
    "phi 'd1L L + L d1L' --format json":
        "e5a68fff5623fe888c16657042e6a8ae4415dd253ccba8105f552113e9c08f6b",
    "count-syt --help": "f0a69879f69dc801fd78d0de7b9a4aa776f5cea9622e2953d5ecc616de125dd8",
    "count-syt --help --format json":
        "f0a69879f69dc801fd78d0de7b9a4aa776f5cea9622e2953d5ecc616de125dd8",
    "verify --help": "5cf51106a3a41a5967dd4d1fa37613874a6e121382a699a5e8c2dd476518807b",
    "verify --help --format json":
        "5cf51106a3a41a5967dd4d1fa37613874a6e121382a699a5e8c2dd476518807b",
}


def _cli_digests(capsys):
    got = {}
    for argv in _PINNED_ARGV:
        for call in (argv, argv + ["--format", "json"]):
            code = main(call)
            out = capsys.readouterr()
            blob = json.dumps([code, out.out, out.err])
            got[shlex.join(call)] = hashlib.sha256(blob.encode()).hexdigest()
    return got


def test_cli_outputs_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    assert _cli_digests(capsys) == PINNED_OUTPUTS


def test_reader_closing_early_is_not_a_traceback():
    # `virmagri bracket "d60L^2" d60L | head -c 20`: the reader goes away
    # after 20 bytes while the CLI still has most of its one 260 kB line,
    # far past a pipe's buffer, to write.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "virmagri.cli", "bracket", "d60L^2", "d60L"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    assert proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_reader_closing_after_ten_bytes_exits_cleanly():
    # `virmagri bracket L d1500L | head -c 10`: the result is one 517 kB
    # line, so the write hits the closed pipe and takes the BrokenPipeError
    # branch of main.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "virmagri.cli", "bracket", "L", "d1500L"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
