import json
import time

from helpers import syt_by_hooks
from virmagri import DiffPoly, WeylElem, XPoly
from virmagri.cli import MAX_ORDER, QUANTIZE_MAX_LETTERS, SYT_MAX_BOXES, main
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
    kind, e = parse_kn(out)
    assert kind == "N" and e.terms == {6: 7}
    _, out, _ = run(capsys, "zhu", "L^2 - L^5")
    assert parse_xpoly(out) == XPoly({2: 1, 5: -1})
    _, out, _ = run(capsys, "quantize", "d1L")
    assert parse_weyl(out) == WeylElem.monomial(4, 1)
