import hashlib
import inspect
import json
import re

import pytest

from virmagri import verify
from virmagri.brackets import LambdaPoly
from virmagri.diffpoly import AlgebraCtx, DiffPoly
from virmagri.report import CheckReport
from virmagri.text import parse_lambdapoly
from virmagri.verify import (
    CAPS,
    CHECKS,
    GROUP_OF,
    Bounds,
    group_names,
    resolve_suite,
    run_suite,
    suite_caps,
    suite_names,
)

SMALL = Bounds(max_n=4, max_j=2, max_deg=3)

# sha256 of every record of run_suite("all", SMALL) per charge, passes
# included, taken while each check still built its own report: it pins
# the identity names, case strings, case order and counts.
PINNED_RECORDS = {
    0: "1ab83bf7ad6804250ee5a23e3acf12f69c91e276cd08497c2089f07fe55d5283",
    1: "63050abd6edbd55237706f750641340024addd718859bb591ef9db66703e81a4",
    -2: "83963902d8677da605a285e697c937cd8179ff8c5eca01a0f5a9ee95bba615ef",
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_check_passes_small(name):
    for charge in (0, 1):
        rep = CHECKS[name](SMALL, AlgebraCtx(charge))
        assert rep.records, "check produced no cases"
        assert rep.ok, "\n".join(
            "%s %s lhs=%s rhs=%s" % (r.identity, r.case, r.lhs, r.rhs)
            for r in rep.failures()[:5])


def test_bounds_defaults_and_overrides():
    b = Bounds()
    assert (b.n(10), b.j(5), b.deg(7)) == (10, 5, 7)
    b = Bounds(max_n=3, max_j=1, max_deg=2)
    assert (b.n(10), b.j(5), b.deg(7)) == (3, 1, 2)


def test_every_check_caps_exactly_the_bounds_it_reads():
    field = {"n": "max_n", "j": "max_j", "deg": "max_deg"}
    for name, check in CHECKS.items():
        defaults = {}
        for short, default in re.findall(r"bounds\.(n|j|deg)\((\d+)\)",
                                         inspect.getsource(check.__wrapped__)):
            defaults[field[short]] = max(int(default), defaults.get(field[short], 0))
        assert CAPS[name].keys() == defaults.keys(), name
        assert all(defaults[f] <= CAPS[name][f] for f in defaults), name


def test_suite_caps_are_the_least_over_the_suite():
    assert suite_caps("witt-commutator") == CAPS["witt-commutator"]
    assert suite_caps("generator-bracket") == {}
    for field, cap in suite_caps("all").items():
        assert cap == min(c[field] for c in CAPS.values() if field in c)


def test_suite_resolution():
    assert resolve_suite("all") == sorted(CHECKS)
    assert resolve_suite("jacobi") == ["jacobi"]
    parts = resolve_suite("partitions")
    assert parts and all(GROUP_OF[n] == "partitions" for n in parts)
    with pytest.raises(KeyError):
        resolve_suite("nonexistent")
    names = suite_names()
    assert "all" in names and "jacobi" in names and "zhu" in names


def test_groups_cover_every_check():
    assert set(GROUP_OF) == set(CHECKS)
    assert set(group_names()) == {"partitions", "diffpoly", "brackets",
                                  "k0sigma", "nilcoxeter", "zhu"}


def test_run_suite_merges_and_serializes():
    rep = run_suite("partitions", SMALL, AlgebraCtx(0))
    assert rep.ok
    names = set(rep.identities())
    assert "conjugate-involution" in names and "branching-dimension" in names
    blob = json.dumps(rep.to_jsonable())
    data = json.loads(blob)
    assert data["ok"] is True and data["records"] == []


def _folded_failures(name, identity):
    rep = CHECKS[name](SMALL, AlgebraCtx(0))
    failures = [r for r in rep.failures() if r.identity == identity]
    assert failures
    return failures


def test_sesquilinearity_failure_shows_the_composition_sides(monkeypatch):
    # Wrong only for (-(lambda+d))^3: at these bounds the first check of
    # sesquilinearity-right never uses it, only the folded composition does.
    shift_apply = LambdaPoly.shift_apply

    def broken(self, m, sign=1):
        out = shift_apply(self, m, sign)
        return out + LambdaPoly.of(DiffPoly.one()) if (m, sign) == (3, -1) else out

    monkeypatch.setattr(LambdaPoly, "shift_apply", broken)
    for r in _folded_failures("sesquilinearity", "sesquilinearity-right"):
        assert r.lhs != r.rhs


def test_sesquilinearity_compares_shifts_with_shift_apply(monkeypatch):
    # Wrong only at order 2 of the sweep's own multi-order call; the
    # brackets pass their orders as a set or a dict, never as this tuple.
    shifts = LambdaPoly.shifts

    def broken(self, ms, sign=1):
        out = shifts(self, ms, sign)
        if ms == (1, 2, 3):
            out[2] = out[2] + LambdaPoly.of(DiffPoly.one())
        return out

    monkeypatch.setattr(LambdaPoly, "shifts", broken)
    for r in _folded_failures("sesquilinearity", "sesquilinearity-right"):
        assert r.lhs != r.rhs
    assert not [r for r in CHECKS["sesquilinearity"](SMALL, AlgebraCtx(0)).failures()
                if r.identity != "sesquilinearity-right"]


def test_pjind_failure_shows_the_column_composition_sides(monkeypatch):
    p_i_ind = verify.p_i_ind
    monkeypatch.setattr(verify, "p_i_ind", lambda e, i: p_i_ind(e, i).scale(2))
    for r in _folded_failures("pjind-diagram", "pjind-diagram"):
        assert r.lhs != r.rhs


@pytest.mark.parametrize("charge", sorted(PINNED_RECORDS))
def test_sweep_records_are_pinned(charge):
    rep = run_suite("all", SMALL, AlgebraCtx(charge))
    blob = json.dumps(rep.to_jsonable(include_passes=True), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_RECORDS[charge]


def test_every_check_is_a_case_generator():
    for name, check in CHECKS.items():
        assert inspect.isgeneratorfunction(check.__wrapped__), name
        assert isinstance(check(SMALL, AlgebraCtx(0)), CheckReport), name


def test_k0_bracket_transport_failure_shows_both_brackets(monkeypatch):
    lambda_bracket_k0 = verify.lambda_bracket_k0

    def broken(a, b, ctx):
        got = lambda_bracket_k0(a, b, ctx)
        if got:
            k = min(got)
            got[k] = got[k].scale(2)
        return got

    monkeypatch.setattr(verify, "lambda_bracket_k0", broken)
    for r in _folded_failures("k0-bracket-transport", "k0-bracket-transport"):
        assert parse_lambdapoly(r.lhs) != parse_lambdapoly(r.rhs)
