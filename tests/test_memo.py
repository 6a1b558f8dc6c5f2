"""The per-check bracket memo: what it keys on, where it is open, and that
it changes no result."""

import contextlib

import pytest

from virmagri import AlgebraCtx, DiffPoly, brackets, verify
from virmagri.brackets import bracket_master, bracket_memo
from virmagri.verify import CHECKS, Bounds

SMALL = Bounds(max_n=4, max_j=2, max_deg=3)
L = DiffPoly.gen(0)
C1 = AlgebraCtx(1)


@pytest.fixture
def formula_calls(monkeypatch):
    """Count the runs of the uncached master formula."""
    calls = []
    formula = brackets._bracket_master

    def counted(f, g, ctx):
        calls.append((f, g))
        return formula(f, g, ctx)

    monkeypatch.setattr(brackets, "_bracket_master", counted)
    return calls


def test_memo_keys_on_coefficients(formula_calls):
    with bracket_memo():
        one = bracket_master(L, L, C1)
        two = bracket_master(2 * L, L, C1)
        assert two == one.scale(2) and two != one
        assert bracket_master(L, L, AlgebraCtx(0)) != one
        assert bracket_master(L, L, C1) is one
    assert len(formula_calls) == 3


def test_memo_is_closed_outside_the_context(formula_calls):
    bracket_master(L, L, C1)
    bracket_master(L, L, C1)
    assert len(formula_calls) == 2
    with bracket_memo():
        bracket_master(L, L, C1)
        with bracket_memo():
            bracket_master(L, L, C1)
        bracket_master(L, L, C1)
    assert len(formula_calls) == 3
    bracket_master(L, L, C1)
    assert len(formula_calls) == 4 and brackets._memo is None


def test_registry_opens_one_memo_per_check(monkeypatch, formula_calls):
    monkeypatch.setattr(verify, "CHECKS", dict(CHECKS))
    monkeypatch.setattr(verify, "GROUP_OF", dict(verify.GROUP_OF))
    seen = []

    # The probes are generators, as every check is: seen == [True] holds
    # only if the harness runs the generator inside the memo.
    @verify._register("memo-probe", "brackets")
    def probe(bounds, ctx):
        seen.append(brackets._memo is not None)
        yield "memo-probe", "L, L", bracket_master(L, L, ctx), bracket_master(L, L, ctx)

    @verify._register("memo-raise", "brackets")
    def raises(bounds, ctx):
        yield "memo-raise", "L", bracket_master(L, L, ctx), None, True
        raise RuntimeError("boom")

    rep = verify.CHECKS["memo-probe"](SMALL, C1)
    assert seen == [True] and len(formula_calls) == 1
    assert rep.ok and len(rep.records) == 1
    assert brackets._memo is None
    with pytest.raises(RuntimeError):
        verify.CHECKS["memo-raise"](SMALL, C1)
    assert brackets._memo is None
    bracket_master(L, L, C1)
    bracket_master(L, L, C1)
    assert len(formula_calls) == 4


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_memo_changes_no_record(monkeypatch, name):
    for charge in (0, 1, -2):
        ctx = AlgebraCtx(charge)
        cached = CHECKS[name](SMALL, ctx).to_jsonable(include_passes=True)
        with monkeypatch.context() as m:
            m.setattr(verify, "bracket_memo", contextlib.nullcontext)
            plain = CHECKS[name](SMALL, ctx).to_jsonable(include_passes=True)
        assert cached == plain


def test_jacobi_runs_the_formula_once_per_distinct_pair(formula_calls):
    # 3,351 bracket_master calls at default bounds and c=1 meet 1,027
    # distinct argument pairs; without the registry's memo every call
    # runs the master formula.
    rep = CHECKS["jacobi"](Bounds(), C1)
    assert rep.ok
    assert len(formula_calls) <= 1027
