"""The per-check bracket memo: what it keys on, where it is open,
and that it changes no result."""

import contextlib
import weakref

import pytest

from virmagri import AlgebraCtx, DiffPoly, brackets, verify
from virmagri.brackets import bracket_master, bracket_memo, bracket_recursive
from virmagri.partitions import partitions_upto
from virmagri.verify import CHECKS, Bounds

SMALL = Bounds(max_n=4, max_j=2, max_deg=3)
L = DiffPoly.gen(0)
C1 = AlgebraCtx(1)


class _Builds:
    """The f sides built since it was made, in either order, read from
    brackets.counts: len() is the count so far."""

    def __init__(self):
        self.start = self._built()

    @staticmethod
    def _built():
        return brackets.counts["merged"] + brackets.counts["per-partial"]

    def __len__(self):
        return self._built() - self.start


@pytest.fixture
def builds():
    return _Builds()


def test_memo_keys_on_coefficients(builds):
    # 2L is an f side of its own; L at charge 0 reuses the one of L at 1.
    with bracket_memo():
        one = bracket_master(L, L, C1)
        two = bracket_master(2 * L, L, C1)
        assert two == one.scale(2) and two != one
        assert bracket_master(L, L, AlgebraCtx(0)) != one
        assert len(builds) == 2
        assert bracket_master(L, L, C1) == one
    assert len(builds) == 2


def test_memo_is_closed_outside_the_context(builds):
    bracket_master(L, L, C1)
    bracket_master(L, L, C1)
    assert len(builds) == 2
    with bracket_memo():
        bracket_master(L, L, C1)
        with bracket_memo():
            bracket_master(L, L, C1)
        bracket_master(L, L, C1)
    assert len(builds) == 3
    bracket_master(L, L, C1)
    assert len(builds) == 4 and brackets._memo is None


def test_registry_opens_one_memo_per_check(monkeypatch, builds):
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
    assert seen == [True] and len(builds) == 1
    assert rep.ok and len(rep.records) == 1
    assert brackets._memo is None
    with pytest.raises(RuntimeError):
        verify.CHECKS["memo-raise"](SMALL, C1)
    assert brackets._memo is None
    bracket_master(L, L, C1)
    bracket_master(L, L, C1)
    assert len(builds) == 4


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_memo_changes_no_record(monkeypatch, name):
    for charge in (0, 1, -2):
        ctx = AlgebraCtx(charge)
        cached = CHECKS[name](SMALL, ctx).records
        with monkeypatch.context() as m:
            m.setattr(verify, "bracket_memo", contextlib.nullcontext)
            plain = CHECKS[name](SMALL, ctx).records
        assert cached == plain


def test_jacobi_builds_one_f_side_per_distinct_left_operand(monkeypatch, builds):
    # At default bounds and c=1 jacobi makes 3,351 bracket_master calls on
    # 1,027 distinct argument pairs, which hold 339 distinct (f terms, w).
    lefts = set()
    master = brackets.bracket_master

    def seen(f, g, ctx):
        w = (max(map(len, f.terms), default=0) + max(map(len, g.terms), default=0)
             + 1).bit_length()
        lefts.add((frozenset(f.terms.items()), w))
        return master(f, g, ctx)

    monkeypatch.setattr(brackets, "bracket_master", seen)
    rep = CHECKS["jacobi"](Bounds(), C1)
    assert rep.ok
    assert len(builds) == len(lefts) == 339


def test_one_store_serves_every_width_and_charge():
    # One f side per (f, w), shared by all three charges in one memo: L
    # meets g's that put w at 2 and 4, L^7 g's that put it at 4 and 5.
    dL = DiffPoly.gen(1)
    fs, gs = (L, L ** 7), (dL, dL * L ** 6, L ** 8)
    ctxs = [AlgebraCtx(c) for c in (0, 1, -2)]
    want = {(i, j, ctx): bracket_recursive(f, g, ctx)
            for i, f in enumerate(fs) for j, g in enumerate(gs) for ctx in ctxs}
    with bracket_memo():
        for ctx in ctxs:
            for i, f in enumerate(fs):
                for j, g in enumerate(gs):
                    assert bracket_master(f, g, ctx) == want[i, j, ctx]
        assert {w for _, w in brackets._memo} == {2, 4, 5}
        assert len(brackets._memo) == 4


def test_memo_holds_only_f_sides():
    # Keys (f terms, w), each value the powers {t: packed terms}: every t
    # of the g side, up to the top order of g plus 1, and plus 3 where the
    # charge is not 0.
    dL = DiffPoly.gen(1)
    f = L * dL
    with bracket_memo():
        for c in (1, -2):
            bracket_master(f, L * f, AlgebraCtx(c))
            bracket_master(L, dL, AlgebraCtx(c))
        assert set(brackets._memo) == {(frozenset(g.terms.items()), w)
                                       for g, w in ((f, 3), (L, 2))}
        assert set(brackets._memo[frozenset(f.terms.items()), 3]) == {0, 1, 2, 3, 4}
        assert set(brackets._memo[frozenset(L.terms.items()), 2]) == {0, 1, 2, 4}


def test_rows_die_with_their_f_side_call(monkeypatch):
    # Each _Rows lives inside one _f_side call, which makes one only to
    # build an f side or add a power: the g-side pass runs without rows.
    refs = []

    class Rows(brackets._Rows):
        def __init__(self, w):
            super().__init__(w)
            refs.append(weakref.ref(self))

    f_side = brackets._f_side

    def checked(*args):
        out = f_side(*args)
        assert all(r() is None for r in refs)
        return out

    monkeypatch.setattr(brackets, "_Rows", Rows)
    monkeypatch.setattr(brackets, "_f_side", checked)
    dL = DiffPoly.gen(1)
    bracket_master(L, L, C1)
    assert len(refs) == 1
    with bracket_memo():
        bracket_master(L, L, C1)  # builds Phi_L with powers 1 and 3
        bracket_master(L, dL, C1)  # adds powers 2 and 4
        bracket_master(L, dL + L, C1)  # has powers 0 to 4
        assert len(refs) == 3
    assert all(r() is None for r in refs)


def test_repeated_pair_builds_no_row(monkeypatch):
    # A pair met again finds its f side and every power it needs: only
    # the g-side product pass runs, and it reads no derivative row.
    built = []
    missing = brackets._Rows.__missing__
    monkeypatch.setattr(brackets._Rows, "__missing__",
                        lambda self, key: built.append(key) or missing(self, key))
    f, g = DiffPoly.gen(2) * L + L ** 3, DiffPoly.gen(3) * L ** 2
    with bracket_memo():
        first = bracket_master(f, g, C1)
        assert built
        built.clear()
        assert bracket_master(f, g, C1) == first
        assert built == []
    assert first == bracket_recursive(f, g, C1)


def test_memo_builds_each_f_side_once(monkeypatch, builds):
    # The 30 smallest monomials after the unit, up to degree 7, at three
    # charges in one memo: each (f, w) is built once for all of them.
    monos = [tuple(v - 1 for v in p.parts) for p in partitions_upto(7)][1:31]
    ctxs = [AlgebraCtx(c) for c in (1, 0, -2)]
    with bracket_memo():
        got = {(a, b, ctx): bracket_master(DiffPoly.monomial(a), DiffPoly.monomial(b), ctx)
               for ctx in ctxs for a in monos for b in monos}
    widths = {(a, (len(a) + len(b) + 1).bit_length()) for a in monos for b in monos}
    assert len(monos) == 30
    assert len(builds) == len(widths) < len(got) // len(ctxs)
    monkeypatch.undo()
    for (a, b, ctx), br in got.items():
        assert br == bracket_master(DiffPoly.monomial(a), DiffPoly.monomial(b), ctx)


def test_store_is_dropped_on_exit():
    with bracket_memo():
        bracket_master(L, L, C1)
        assert brackets._memo
    assert brackets._memo is None
    with pytest.raises(RuntimeError):
        with bracket_memo():
            bracket_master(L, L * L, C1)
            raise RuntimeError("boom")
    assert brackets._memo is None
