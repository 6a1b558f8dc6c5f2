import random
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from helpers import diffpoly_st, mono_st
from virmagri import (
    AlgebraCtx,
    DiffPoly,
    DomainError,
    LambdaPoly,
    bracket_master,
    bracket_recursive,
    conformal_weight,
    gen_bracket,
    hamiltonian,
    hamiltonian_defects,
    jacobi_defect,
    nth_product,
    partitions_of,
    partitions_upto,
    skew_defect,
)
from virmagri import brackets
from virmagri.brackets import BiLambdaPoly, _Rows, _flip, _leaf, _pack, _shift_sums, _unpack, _wrap
from virmagri.diffpoly import _derive_row, derive_terms, mono_degree

C0 = AlgebraCtx(0)
C1 = AlgebraCtx(1)
CM2 = AlgebraCtx(-2)
CHARGES = [C0, C1, CM2]

L = DiffPoly.gen(0)
dL = DiffPoly.gen(1)
d2L = DiffPoly.gen(2)


def test_gen_bracket_known_values():
    assert gen_bracket(C0) == LambdaPoly({0: dL, 1: 2 * L})
    assert gen_bracket(C1) == LambdaPoly({0: dL, 1: 2 * L, 3: DiffPoly.one()})
    assert gen_bracket(CM2) == LambdaPoly({0: dL, 1: 2 * L, 3: DiffPoly.const(-2)})


def test_shift_apply_known_values():
    base = LambdaPoly.of(L)
    assert base.shift_apply(1) == LambdaPoly({0: dL, 1: L})
    assert base.shift_apply(0) == base
    assert base.shift_apply(2) == LambdaPoly({0: d2L, 1: 2 * dL, 2: L})


def stepwise_shift(P: LambdaPoly, m: int, sign: int) -> LambdaPoly:
    """(sign*(lambda + d))^m as m single steps lambda^k P -> lambda^(k+1) P + lambda^k dP."""
    for _ in range(m):
        out = LambdaPoly.zero()
        for k, p in P.terms.items():
            out = out + LambdaPoly({k + 1: p}) + LambdaPoly({k: p.derive()})
        P = out
    return P.scale(sign**m)


@given(st.dictionaries(st.integers(0, 4), diffpoly_st(5), max_size=4), st.integers(0, 10))
def test_shift_apply_matches_stepwise_model(terms, m):
    P = LambdaPoly(terms)
    assert P.shift_apply(m) == stepwise_shift(P, m, 1)


@given(st.dictionaries(st.integers(0, 4), diffpoly_st(5), max_size=4),
       st.sets(st.integers(0, 12), max_size=5))
def test_shifts_match_stepwise_model(terms, ms):
    # Several orders at once, as bracket_master's f side asks for them.
    # Orders up to 12 run past the vanishing derivative of a low-degree
    # coefficient, so a chain stops early while larger m are still open.
    P = LambdaPoly(terms)
    got = _shift_sums(P._plain(), ms, _derive_row)
    assert sorted(got) == sorted(ms)
    for m in ms:
        assert _wrap(got[m]) == stepwise_shift(P, m, 1)


def _count_derive_steps(monkeypatch) -> list:
    """Count the calls of the derivative loop made through brackets."""
    calls = []
    monkeypatch.setattr(brackets, "derive_terms",
                        lambda *args: calls.append(1) or derive_terms(*args))
    return calls


def test_shifts_take_one_derivative_chain(monkeypatch):
    calls = _count_derive_steps(monkeypatch)
    # The constant's chain ends after one step, below every order asked for.
    P = LambdaPoly({0: L * L, 2: dL, 3: DiffPoly.const(5)})
    got = _shift_sums(P._plain(), (1, 4, 9), _derive_row)
    assert 0 < len(calls) <= 9 + 9 + 1
    monkeypatch.undo()
    assert {m: _wrap(s) for m, s in got.items()} == {m: stepwise_shift(P, m, 1)
                                                    for m in (1, 4, 9)}
    assert _shift_sums({}, (3,), _derive_row) == {3: {}}
    assert _shift_sums(P._plain(), (), _derive_row) == {}


def test_shift_apply_takes_one_derivative_chain(monkeypatch):
    calls = _count_derive_steps(monkeypatch)
    got = LambdaPoly.of(L).shift_apply(1500)
    assert 0 < len(calls) <= 1500
    monkeypatch.undo()
    assert got == LambdaPoly({1500 - k: DiffPoly.gen(k) * comb(1500, k) for k in range(1501)})


def test_shifts_build_binomials_only_where_a_chain_reaches():
    # The chain of a constant stops at once, so 3,001 orders cost one
    # binomial each.  Building each row C(m, 0..m) in full makes about 4.5
    # million big-integer comb calls here: minutes, and over 500 MB.
    start = time.perf_counter()
    got = _shift_sums({0: {(): 1}}, range(3001), _derive_row)
    assert time.perf_counter() - start < 2
    assert got == {m: {m: {(): 1}} for m in range(3001)}


def test_bracket_master_on_many_orders():
    # The g side asks for every power t up to the top order of g plus 3.
    # d3L L against all of d1L..d200L gives 723,150 terms and takes the
    # oracle 13-19 s a charge, so it meets the dense orders up to d30L
    # and two high ones.
    dense_g = sum((DiffPoly.gen(k) for k in range(1, 201)), DiffPoly.zero())
    sparse_g = sum((DiffPoly.gen(k) for k in [*range(1, 31), 100, 200]), DiffPoly.zero())
    for ctx in CHARGES:
        assert bracket_master(L, dense_g, ctx) == bracket_recursive(L, dense_g, ctx)
        f = DiffPoly.gen(3) * L
        assert bracket_master(f, sparse_g, ctx) == bracket_recursive(f, sparse_g, ctx)


def _flip_model(P: LambdaPoly) -> LambdaPoly:
    """-P with lambda -> -lambda-d, each lambda^k p taken by k single steps."""
    out = LambdaPoly.zero()
    for k, p in P.terms.items():
        out = out - stepwise_shift(LambdaPoly.of(p), k, -1)
    return out


@given(st.dictionaries(st.integers(0, 6), diffpoly_st(5), max_size=4))
def test_oracle_flip_matches_stepwise_model(terms):
    P = LambdaPoly(terms)
    assert _flip(P) == _flip_model(P)


@pytest.mark.parametrize("ctx", CHARGES)
def test_oracle_leaf_matches_stepwise_model(ctx):
    for i in range(6):
        for j in range(6):
            want = stepwise_shift(gen_bracket(ctx), j, 1).lambda_shift(i, -1)
            assert _leaf(i, j, ctx) == want


def _oracle_gate_inputs():
    """Every monomial pair of total degree at most 6, and 20 seeded
    3-term polynomial pairs."""
    monos = [tuple(v - 1 for v in p.parts) for p in partitions_upto(6)]
    pairs = [(DiffPoly.monomial(a), DiffPoly.monomial(b)) for a in monos for b in monos
             if mono_degree(a) + mono_degree(b) <= 6]
    rng = random.Random(20261018)

    def poly():
        return DiffPoly({rng.choice(monos[1:]): rng.choice([-3, -2, -1, 1, 2, 5])
                         for _ in range(3)})

    return pairs + [(poly(), poly()) for _ in range(20)]


def test_oracle_runs_without_the_shift_methods(monkeypatch):
    inputs = _oracle_gate_inputs()
    want = {(i, ctx): bracket_master(f, g, ctx)
            for i, (f, g) in enumerate(inputs) for ctx in CHARGES}

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran a LambdaPoly shift method")

    for name in ("shift_apply", "subst_neg_shift"):
        monkeypatch.setattr(LambdaPoly, name, refuse)
    for i, (f, g) in enumerate(inputs):
        for ctx in CHARGES:
            assert bracket_recursive(f, g, ctx) == want[i, ctx]


def test_oracle_memo_lives_for_one_call():
    f, g = dense(3) + d2L, dense(2, 4)
    want = {ctx: bracket_master(f, g, ctx) for ctx in CHARGES}
    for first, second in ((C1, CM2), (CM2, C0), (C0, C1)):
        assert bracket_recursive(f, g, first) == want[first]
        assert bracket_recursive(f, g, second) == want[second]


def test_lambda_shift_signs():
    base = LambdaPoly({0: L, 2: dL})
    assert base.lambda_shift(1, -1) == LambdaPoly({1: -L, 3: -dL})
    assert base.lambda_shift(2, -1) == LambdaPoly({2: L, 4: dL})


def test_negative_exponents_are_refused():
    # A negative power of lambda has no text form that parses back, and
    # (lambda + d)^m has no meaning for m < 0.
    base = LambdaPoly({0: L, 2: dL})
    for sign in (1, -1):
        with pytest.raises(DomainError):
            base.lambda_shift(-1, sign)
    with pytest.raises(DomainError):
        base.shift_apply(-1)


@given(diffpoly_st(6))
def test_subst_neg_shift_is_an_involution(f):
    P = LambdaPoly({0: f, 1: f.derive(), 2: f})
    assert P.subst_neg_shift().subst_neg_shift() == P


def test_bracket_master_known_values():
    for ctx in CHARGES:
        assert bracket_master(L, L, ctx) == gen_bracket(ctx)
        assert bracket_master(DiffPoly.one(), L * L, ctx).is_zero()
        assert bracket_master(L * L, DiffPoly.one(), ctx).is_zero()
    # hand expansion of the order-one pair
    want = LambdaPoly({1: -d2L, 2: -3 * dL, 3: -2 * L, 5: DiffPoly.const(-1)})
    assert bracket_master(dL, dL, C1) == want
    # product rule in the right slot
    want = LambdaPoly({0: 2 * DiffPoly.monomial((1, 0)), 1: 4 * L * L, 3: 2 * L})
    assert bracket_master(L, L * L, C1) == want


def test_bracket_recursive_known_values():
    for ctx in CHARGES:
        assert bracket_recursive(L, L, ctx) == gen_bracket(ctx)
        assert bracket_recursive(DiffPoly.one(), L, ctx).is_zero()
        assert bracket_recursive(L, DiffPoly.one(), ctx).is_zero()
    assert bracket_recursive(dL, dL, CM2) == bracket_master(dL, dL, CM2)


@given(diffpoly_st(8), diffpoly_st(8))
@settings(max_examples=40)
def test_bracket_oracle_agreement_random(f, g):
    for ctx in CHARGES:
        assert bracket_master(f, g, ctx) == bracket_recursive(f, g, ctx)


def dense(d: int, c0: int = 1) -> DiffPoly:
    """Every monomial of degree d, with distinct coefficients of both signs."""
    return DiffPoly({tuple(v - 1 for v in p.parts): (-1) ** i * (i + c0)
                     for i, p in enumerate(partitions_of(d))})


@pytest.mark.parametrize("d", range(1, 7))
def test_bracket_master_matches_oracle_on_dense_input(d):
    # Every derivative order up to d - 1 is present on both sides, so the
    # sum over the orders of f is taken over many summands at once.
    mixed = dense(d) + dense(d - 1, 3) + dense(d - 3, -2)
    for ctx in CHARGES:
        for f, g in ((dense(d), dense(d, 2)), (mixed, dense(7 - d)), (mixed, mixed)):
            assert bracket_master(f, g, ctx) == bracket_recursive(f, g, ctx)


def test_bracket_master_edge_cases():
    one_order = 3 * DiffPoly.monomial((2, 2, 2)) - 5 * d2L
    h = dense(4) + dense(2, 5)
    for ctx in CHARGES:
        for f in (DiffPoly.zero(), DiffPoly.const(7), dense(5)):
            assert bracket_master(DiffPoly.const(-4), f, ctx).is_zero()
            assert bracket_master(f, DiffPoly.const(-4), ctx).is_zero()
        for f, g in ((one_order, dense(4)), (dense(4), one_order), (one_order, one_order)):
            assert bracket_master(f, g, ctx) == bracket_recursive(f, g, ctx)
        # A total derivative: its partials cancel against each other in
        # the sum over orders, leaving {dh_lam g} = -lam {h_lam g} and
        # {g_lam dh} = (lam + d) {g_lam h}.
        dh = h.derive()
        assert bracket_master(dh, h, ctx) == bracket_recursive(dh, h, ctx)
        assert bracket_master(dh, h, ctx) == bracket_master(h, h, ctx).lambda_shift(1, -1)
        assert bracket_master(dh, h, ctx).coeff(0).is_zero()
        assert bracket_master(h, dh, ctx) == bracket_recursive(h, dh, ctx)
        assert bracket_master(h, dh, ctx) == bracket_master(h, h, ctx).shift_apply(1)


def test_bracket_master_derive_budget(monkeypatch):
    # The kernel derives on its own packed rows, never through
    # DiffPoly.derive; test_kernel_derive_budget bounds its steps.
    derive = DiffPoly.derive
    for d in (8, 10):
        f, g = dense(d), dense(d, 2)
        calls = []
        monkeypatch.setattr(DiffPoly, "derive", lambda self: calls.append(1) or derive(self))
        got = bracket_master(f, g, C1)
        assert calls == []
        monkeypatch.undo()
        assert got == -bracket_master(g, f, C1).subst_neg_shift()

def test_nth_product_known_values():
    for ctx in CHARGES:
        assert nth_product(L, L, 1, ctx) == 2 * L
        assert nth_product(L, L, 3, ctx) == DiffPoly.const(6 * ctx.central_charge)
    assert nth_product(dL, dL, 1, C0) == -d2L


def test_skew_defect_known_cases():
    assert skew_defect(L, L, C1).is_zero()
    assert skew_defect(L, dL, C1).is_zero()
    assert skew_defect(L * L, dL * L, CM2).is_zero()


@given(mono_st(5), mono_st(3))
def test_skew_defect_vanishes(a, b):
    for ctx in CHARGES:
        assert skew_defect(DiffPoly.monomial(a), DiffPoly.monomial(b), ctx).is_zero()


def test_jacobi_defect_known_cases():
    assert jacobi_defect(L, L, L, C1).is_zero()
    assert jacobi_defect(DiffPoly.one(), dL, L * L, CM2).is_zero()
    assert jacobi_defect(L, dL, L * L, C1).is_zero()


def test_jacobi_defect_values_of_a_perturbed_bracket(monkeypatch):
    # With lambda*L added to every bracket the Jacobi identity fails; the
    # defect must still be the three terms' sum, which the model builds
    # with Sparse arithmetic, one acc per term.
    def perturbed(f, g, ctx):
        return bracket_recursive(f, g, ctx) + LambdaPoly({1: L})

    def acc(d, k, c):
        # d[k] += c; a sum that cancels stays in d for BiLambdaPoly to drop.
        cur = d.get(k)
        d[k] = c if cur is None else cur + c

    def model(a, b, c, ctx):
        out: dict = {}
        for j, w in perturbed(b, c, ctx).terms.items():
            for i, v in perturbed(a, w, ctx).terms.items():
                acc(out, (i, j), v)
        for i, v in perturbed(a, c, ctx).terms.items():
            for j, w in perturbed(b, v, ctx).terms.items():
                acc(out, (i, j), -w)
        for k, v in perturbed(a, b, ctx).terms.items():
            for l, w in perturbed(v, c, ctx).terms.items():
                for r in range(l + 1):
                    acc(out, (k + r, l - r), w * -comb(l, r))
        return BiLambdaPoly(out)

    triples = [(L, L, L), (L, dL, L * L), (dL * L, L, d2L), (L ** 2, dL, L - 3 * d2L)]
    want = {(i, ctx): model(a, b, c, ctx) for i, (a, b, c) in enumerate(triples)
            for ctx in CHARGES}
    assert all(want.values())
    monkeypatch.setattr(brackets, "bracket_master", perturbed)
    for i, (a, b, c) in enumerate(triples):
        for ctx in CHARGES:
            assert jacobi_defect(a, b, c, ctx) == want[i, ctx]


@given(mono_st(3), mono_st(2), mono_st(2))
@settings(max_examples=30)
def test_jacobi_defect_vanishes(a, b, c):
    for ctx in CHARGES:
        d = jacobi_defect(DiffPoly.monomial(a), DiffPoly.monomial(b), DiffPoly.monomial(c), ctx)
        assert d.is_zero()


@given(diffpoly_st(6), diffpoly_st(5))
@settings(max_examples=30)
def test_sesquilinearity(f, g):
    for ctx in CHARGES:
        base = bracket_master(f, g, ctx)
        assert bracket_master(f.derive(), g, ctx) == base.lambda_shift(1, -1)
        assert bracket_master(f, g.derive(), ctx) == base.shift_apply(1)


@given(diffpoly_st(3), diffpoly_st(3), diffpoly_st(3))
@settings(max_examples=30)
def test_bracket_leibniz(a, b, c):
    for ctx in CHARGES:
        lhs = bracket_master(a, b * c, ctx)
        rhs = bracket_master(a, c, ctx).scale(b) + bracket_master(a, b, ctx).scale(c)
        assert lhs == rhs


def test_hamiltonian_known_cases():
    got = hamiltonian_defects((0,), (0,), C1)
    assert sorted(got) == [0, 1, 3] and all(d.is_zero() for d in got.values())
    got = hamiltonian_defects((1,), (0, 0), C1)
    assert sorted(got) == [1, 2, 4] and all(d.is_zero() for d in got.values())
    assert hamiltonian(2 * L + DiffPoly.const(7)) == 4 * L
    assert hamiltonian(DiffPoly.monomial((1, 0))) == 5 * DiffPoly.monomial((1, 0))


@given(mono_st(4), mono_st(4))
@settings(max_examples=40)
def test_hamiltonian_defect_vanishes(a, b):
    for ctx in CHARGES:
        assert all(d.is_zero() for d in hamiltonian_defects(a, b, ctx).values())


def test_hamiltonian_defects_one_bracket_for_all_n():
    monos = [tuple(v - 1 for v in p.parts) for p in partitions_upto(4)]
    for ctx in CHARGES:
        for a in monos:
            for b in monos:
                fa, fb = DiffPoly.monomial(a), DiffPoly.monomial(b)
                got = hamiltonian_defects(a, b, ctx)
                assert list(got) == sorted(bracket_master(fa, fb, ctx).terms)
                weight = conformal_weight(a) + conformal_weight(b)
                for n, d in got.items():
                    prod = nth_product(fa, fb, n, ctx)
                    assert d == hamiltonian(prod) - prod * (weight - n - 1)


def test_all_bracket_coefficients_are_integers():
    f = 3 * DiffPoly.monomial((2, 1, 0)) - DiffPoly.monomial((1, 1))
    g = DiffPoly.monomial((3,)) + 2 * DiffPoly.monomial((0, 0))
    br = bracket_master(f, g, CM2)
    for p in br.terms.values():
        assert all(isinstance(c, int) for c in p.terms.values())


def test_lambda_poly_equality_and_arithmetic():
    P = LambdaPoly({0: L, 2: dL})
    Q = LambdaPoly({2: dL})
    assert P - Q == LambdaPoly({0: L})
    assert (P - P).is_zero()
    assert P.coeff(2) == dL
    assert P.coeff(5) == DiffPoly.zero()
    assert P.scale(2) == LambdaPoly({0: 2 * L, 2: 2 * dL})


def _width_gate_inputs():
    """Operand pairs whose F + G + 1 (F, G the most factors of a monomial
    of each side) sits at and just past 2^w for w = 2..5, where
    bracket_master's packed fields widen, and at 2^w + 2, where the
    F + G - 1 factors of L^(F+G-1) first need w + 1 bits.  L^a puts every
    factor in one field, and d2L L^(b-1) spreads them over two."""
    pairs = []
    for w in range(2, 6):
        for total in (2 ** w, 2 ** w + 1, 2 ** w + 2):
            a = (total - 1) // 2
            b = total - 1 - a
            pairs.append((L ** a, L ** b))
            if b > 1:
                pairs.append((L ** a, d2L * L ** (b - 1) + 3 * dL * L ** (b - 2)))
    return pairs


@pytest.mark.parametrize("f,g", _width_gate_inputs())
def test_kernel_matches_oracle_where_fields_widen(f, g):
    for ctx in CHARGES:
        assert bracket_master(f, g, ctx) == bracket_recursive(f, g, ctx)


def test_kernel_matches_oracle_on_high_orders():
    # dkL^2 and d1L dkL against dkL: wide packed keys and long derivative
    # chains, past the total degree 8 that the sweeps' oracle cases reach.
    cases = [(k, ctx) for k in (20, 40) for ctx in CHARGES] + [(60, C1)]
    for k, ctx in cases:
        dk = DiffPoly.gen(k)
        for f in (dk * dk, dL * dk):
            assert bracket_master(f, dk, ctx) == bracket_recursive(f, dk, ctx), (k, ctx)


def test_kernel_matches_oracle_on_zero_unit_and_constants():
    trivial = [DiffPoly.zero(), DiffPoly.one(), DiffPoly.const(-3)]
    others = trivial + [L, d2L * L ** 3 - 2 * dL, DiffPoly.const(2) + L]
    for ctx in CHARGES:
        for f in trivial:
            for g in others:
                assert bracket_master(f, g, ctx).is_zero()
                assert bracket_master(g, f, ctx).is_zero()
                assert bracket_recursive(f, g, ctx).is_zero()
                assert bracket_recursive(g, f, ctx).is_zero()
        for f in others[3:]:
            for g in others[3:]:
                assert bracket_master(f, g, ctx) == bracket_recursive(f, g, ctx)


def test_oracle_runs_without_the_kernel(monkeypatch):
    inputs = _oracle_gate_inputs() + _width_gate_inputs()[:6]
    want = {(i, ctx): bracket_master(f, g, ctx)
            for i, (f, g) in enumerate(inputs) for ctx in CHARGES}

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran bracket_master's kernel")

    # Every private callable of the module is refused but the oracle's own
    # code and the shared lambda-sum helpers, so a kernel helper added
    # later is refused without an edit here.
    allowed = {"_leaf", "_flip", "_mono_bracket", "_add_into", "_strip", "_wrap",
               "_check_exponent"}
    refused = {name for name, v in vars(brackets).items()
               if name.startswith("_") and not name.startswith("__") and callable(v)
               and name not in allowed} | {"derive_terms"}
    assert {"_f_side", "_products", "_shift_sums", "_neg_shift_sums", "_pack", "_unpack",
            "_packed_partials", "_Rows"} <= refused
    for name in refused:
        monkeypatch.setattr(brackets, name, refuse)
    for i, (f, g) in enumerate(inputs):
        for ctx in CHARGES:
            assert bracket_recursive(f, g, ctx) == want[i, ctx]


def test_kernel_derive_budget(monkeypatch):
    # One derivative chain per coefficient for all orders of g at once,
    # each step one derive_terms call on the kernel's packed rows: about
    # 115 calls at d = 8 and 174 at d = 10, against 339 and 624 with one
    # chain per order of g, and 1,571 at d = 8 when every pair of orders
    # (m, n) ran its own chains.
    for d, budget in ((8, 130), (10, 200)):
        f, g = dense(d), dense(d, 2)
        calls = _count_derive_steps(monkeypatch)
        got = bracket_master(f, g, C1)
        assert 0 < len(calls) <= budget
        monkeypatch.undo()
        assert got == -bracket_master(g, f, C1).subst_neg_shift()


@given(diffpoly_st(7, 4))
def test_derive_terms_agrees_across_row_sources(f):
    # The one derivative loop, fed packed rows of the width a kernel call
    # on f alone would take, gives DiffPoly.derive's result.
    w = (max(map(len, f.terms), default=0) + 1).bit_length()
    packed = {_pack(m, w): c for m, c in f.terms.items()}
    rows = _Rows(w)
    got = derive_terms(packed, rows.__getitem__)
    assert all(got.values())
    assert DiffPoly({_unpack(m, w): c for m, c in got.items()}) == f.derive()
    built = dict(rows)
    assert derive_terms(packed, rows.__getitem__) == got
    assert rows == built


def test_kernel_keeps_nothing_between_calls():
    # Back to back at other charges and other field widths: the derivative
    # rows of one call must not reach the next.  The first two both derive
    # L, whose packed key is 1 at every width but whose derivative's key
    # is 2^w: w is 2 in the first and 4 in the second.
    cases = [(L, dL), (L, dL * L ** 6), (dense(3) + d2L, dense(2, 4)), (L ** 7, L ** 8)]
    want = {(i, ctx): bracket_recursive(f, g, ctx)
            for i, (f, g) in enumerate(cases) for ctx in CHARGES}
    for first, second in ((C1, CM2), (CM2, C0), (C0, C1)):
        for i, (f, g) in enumerate(cases):
            assert bracket_master(f, g, first) == want[i, first]
            assert bracket_master(f, g, second) == want[i, second]
