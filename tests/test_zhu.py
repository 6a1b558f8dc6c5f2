import json

from hypothesis import given, settings

from helpers import diffpoly_st, partition_st
from virmagri import (
    AlgebraCtx,
    DiffPoly,
    K0NElem,
    K0SigmaElem,
    XPoly,
    bracket_master,
    ind_k0n,
    nabla,
    phi_n_inv,
    phi_sigma,
    pj_ind,
    q_map,
    res_k0n,
    zhu_h,
    zhu_poisson_bracket,
)
from virmagri.report import CheckReport
from virmagri.verify import CHECKS, Bounds

C0 = AlgebraCtx(0)
C1 = AlgebraCtx(1)

L = DiffPoly.gen(0)
dL = DiffPoly.gen(1)


def test_zhu_h_known_values():
    assert zhu_h(L ** 3) == XPoly.monomial(3)
    assert zhu_h(dL).is_zero()
    assert zhu_h(L * L * DiffPoly.gen(3) + 2 * L) == 2 * XPoly.x()
    assert zhu_h(DiffPoly.one()) == XPoly.one()


def test_q_map_known_values():
    assert q_map(L * dL * dL) == XPoly.x()
    assert q_map(DiffPoly.gen(2)).is_zero()
    assert q_map(L * L + dL) == XPoly({2: 1, 0: 1})


@given(diffpoly_st(8), diffpoly_st(8))
def test_both_maps_are_ring_homomorphisms(f, g):
    assert zhu_h(f * g) == zhu_h(f) * zhu_h(g)
    assert q_map(f * g) == q_map(f) * q_map(g)


@given(diffpoly_st(8))
def test_zhu_kills_derivatives_and_q_intertwines(f):
    assert zhu_h(f.derive()).is_zero()
    assert q_map(f.derive()) == q_map(f).derivative()


def test_q_intertwines_derivative_on_all_small_monomials():
    from virmagri import partitions_upto

    for p in partitions_upto(10):
        f = DiffPoly.monomial(tuple(v - 1 for v in p.parts))
        assert q_map(f.derive()) == q_map(f).derivative()
        assert zhu_h(f.derive()).is_zero()


def test_zhu_poisson_bracket_is_trivial_known_cases():
    assert zhu_poisson_bracket(L, L, C1).is_zero()
    assert zhu_poisson_bracket(DiffPoly.one(), L * L, C1).is_zero()
    assert zhu_poisson_bracket(L * L, L, C1).is_zero()


@given(diffpoly_st(5), diffpoly_st(3))
@settings(max_examples=30)
def test_zhu_poisson_bracket_is_trivial(f, g):
    for ctx in (C0, C1):
        assert zhu_poisson_bracket(f, g, ctx).is_zero()
        assert zhu_h(bracket_master(f, g, ctx).coeff(0)).is_zero()


def test_diagram_sweep_passes_at_both_charges():
    for ctx in (C0, C1):
        rep = CHECKS["zhu-diagrams"](Bounds(max_j=4, max_n=6), ctx)
        assert rep.ok
        names = set(rep.identities())
        assert {"zhu-multiplication", "q-multiplication", "zhu-derivative",
                "q-derivative", "zhu-zeroth-product-generators",
                "zhu-zeroth-product-all"} <= names


def test_diagram_report_is_json_serializable():
    rep = CHECKS["zhu-diagrams"](Bounds(max_j=2, max_n=4), C0)
    assert json.loads(json.dumps(rep.to_jsonable()))["ok"] is True
    records = json.loads(json.dumps([r._asdict() for r in rep.records]))
    assert len(records) == len(rep.records) > 0
    assert all({"identity", "case", "ok", "lhs", "rhs"} <= set(r) for r in records)


def test_report_records_counterexamples():
    rep = CheckReport()
    rep.record("demo", "good case", True)
    rep.record("demo", "bad case", False, "x", "x + 1")
    assert not rep.ok
    assert rep.identities() == {"demo": {"cases": 2, "failed": 1}}
    (bad,) = rep.failures()
    assert (bad.lhs, bad.rhs) == ("x", "x + 1")
    assert any(line.startswith("FAIL demo") for line in rep.summary_lines())


@given(partition_st(7))
def test_k0_cube_multiplication(p):
    def through_zhu(e):
        return phi_n_inv(zhu_h(phi_sigma(e)))

    def through_q(e):
        return phi_n_inv(q_map(phi_sigma(e)))

    e = K0SigmaElem.basis(p)
    for j in range(4):
        lhs = through_zhu(pj_ind(e, j + 1))
        rhs = ind_k0n(through_zhu(e)) if j == 0 else K0NElem.zero()
        assert lhs == rhs
        lhs = through_q(pj_ind(e, j + 1))
        if j == 0:
            rhs = ind_k0n(through_q(e))
        elif j == 1:
            rhs = through_q(e)
        else:
            rhs = K0NElem.zero()
        assert lhs == rhs
    assert through_q(nabla(e)) == res_k0n(through_q(e))
    assert through_zhu(nabla(e)).is_zero()
