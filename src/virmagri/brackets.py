"""The lambda-bracket engine for the rank-one energy-momentum algebra.

A lambda polynomial stores the plain polynomial coefficient of each power
of the formal variable; the n-th product is n! times it, so every value
stays integral.

Two independent evaluators are provided.  bracket_master sums
H_t (lambda+d)^t Phi in one _products pass, the g side H_t from the
partials of g and the charge, the f side (lambda+d)^t Phi from f alone;
an f side is built in the cheaper of two orders, counted before any
arithmetic, both through the one binomial loop _shift_sums.
bracket_recursive reduces by the product rule and skew-symmetry down to
single generators, with its own leaf and skew flip, so a fault in the
shift loop cannot reach both; the sweeps compare the two case by case.

Both add the terms of each lambda power in place into one plain
{monomial: int} dict, wrapped once.  bracket_master packs a monomial into
an int, the count of factors dkL in its w-bit field k, so a product of
monomials is one integer add.  The LambdaPoly shift methods run the same
loop on tuple keys, lambda -> -lambda - d in its neg mode.  Every
derivative step is diffpoly.derive_terms, on DiffPoly's cached rows or a
_Rows of packed ones.  A bracket_memo() shares each left operand's f side
across bracket_master calls and charges; counts tallies the f-side work.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import comb, factorial

from .diffpoly import (AlgebraCtx, DiffPoly, _derive_row, conformal_weight, derive_terms, mono,
                       mono_mul)
from .errors import DomainError
from .sparse import Sparse


class LambdaPoly(Sparse):
    """Finite map from lambda exponent to DiffPoly coefficient."""

    __slots__ = ()

    @classmethod
    def of(cls, f: DiffPoly) -> "LambdaPoly":
        """Embed a plain polynomial as the constant-in-lambda value."""
        return cls({0: f})

    def coeff(self, k: int) -> DiffPoly:
        return self.terms.get(k, DiffPoly.zero())

    def lambda_shift(self, m: int, sign: int = 1) -> "LambdaPoly":
        """Multiply by (sign*lambda)^m, m >= 0; no derivative acts."""
        _check_exponent(m)
        s = -1 if (sign < 0 and m % 2) else 1
        return LambdaPoly._nonzero({k + m: p * s for k, p in self.terms.items()})

    def shift_apply(self, m: int) -> "LambdaPoly":
        """Apply (lambda + d)^m, m >= 0; see _shift_sums."""
        _check_exponent(m)
        return _wrap(_shift_sums(self._plain(), (m,), _derive_row)[m])

    def subst_neg_shift(self) -> "LambdaPoly":
        """Substitute lambda -> -lambda - d; see _shift_sums, neg at t = 0."""
        return _wrap(_shift_sums(self._plain(), (0,), _derive_row, True)[0])

    def _plain(self) -> dict:
        return {k: p.terms for k, p in self.terms.items()}


def _check_exponent(m: int) -> None:
    if m < 0:
        raise DomainError("exponent must be non-negative, got %d" % m)


def _shift_sums(terms: dict, ts, row_of, neg: bool = False) -> dict:
    """{t: {power: {monomial: int}}} of (lambda + d)^t sum_j lambda^j P_j,
    or with neg of (lambda + d)^t sum_j (-lambda - d)^j P_j = sum_j (-1)^j
    (lambda + d)^(t+j) P_j, for every t in ts; terms is {j: P_j}, P_j a
    {monomial: int}, and row_of the row source of each derive_terms step.
    (lambda + d)^e = sum_k C(e,k) lambda^(e-k) d^k: each P_j's chain runs
    once, adding d^k P_j, scaled, into the sum of every t whose e >= k, with
    C(e,k) from C(e,k-1) on first use, in a row per e that chains share."""
    ts = sorted(set(ts), reverse=True)
    out, rows = {t: {} for t in ts}, {}
    for j, p in terms.items():
        e0, s = (j, -1 if j % 2 else 1) if neg else (0, 1)
        chains = [(t + e0, rows.setdefault(t + e0, [1]), out[t]) for t in ts]
        top = ts[0] + e0 if ts else -1
        for k in range(top + 1):
            for e, row, sums in chains:
                if e < k:
                    break
                if k == len(row):
                    row.append(row[-1] * (e - k + 1) // k)
                _add_into(sums, e - k + j - e0, p, s * row[k])
            if k == top or not (p := derive_terms(p, row_of)):
                break
    return out


def _add_into(sums: dict, k, terms: dict, c: int) -> None:
    """sums[k] += c * terms, sums[k] being a plain {monomial: int} dict
    that is built in place and may hold zeros until _wrap."""
    d = sums.get(k)
    if d is None:
        sums[k] = {m: c * v for m, v in terms.items()} if c != 1 else dict(terms)
        return
    get = d.get
    for m, v in terms.items():
        d[m] = get(m, 0) + c * v


def _strip(sums: dict) -> dict:
    """Delete, in place, the zeros of {power: {monomial: int}} sums and
    the powers left empty; return sums."""
    for k in list(sums):
        d = sums[k]
        if 0 in d.values():
            for m in [m for m, c in d.items() if not c]:
                del d[m]
        if not d:
            del sums[k]
    return sums


def _wrap(sums: dict, cls=LambdaPoly):
    """The cls value (LambdaPoly by default) of {key: {monomial: int}} sums
    built in place: each dict is wrapped as it is, its zeros deleted."""
    return cls._nonzero({k: DiffPoly._nonzero(d) for k, d in _strip(sums).items()})


class BiLambdaPoly(Sparse):
    """Finite map from (lambda exponent, mu exponent) to DiffPoly."""

    __slots__ = ()
    __repr__ = object.__repr__  # no text form


def gen_bracket(ctx: AlgebraCtx) -> LambdaPoly:
    """Bracket of the generator with itself: d1L + 2*lambda*L + c*lambda^3."""
    coeffs = {0: DiffPoly.gen(1), 1: 2 * DiffPoly.gen(0)}
    if ctx.central_charge:
        coeffs[3] = DiffPoly.const(ctx.central_charge)
    return LambdaPoly(coeffs)


class _Rows(dict):
    """The derivatives of packed monomials of field width w, built on first
    use as derive_terms reads them, ((key, count), ...): d on the c factors
    dkL adds (2^w - 1) << (w*k), moving one from field k to k + 1, c times."""

    __slots__ = ("w",)

    def __init__(self, w: int):
        super().__init__()
        self.w = w

    def __missing__(self, key: int) -> tuple:
        w, row, x = self.w, [], key
        while x:
            s = (x.bit_length() - 1) // w * w
            n = x >> s
            x -= n << s
            row.append((key + (((1 << w) - 1) << s), n))
        row = self[key] = tuple(row)
        return row


_memo: dict | None = None

# bracket_master's f-side work since import (two adds a call): f sides built
# in each order, kept ones extended or reused, and powers (lambda+d)^t built.
counts = dict.fromkeys(("merged", "per-partial", "extended", "reused", "powers"), 0)


@contextmanager
def bracket_memo():
    """Share bracket_master's f sides (see _f_side) across calls and
    charges until the outermost context exits; a nested context shares
    the dict of the one around it.  A g against a kept f side costs its g
    side, one product pass and any power not yet built.  The dict grows
    with the distinct left operands: span a sweep, not a suite.
    """
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def bracket_master(f: DiffPoly, g: DiffPoly, ctx: AlgebraCtx) -> LambdaPoly:
    """{f_lambda g} = sum_n dg/du^(n) (lambda+d)^n {L_(lambda+d) L} Phi,
    Phi = sum_m (-lambda-d)^m df/du^(m).  The generator bracket's
    coefficients d1L, 2L and c are one generator or a constant, so by the
    Leibniz rule it is sum_t H_t (lambda+d)^t Phi: the g side H_t =
    sum_n dg/du^(n) (C(n,t) + 2 C(n,t-1)) d(n-t+1)L + c dg/du^(t-3) times
    the f side (see _f_side).  Monomials are packed (see _pack) with
    w = (F + G + 1).bit_length() bits a field, F and G the most factors of
    a monomial of f and of g, more than any monomial met can fill."""
    w = (max(map(len, f.terms), default=0) + max(map(len, g.terms), default=0) + 1).bit_length()
    hs: dict = {}
    for n, gn in _packed_partials(g, w).items():
        c1, c0 = 0, 1  # C(n, t - 1), C(n, t)
        for t in range(n + 2):
            d, sh, b = hs.setdefault(t, {}), 1 << (w * (n - t + 1)), c0 + 2 * c1
            for k, v in gn.items():
                d[k + sh] = d.get(k + sh, 0) + b * v
            c1, c0 = c0, c0 * (n - t) // (t + 1)
        if ctx.central_charge:
            _add_into(hs, n + 3, gn, ctx.central_charge)
    sums = _products(_f_side(f, w, _strip(hs)), hs)
    for k, d in sums.items():
        sums[k] = {_unpack(m, w): c for m, c in d.items() if c}
    return _wrap(sums)


def _f_side(f: DiffPoly, w: int, ts) -> dict:
    """{t: (lambda+d)^t Phi} on packed keys of width w for 0 and every t in
    ts, kept in _memo under (f terms, w) in a bracket_memo(), where a later
    call adds any t missing, in the order _f_side_adds counts cheaper:
    merged, a chain per lambda coefficient of Phi, power 0; or per partial,
    (lambda+d)^t Phi = sum_m (-1)^m (lambda+d)^(t+m) df/du^(m), a chain per
    partial for every t.  One neg _shift_sums call over the partials builds
    Phi, or every power per partial; merged, one more builds the rest.  The
    packed rows live for one call, in a _Rows made only if it adds a power.
    """
    powers = ({} if _memo is None else _memo).setdefault((frozenset(f.terms.items()), w), {})
    new = sorted({0, *ts}.difference(powers))
    if not new:
        counts["reused"] += 1
        return powers
    merged, split = _f_side_adds(f, new)
    chained = [t for t in new if not t] if merged <= split else new
    counts["extended" if powers else "merged" if merged <= split else "per-partial"] += 1
    counts["powers"] += len(new)
    row_of = _Rows(w).__getitem__
    if chained:
        for t, sh in _shift_sums(_packed_partials(f, w), chained, row_of, True).items():
            powers[t] = _strip(sh)
    if rest := new[len(chained):]:
        for t, sh in _shift_sums(powers[0], rest, row_of).items():
            powers[t] = _strip(sh)
    return powers


def f_side_adds(f: DiffPoly, g: DiffPoly, ctx: AlgebraCtx) -> int:
    """The adds building bracket_master(f, g, ctx)'s f side outside a memo:
    the g side asks powers 0..n+1, and n+3 if c != 0, for each order n of g."""
    ts = {0}
    for n in g.orders_present():
        ts.update(range(n + 2), [n + 3] if ctx.central_charge else ())
    return min(_f_side_adds(f, ts))


def _f_side_adds(f: DiffPoly, ts) -> tuple:
    """(merged, per partial): the _add_into calls each order of _f_side
    makes for the powers ts (Phi is power 0), exact unless terms cancel,
    from the orders of f alone.  A chain adds at each step k into each
    power m >= k it serves, or at k = 0 only if its coefficient is
    constant: df/du^(m) when dmL is alone in each monomial holding it,
    and Phi's lambda^j when each m >= j is."""
    const: dict = {}
    for mono in f.terms:
        for k in set(mono):
            const[k] = const.get(k, True) and len(mono) == 1
    top = max((m for m, c in const.items() if not c), default=-1)
    n, s = len(ts) - (0 in ts), sum(ts)
    merged = (top + 1) * (s + n) + n * sum(m > top for m in const)
    if 0 in ts:
        merged += sum(1 if c else m + 1 for m, c in const.items())
    return merged, sum(len(ts) if c else s + len(ts) * (m + 1) for m, c in const.items())


def _pack(m: tuple, w: int) -> int:
    """The packed form of monomial m: the count of factors dkL in the w-bit
    field k of one int, so a product of monomials is the sum of keys."""
    return sum(1 << (w * k) for k in m)


def _unpack(key: int, w: int) -> tuple:
    """The monomial tuple of a packed key, highest order first."""
    out: list = []
    while key:
        s = (key.bit_length() - 1) // w * w
        c = key >> s
        key -= c << s
        out += [s // w] * c
    return tuple(out)


def _packed_partials(f: DiffPoly, w: int) -> dict:
    """{k: df/du^(k)} with packed keys, for every order k present in f."""
    out: dict = {}
    for m, c in f.terms.items():
        key = _pack(m, w)
        for k in set(m):
            d = out.setdefault(k, {})
            m2 = key - (1 << (w * k))
            d[m2] = d.get(m2, 0) + c * m.count(k)
    return out


def _products(shifted: dict, coeffs: dict) -> dict:
    """sum_n coeffs[n] * shifted[n] ({key: int} times {power: {key: int}}),
    each term added into its power's sum, which may hold zeros."""
    sums: dict = {}
    for n, other in coeffs.items():
        for k, q in shifted[n].items():
            d = sums.get(k)
            if d is None:
                sums[k] = d = {}
            get = d.get
            for m2, c2 in other.items():
                for m1, c1 in q.items():
                    m = m1 + m2
                    d[m] = get(m, 0) + c1 * c2
    return sums


def _leaf(i: int, j: int, ctx: AlgebraCtx) -> LambdaPoly:
    """{d^iL_lam d^jL} = (-lam)^i (lam+d)^j {L_lam L}, written out term by
    term: (lam+d)^j is sum_k C(j,k) lam^(j-k) d^k, and d^k takes d1L to
    d(k+1)L, L to dkL and the central constant to zero for k > 0."""
    s = -1 if i % 2 else 1
    sums: dict = {}
    for k in range(j + 1):
        b = s * comb(j, k)
        _add_into(sums, i + j - k, {(k + 1,): 1}, b)
        _add_into(sums, i + j - k + 1, {(k,): 2}, b)
    if ctx.central_charge:
        _add_into(sums, i + j + 3, {(): ctx.central_charge}, s)
    return _wrap(sums)


def _flip(br: LambdaPoly) -> LambdaPoly:
    """-br with lambda -> -lambda-d, by its own binomial loop: skew-symmetry
    takes {b_lam a} to {a_lam b}."""
    sums: dict = {}
    for k, p in br.terms.items():
        s = 1 if k % 2 else -1
        for r in range(k + 1):
            _add_into(sums, k - r, p.terms, s * comb(k, r))
            if r == k or not (p := p.derive()):
                break
    return _wrap(sums)


def _mono_bracket(a: tuple, b: tuple, ctx: AlgebraCtx, memo: dict) -> LambdaPoly:
    """{a_lam b} for two monomials, remembered in memo, which lives for
    one bracket_recursive call."""
    br = memo.get((a, b))
    if br is not None:
        return br
    if not a or not b:
        # Unit on either side brackets to zero.
        br = LambdaPoly.zero()
    elif len(b) > 1:
        # Product rule on the right argument.
        head, rest = b[:1], b[1:]
        sums: dict = {}
        for x, y in ((head, rest), (rest, head)):
            for k, p in _mono_bracket(a, x, ctx, memo).terms.items():
                _add_into(sums, k, {mono_mul(m, y): c for m, c in p.terms.items()}, 1)
        br = _wrap(sums)
    elif len(a) == 1:
        # Sesquilinearity in both slots, down to the generator bracket.
        br = _leaf(a[0], b[0], ctx)
    else:
        # Composite left argument against a single generator: flip by
        # skew-symmetry, which puts the composite on the right.
        br = _flip(_mono_bracket(b, a, ctx, memo))
    memo[(a, b)] = br
    return br


def bracket_recursive(f: DiffPoly, g: DiffPoly, ctx: AlgebraCtx) -> LambdaPoly:
    """Same bracket as bracket_master, computed by axiom-by-axiom reduction.

    Serves as an independent oracle: its generator bracket, its powers
    of (lambda+d) and its skew flip are its own code, none of the
    LambdaPoly methods bracket_master runs.  Monomial pairs met twice within
    one call are bracketed once; nothing is kept between calls.
    """
    memo: dict = {}
    sums: dict = {}
    for fm, fc in f.terms.items():
        for gm, gc in g.terms.items():
            for k, p in _mono_bracket(fm, gm, ctx, memo).terms.items():
                _add_into(sums, k, p.terms, fc * gc)
    return _wrap(sums)


def nth_product(f: DiffPoly, g: DiffPoly, n: int, ctx: AlgebraCtx) -> DiffPoly:
    """n! times the lambda^n coefficient of the bracket."""
    if n < 0:
        raise DomainError("product index must be non-negative, got %d" % n)
    p = bracket_master(f, g, ctx).coeff(n)
    # n! only where it multiplies something: n may be far past the top power.
    return p * factorial(n) if p else p


def skew_defect(f: DiffPoly, g: DiffPoly, ctx: AlgebraCtx) -> LambdaPoly:
    """{g_lam f} + {f_lam g} with lambda -> -lambda-d in the second term.
    Identically zero when skew-symmetry holds."""
    return bracket_master(g, f, ctx) + bracket_master(f, g, ctx).subst_neg_shift()


def jacobi_defect(a: DiffPoly, b: DiffPoly, c: DiffPoly, ctx: AlgebraCtx) -> BiLambdaPoly:
    """{a_lam {b_mu c}} - {{a_lam b}_(lam+mu) c} - {b_mu {a_lam c}}, the
    middle term bracketing each lambda coefficient of {a_lam b} against c
    in a fresh variable, then put to lam+mu by binomial expansion.
    Identically zero when the Jacobi identity holds."""
    sums: dict = {}
    for j, w in bracket_master(b, c, ctx).terms.items():
        for i, v in bracket_master(a, w, ctx).terms.items():
            _add_into(sums, (i, j), v.terms, 1)
    for i, v in bracket_master(a, c, ctx).terms.items():
        for j, w in bracket_master(b, v, ctx).terms.items():
            _add_into(sums, (i, j), w.terms, -1)
    for k, v in bracket_master(a, b, ctx).terms.items():
        for l, w in bracket_master(v, c, ctx).terms.items():
            for r in range(l + 1):
                _add_into(sums, (k + r, l - r), w.terms, -comb(l, r))
    return _wrap(sums, BiLambdaPoly)


def hamiltonian(f: DiffPoly) -> DiffPoly:
    """The grading operator: scale every monomial by its conformal weight."""
    return DiffPoly({m: c * conformal_weight(m) for m, c in f.terms.items()})


def hamiltonian_defects(fm, gm, ctx: AlgebraCtx) -> dict[int, DiffPoly]:
    """H(f_(n)g) minus the weight the grading axiom demands, for every
    lambda power n of one bracket, ascending; fm and gm are monomials
    (order tuples), eigenvectors of the grading operator, so every defect
    must vanish identically."""
    fm, gm = mono(fm), mono(gm)
    br = bracket_master(DiffPoly.monomial(fm), DiffPoly.monomial(gm), ctx)
    weight = conformal_weight(fm) + conformal_weight(gm)
    out = {}
    for n in sorted(br.terms):
        prod = br.terms[n] * factorial(n)
        out[n] = hamiltonian(prod) - prod * (weight - (n + 1))
    return out
