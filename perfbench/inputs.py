"""Seeded workload inputs and the benchmark's own reference arithmetic.

Pure standard library: the runner (run.py) imports this module without importing
virmagri, so inputs are built the same way in every process and the
reference values below share no code with the package under test.

A differential-polynomial monomial is a weakly decreasing tuple of
derivative orders, (2, 0, 0) standing for d2L L^2; a polynomial is a dict
from monomial to nonzero int coefficient.
"""

from __future__ import annotations

import random
from math import factorial

DEFAULT_SEED = 1

# Degree pairs for dense-bracket, each bracketed once per pass at charge 1.
DENSE_PAIRS = {"full": [(8, 8), (9, 9), (10, 10), (10, 6), (12, 4)],
               "small": [(4, 4), (5, 3)]}
DENSE_CHARGE = 1

VERIFY_CHARGES = (0, 1, -2)


def partition_tuples(n: int, max_part: int | None = None):
    """Partitions of n as weakly decreasing tuples, descending lexicographic."""
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partition_tuples(n - first, first):
            yield (first,) + rest


def dense_poly(rng: random.Random, degree: int) -> dict:
    """Every monomial of the given degree (part k+1 <-> order k), each with a
    nonzero coefficient in [-9, 9] drawn from rng."""
    return {tuple(p - 1 for p in parts): rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1,
                                                      1, 2, 3, 4, 5, 6, 7, 8, 9))
            for parts in partition_tuples(degree)}


def dense_pairs(seed: int, size: str) -> list[tuple[str, dict, dict]]:
    """(label, f, g) for every dense-bracket pair; same seed, same polynomials."""
    rng = random.Random("dense-bracket:%d" % seed)
    return [("%dx%d" % (a, b), dense_poly(rng, a), dense_poly(rng, b))
            for a, b in DENSE_PAIRS[size]]


def smallest_dense_pair(size: str) -> str:
    """Label of the pair with the fewest monomial pairs: the one the
    recursive oracle re-evaluates on every run."""
    cost = {"%dx%d" % (a, b): len(list(partition_tuples(a))) * len(list(partition_tuples(b)))
            for a, b in DENSE_PAIRS[size]}
    return min(cost, key=cost.get)


# ------------------------------------------------------------ text forms

def mono_text(m: tuple) -> str:
    out = []
    for k in sorted(set(m), reverse=True):
        base = "L" if k == 0 else "d%dL" % k
        e = m.count(k)
        out.append(base if e == 1 else "%s^%d" % (base, e))
    return " ".join(out)


def poly_text(p: dict) -> str:
    """Operand text in the CLI grammar, terms in insertion order."""
    if not p:
        return "0"
    out = []
    for i, (m, c) in enumerate(p.items()):
        sign = "-" if c < 0 else ("" if i == 0 else "+")
        out.append("%s%d %s" % (sign, abs(c), mono_text(m)) if m else "%s%d" % (sign, abs(c)))
    return " ".join(out)


def lambda_text(coeffs: dict) -> str:
    """Lambda-polynomial text from {lambda power: poly}."""
    if not coeffs:
        return "0"
    return " + ".join("(%s)*lam^%d" % (poly_text(p), k) for k, p in sorted(coeffs.items()))


def json_poly(terms: list) -> dict:
    return {tuple(t["mono"]): t["c"] for t in terms}


# ---------------------------------------------------- reference arithmetic

def _acc(out: dict, m: tuple, c: int) -> None:
    s = out.get(m, 0) + c
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def model_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            _acc(out, tuple(sorted(m1 + m2, reverse=True)), c1 * c2)
    return out


def model_derive(f: dict) -> dict:
    """Total derivative by the product rule, one factor at a time."""
    out: dict = {}
    for m, c in f.items():
        for i in range(len(m)):
            bumped = m[:i] + (m[i] + 1,) + m[i + 1:]
            _acc(out, tuple(sorted(bumped, reverse=True)), c)
    return out


def hook_length_count(parts) -> int:
    """Standard Young tableaux of shape parts, by the hook-length formula."""
    parts = [p for p in parts if p]
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(parts)) // hooks


# ------------------------------------------------------------ cli-large

def cli_ops(seed: int, size: str) -> list[dict]:
    """The cli-large call sequence, one dict per call.

    kind "fixed": seed-independent input; checked against a recorded digest
    and, for count-syt, the hook-length count.  kind "seeded": dense
    operands drawn from the seed; checked against an independent
    recomputation.  kind "known-bad": inputs the CLI is known to mishandle,
    kept in the timed sequence and reported on their own.
    """
    rng = random.Random("cli-large:%d" % seed)
    small = size == "small"
    d = {n: dense_poly(rng, n) for n in ((3, 4, 5) if small else (4, 6, 10, 11, 12))}
    hi, mid, lo, top = (5, 4, 3, 5) if small else (10, 6, 4, 12)
    other = dense_poly(rng, hi)
    syt = (4, 3, 2, 1) if small else (40, 30, 20, 10)
    ops = [
        {"name": "bracket-L-d1500L", "kind": "fixed",
         "argv": ["bracket", "L", "d50L" if small else "d1500L"]},
        {"name": "bracket-d100L2-d100L", "kind": "fixed",
         "argv": ["bracket", "d10L^2" if small else "d100L^2", "d10L" if small else "d100L"]},
        {"name": "count-syt", "kind": "fixed", "argv": ["count-syt", "[%s]" % ",".join(map(str, syt))],
         "expect_int": hook_length_count(syt)},
        {"name": "bracket-%dx%d-text" % (hi, mid), "kind": "seeded", "verb": "bracket",
         "operands": [d[hi], d[mid]], "argv": ["bracket", poly_text(d[hi]), poly_text(d[mid]),
                                              "--charge", "1"]},
        {"name": "bracket-%dx%d-json" % (top, lo), "kind": "seeded", "verb": "bracket",
         "operands": [d[top], d[lo]], "argv": ["bracket", poly_text(d[top]), poly_text(d[lo]),
                                              "--charge", "1", "--format", "json"]},
        {"name": "mul-%dx%d-text" % (top, hi), "kind": "seeded", "verb": "mul",
         "operands": [d[top], d[hi]], "argv": ["mul", poly_text(d[top]), poly_text(d[hi])]},
        {"name": "mul-%dx%d-json" % (hi, hi), "kind": "seeded", "verb": "mul",
         "operands": [d[hi], other], "argv": ["mul", poly_text(d[hi]), poly_text(other),
                                             "--format", "json"]},
        {"name": "der-%d-text" % top, "kind": "seeded", "verb": "der",
         "operands": [d[top]], "argv": ["der", poly_text(d[top])]},
        {"name": "der-%d-json" % (lo if small else 11), "kind": "seeded", "verb": "der",
         "operands": [d[lo if small else 11]],
         "argv": ["der", poly_text(d[lo if small else 11]), "--format", "json"]},
        # A RecursionError traceback today; the hook-length count is the answer.
        {"name": "count-syt-600-600", "kind": "known-bad", "argv": ["count-syt", "[600,600]"],
         "expect_int": hook_length_count((600, 600))},
        # A ValueError traceback today; a negative order is a usage error (exit 2 or 3).
        {"name": "nprod-negative-order", "kind": "known-bad", "argv": ["nprod", "L", "L", "-1"],
         "expect_exit": (2, 3)},
    ]
    return ops
