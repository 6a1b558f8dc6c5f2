"""One benchmark process: a fresh interpreter per pass.

    worker.py run WORKLOAD --seed N --size full|small [--trace] [--setup-only]
        Import virmagri and build the inputs, print "ready", run the
        workload's operations once, print one JSON line with the results.
    worker.py cli ARG...
        Run virmagri.cli.main(ARG...) as `python -m virmagri.cli` would,
        with tracing; the trace goes to stderr after the marker TRACE_MARK.
    worker.py check WORKLOAD --seed N --size full|small
        Recompute reference results outside any timed region (the
        recursive oracle and the benchmark's own arithmetic); cli-large
        reads the captured outputs from stdin as JSON.

run.py puts the package's src directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from time import perf_counter

import inputs

TRACE_MARK = "perfbench-trace "


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    return tr


# ---------------------------------------------------------------- run

def _setup_verify(seed: int, size: str):
    from virmagri.diffpoly import AlgebraCtx
    from virmagri.verify import Bounds

    bounds = Bounds() if size == "full" else Bounds(max_n=4, max_j=2, max_deg=4)
    return bounds, [AlgebraCtx(c) for c in inputs.VERIFY_CHARGES]


def _run_verify(state) -> tuple[float, dict]:
    from virmagri.verify import run_suite

    bounds, ctxs = state
    reports, t0 = {}, perf_counter()
    for ctx in ctxs:
        try:
            reports[str(ctx.central_charge)] = run_suite("all", bounds, ctx)
        except Exception:
            traceback.print_exc()
            reports[str(ctx.central_charge)] = None
    return perf_counter() - t0, reports


def _finish_verify(reports) -> dict:
    return {"counts": {c: None if r is None else r.identities() for c, r in reports.items()}}


def _setup_dense(seed: int, size: str):
    from virmagri.diffpoly import AlgebraCtx
    from virmagri.text import parse_diffpoly

    pairs = [(label, parse_diffpoly(inputs.poly_text(f)), parse_diffpoly(inputs.poly_text(g)))
             for label, f, g in inputs.dense_pairs(seed, size)]
    return pairs, AlgebraCtx(inputs.DENSE_CHARGE)


def _run_dense(state) -> tuple[float, dict]:
    from virmagri.brackets import bracket_master

    pairs, ctx = state
    out, t0 = {}, perf_counter()
    for label, f, g in pairs:
        try:
            out[label] = bracket_master(f, g, ctx)
        except Exception:
            traceback.print_exc()
            out[label] = None
    return perf_counter() - t0, out


def _finish_dense(out) -> dict:
    from virmagri.text import format_lambdapoly

    return {"digests": {k: None if v is None else digest(format_lambdapoly(v))
                        for k, v in out.items()}}


def _setup_cli(seed: int, size: str):
    import virmagri.cli  # noqa: F401  (what every CLI call imports)

    return inputs.cli_ops(seed, size)


# workload: (build inputs, run the timed operations, digest the results)
WORKLOADS = {"verify-all": (_setup_verify, _run_verify, _finish_verify),
             "dense-bracket": (_setup_dense, _run_dense, _finish_dense),
             "cli-large": (_setup_cli, None, None)}


def cmd_run(args) -> int:
    setup, run, finish = WORKLOADS[args.workload]
    state = setup(args.seed, args.size)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tr = _tracer(args.trace)
    wall, raw = run(state)
    trace = None if tr is None else tr.summary()
    result = finish(raw)
    result.update(wall_s=wall, trace=trace)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------- cli

def cmd_cli(argv: list[str]) -> int:
    tr = _tracer(True)
    from virmagri.cli import main

    try:
        code = main(argv)
    except Exception:
        # What an uncaught exception does under `python -m virmagri.cli`.
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tr.summary()), file=sys.stderr)
    return code


# -------------------------------------------------------------- check

def _canonical_lambda(payload_terms) -> str:
    from virmagri.text import format_lambdapoly, parse_lambdapoly

    coeffs = {t["lam"]: inputs.json_poly(t["coeff"]) for t in payload_terms}
    return format_lambdapoly(parse_lambdapoly(inputs.lambda_text(coeffs)))


def _canonical_poly(p: dict) -> str:
    from virmagri.text import format_diffpoly, parse_diffpoly

    return format_diffpoly(parse_diffpoly(inputs.poly_text(p)))


def _check_cli_op(op: dict, stdout: str) -> bool:
    """Compare one seeded call's output with an independent recomputation,
    in canonical text form."""
    from virmagri.brackets import bracket_recursive
    from virmagri.diffpoly import AlgebraCtx
    from virmagri.text import format_lambdapoly, parse_diffpoly

    json_out = "--format" in op["argv"]
    if op["verb"] == "bracket":
        f, g = (parse_diffpoly(inputs.poly_text(p)) for p in op["operands"])
        want = format_lambdapoly(bracket_recursive(f, g, AlgebraCtx(1)))
    elif op["verb"] == "mul":
        want = _canonical_poly(inputs.model_mul(*op["operands"]))
    else:
        want = _canonical_poly(inputs.model_derive(op["operands"][0]))
    if not json_out:
        return stdout == want + "\n"
    result = json.loads(stdout)["result"]
    if result["type"] == "lambdapoly":
        return _canonical_lambda(result["terms"]) == want
    return _canonical_poly(inputs.json_poly(result["terms"])) == want


def cmd_check(args) -> int:
    from virmagri.brackets import bracket_recursive
    from virmagri.diffpoly import AlgebraCtx
    from virmagri.text import format_lambdapoly, parse_diffpoly

    if args.workload == "dense-bracket":
        label = inputs.smallest_dense_pair(args.size)
        _, f, g = next(p for p in inputs.dense_pairs(args.seed, args.size) if p[0] == label)
        oracle = bracket_recursive(parse_diffpoly(inputs.poly_text(f)),
                                   parse_diffpoly(inputs.poly_text(g)),
                                   AlgebraCtx(inputs.DENSE_CHARGE))
        print(json.dumps({"digests": {label: digest(format_lambdapoly(oracle))}}))
        return 0
    outputs = json.load(sys.stdin)
    ok = {}
    for op in inputs.cli_ops(args.seed, args.size):
        if op["kind"] == "seeded" and op["name"] in outputs:
            try:
                ok[op["name"]] = _check_cli_op(op, outputs[op["name"]])
            except Exception:
                traceback.print_exc()
                ok[op["name"]] = False
    print(json.dumps({"ok": ok}))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        return cmd_cli(argv[1:])
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("run", "check"):
        p = sub.add_parser(mode)
        p.add_argument("workload", choices=sorted(WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--size", choices=("full", "small"), required=True)
        if mode == "run":
            p.add_argument("--trace", action="store_true")
            p.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.mode == "run" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
