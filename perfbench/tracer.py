"""Per-layer spans and counters, installed from outside the package.

install() wraps the public functions of each virmagri module, the
DiffPoly arithmetic methods, LambdaPoly.shift_apply, cli.main and every
registered verification check.  A module that imported a wrapped function
by name gets the wrapper too, so calls from verify, k0sigma, zhu and cli
are seen.  Spans and counters stay in memory; summary() returns them as a
flat dict of additive values keyed by per-layer metric name.

Self time of a span is its duration minus the time of the spans it
directly contains.  Inclusive time (the *_s metrics without "self") is
counted only for the outermost span of each key, so recursion and nested
calls of one layer are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("brackets", "diffpoly", "partitions", "k0sigma", "nilcoxeter", "zhu", "text",
           "verify", "cli", "report", "errors")

# Whole-module layers: every public module-level function shares one key.
_LAYER_MODULES = ("partitions", "k0sigma", "nilcoxeter", "zhu")

_BRACKETS = {"bracket_master": "brackets.master", "bracket_recursive": "brackets.recursive",
             "nth_product": "brackets.nth_product"}
_DIFFPOLY = {"__mul__": "diffpoly.mul", "derive": "diffpoly.derive",
             "partial_wrt": "diffpoly.partial", "__add__": "diffpoly.add"}
_CHARGE_KEY = {0: "verify.charge_0", 1: "verify.charge_1", -2: "verify.charge_m2"}


def _poly_key(f) -> frozenset:
    return frozenset(f.terms.items())


class Tracer:
    def __init__(self):
        self.stack: list[float] = []      # child time accumulated by each open span
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.master_keys: set = set()

    def wrap(self, key, fn, before=None, after=None):
        """Return fn wrapped in a span named key.  before(args) runs ahead of
        the call; after(args, result) sees the result; a callable key maps
        the arguments to a span name."""
        stack, depth = self.stack, self.depth
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        dynamic = callable(key)

        def span(*args, **kwargs):
            name = key(args) if dynamic else key
            if before is not None:
                before(args)
            depth[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += dt - child
                if not depth[name]:
                    incl_s[name] += dt
            if after is not None:
                after(args, result)
            return result

        span.__wrapped__ = fn
        return span

    # ------------------------------------------------------------ counters

    def _master_before(self, args):
        f, g, ctx = args
        self.master_keys.add((_poly_key(f), _poly_key(g), ctx.central_charge))

    def _shift_before(self, args):
        self.count["brackets.shift_apply_steps"] += args[1]

    def _terms_after(self, args, result):
        self.count["diffpoly.terms_out"] += len(result.terms)

    def _format_after(self, args, result):
        if not self.depth["text.format"]:
            self.count["text.bytes_out"] += len(result.encode())

    def _records_after(self, args, result):
        self.count["verify.records"] += len(result.records)

    # ------------------------------------------------------------- install

    def install(self) -> None:
        mods = {name: importlib.import_module("virmagri." + name) for name in MODULES}
        mods["__init__"] = importlib.import_module("virmagri")
        replaced: dict[int, object] = {}

        def public_functions(mod):
            return [(n, f) for n, f in vars(mod).items()
                    if inspect.isfunction(f) and not n.startswith("_")
                    and f.__module__ == mod.__name__]

        for name in _LAYER_MODULES:
            for fname, fn in public_functions(mods[name]):
                replaced[id(fn)] = self.wrap(name, fn)
        for fname, key in _BRACKETS.items():
            fn = getattr(mods["brackets"], fname)
            before = self._master_before if fname == "bracket_master" else None
            replaced[id(fn)] = self.wrap(key, fn, before=before)
        for fname, fn in public_functions(mods["text"]):
            if fname.startswith("parse_"):
                replaced[id(fn)] = self.wrap("text.parse", fn)
            elif fname.startswith("format_"):
                replaced[id(fn)] = self.wrap("text.format", fn, after=self._format_after)
        run_suite = mods["verify"].run_suite
        replaced[id(run_suite)] = self.wrap(lambda a: _CHARGE_KEY.get(a[2].central_charge,
                                                                      "verify.charge_other"),
                                            run_suite, after=self._records_after)
        replaced[id(mods["cli"].main)] = self.wrap("cli.main", mods["cli"].main)

        # Rebind every by-name import of a wrapped function, in every module.
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])

        checks = mods["verify"].CHECKS
        for cname, fn in list(checks.items()):
            checks[cname] = self.wrap("verify.check." + cname, fn)

        DiffPoly = mods["diffpoly"].DiffPoly
        for meth, key in _DIFFPOLY.items():
            setattr(DiffPoly, meth, self.wrap(key, getattr(DiffPoly, meth),
                                              after=self._terms_after))
        LambdaPoly = mods["brackets"].LambdaPoly
        LambdaPoly.shift_apply = self.wrap("brackets.shift_apply", LambdaPoly.shift_apply,
                                           before=self._shift_before)

    # ------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Additive per-layer values; a process-wide sum across CLI calls
        stays meaningful.  Ratios are derived later from these sums."""
        c, s, i = self.calls, self.self_s, self.incl_s
        out = {
            "partitions.calls": c["partitions"], "partitions.self_s": s["partitions"],
            "brackets.master_calls": c["brackets.master"],
            "brackets.master_distinct": len(self.master_keys),
            "brackets.master_s": i["brackets.master"],
            "brackets.master_self_s": s["brackets.master"],
            "brackets.nth_product_calls": c["brackets.nth_product"],
            "brackets.recursive_calls": c["brackets.recursive"],
            "brackets.recursive_s": i["brackets.recursive"],
            "brackets.shift_apply_calls": c["brackets.shift_apply"],
            "brackets.shift_apply_steps": self.count["brackets.shift_apply_steps"],
            "brackets.shift_apply_self_s": s["brackets.shift_apply"],
            "text.parse_s": i["text.parse"], "text.format_s": i["text.format"],
            "text.bytes_out": self.count["text.bytes_out"],
            "cli.main_s": i["cli.main"],
            "verify.records": self.count["verify.records"],
            "diffpoly.terms_out": self.count["diffpoly.terms_out"],
        }
        for op in ("mul", "derive", "partial", "add"):
            out["diffpoly.%s_calls" % op] = c["diffpoly." + op]
            out["diffpoly.%s_self_s" % op] = s["diffpoly." + op]
        for layer in ("k0sigma", "nilcoxeter", "zhu"):
            out[layer + ".calls"] = c[layer]
            out[layer + ".self_s"] = s[layer]
        for key in _CHARGE_KEY.values():
            out[key + "_s"] = i[key]
        for key in list(i):
            if key.startswith("verify.check."):
                out[key + "_s"] = i[key]
        return out
