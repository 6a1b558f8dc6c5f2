"""The virmagri benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (perfbench/worker.py, or `python -m virmagri.cli` per call),
because partitions keeps process-wide caches and a warm process would
measure a program no CLI user runs.  This process starts at most one child
at a time and never imports virmagri.

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics of one traced
pass, next to one untraced pass for the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_MARK = "perfbench-trace "
PROBES_PER_PASS = 3       # setup-only spawns before each pass...
MIN_PROBES = 12           # ...topped up to this many per run
RUN_LIMIT_S = 170.0       # every run ends within this, whatever --seconds says


class Child:
    """One finished child process: exit code, output, wall time from spawn
    to reaping, time to its "ready" line, and its peak resident set."""

    def __init__(self, argv: list[str], deadline: float, stdin: bytes = b"",
                 want_ready: bool = False):
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.ready_s = None
        self.timed_out = False
        t0 = perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        err: list[bytes] = []
        threads = [threading.Thread(target=lambda: err.append(p.stderr.read())),
                   threading.Thread(target=self._feed, args=(p.stdin, stdin))]
        for t in threads:
            t.start()
        timer = threading.Timer(max(deadline - perf_counter(), 0.0), self._kill, args=(p,))
        timer.start()
        try:
            head = b""
            if want_ready:
                head = p.stdout.readline()
                if head == b"ready\n":
                    self.ready_s = perf_counter() - t0
            self.stdout = head + p.stdout.read()
            for t in threads:
                t.join()
            _, status, usage = os.wait4(p.pid, 0)
            self.wall_s = perf_counter() - t0
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        p.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()
        self.stderr = err[0].decode(errors="replace") if err else ""
        self.rss_kb = usage.ru_maxrss

    @staticmethod
    def _feed(pipe, data: bytes) -> None:
        try:
            pipe.write(data)
        except BrokenPipeError:
            pass
        finally:
            try:
                pipe.close()
            except BrokenPipeError:
                pass

    def _kill(self, p) -> None:
        self.timed_out = True
        p.kill()

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr

    def last_json(self):
        """The JSON object on the last stdout line, or None."""
        lines = self.stdout.decode(errors="replace").strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None

    def trace(self) -> dict:
        for line in reversed(self.stderr.splitlines()):
            if line.startswith(TRACE_MARK):
                return json.loads(line[len(TRACE_MARK):])
        return {}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _worker(*args) -> list[str]:
    return [sys.executable, WORKER, *map(str, args)]


def _report_child(what: str, child: Child) -> None:
    """Echo a misbehaving child's stderr tail so failures are diagnosable."""
    tail = "\n".join(child.stderr.strip().splitlines()[-5:])
    print("perfbench: %s: exit %d%s\n%s" % (what, child.returncode,
                                            " (timed out)" if child.timed_out else "", tail),
          file=sys.stderr)


class Pass:
    """One pass of a workload: wall time, peak RSS, per-operation results."""

    def __init__(self):
        self.wall_s = 0.0
        self.rss_kb = 0
        self.setup_s = None
        self.results: dict[str, object] = {}   # op name -> digest / counts, None if it broke
        self.trace: dict = {}
        self.children: list[tuple[dict, Child]] = []   # cli-large: (op, child)


class Workload:
    def __init__(self, seed: int, size: str, deadline: float, reference: dict):
        self.seed, self.size, self.deadline, self.ref = seed, size, deadline, reference

    def setup_probe(self) -> float | None:
        child = Child(_worker("run", self.name, "--seed", self.seed, "--size", self.size,
                              "--setup-only"), self.deadline, want_ready=True)
        if child.returncode or child.ready_s is None:
            _report_child("setup of " + self.name, child)
        return child.ready_s

    def run_pass(self, trace: bool) -> Pass:
        """One fresh worker runs the operations once."""
        argv = _worker("run", self.name, "--seed", self.seed, "--size", self.size)
        child = Child(argv + (["--trace"] if trace else []), self.deadline, want_ready=True)
        out = child.last_json()
        ps = Pass()
        ps.setup_s, ps.rss_kb = child.ready_s, child.rss_kb
        if child.returncode or out is None or child.traceback:
            _report_child(self.name + " pass", child)
        if out is not None:
            ps.wall_s = out["wall_s"]
            ps.trace = out.get("trace") or {}
            ps.results = self.pass_results(out)
        if child.returncode or out is None:
            ps.results = {k: None for k in self.op_names()}
        return ps

    def check(self, passes: list[Pass]) -> list[tuple[str, bool]]:
        """(op, ok) for every op of every pass: it produced a result, the
        same one as in the first pass, and the expected one where known."""
        want = self.expected(passes[0])
        first = passes[0].results
        return [(op, ps.results.get(op) is not None and ps.results[op] == first.get(op)
                 and want.get(op, ps.results[op]) == ps.results[op])
                for ps in passes for op in self.op_names()]


class VerifyAll(Workload):
    """run_suite("all") at charges 0, 1 and -2 in one process.  An operation
    is one identity at one charge; it fails when a case fails or the number
    of cases differs from the recorded one.  The seed does not enter: the
    cases are fixed by the sweeps' own seeds."""

    name = "verify-all"

    def reference(self) -> dict:
        return self.ref["verify_counts"][self.size]

    def op_names(self) -> list[str]:
        return ["%s@c=%s" % (ident, c) for c, ids in self.reference().items() for ident in ids]

    def pass_results(self, out: dict) -> dict:
        res = {}
        for c, ids in out["counts"].items():
            for ident, tally in (ids or {}).items():
                res["%s@c=%s" % (ident, c)] = tally
        return res

    def check(self, passes: list[Pass]) -> list[tuple[str, bool]]:
        want = self.reference()
        names = self.op_names()
        out = []
        for ps in passes:
            for c, ids in want.items():
                for ident, cases in ids.items():
                    got = ps.results.get("%s@c=%s" % (ident, c))
                    out.append(("%s@c=%s" % (ident, c),
                                bool(got) and got["cases"] == cases and got["failed"] == 0))
            out.extend((extra, False) for extra in set(ps.results) - set(names))
        return out


class DenseBracket(Workload):
    """bracket_master at charge 1 on seeded dense homogeneous polynomials.
    Checked against the recorded digests at the default seed, against the
    recursive oracle on the smallest pair at every seed, and pass against
    pass."""

    name = "dense-bracket"

    def op_names(self) -> list[str]:
        return ["%dx%d" % p for p in inputs.DENSE_PAIRS[self.size]]

    def pass_results(self, out: dict) -> dict:
        return dict(out["digests"])

    def expected(self, first: Pass) -> dict:
        want = {}
        if self.seed == inputs.DEFAULT_SEED:
            want.update(self.ref["dense_digests"].get(self.size, {}))
        child = Child(_worker("check", self.name, "--seed", self.seed, "--size", self.size),
                      self.deadline)
        out = child.last_json()
        if child.returncode or out is None:
            _report_child("dense-bracket oracle", child)
            want.update({inputs.smallest_dense_pair(self.size): "oracle failed"})
        else:
            want.update(out["digests"])
        return want


class CliLarge(Workload):
    """A fixed sequence of `python -m virmagri.cli` calls, one process each.
    Known-bad calls are timed with the rest but reported on their own."""

    name = "cli-large"

    def ops(self) -> list[dict]:
        return inputs.cli_ops(self.seed, self.size)

    def op_names(self) -> list[str]:
        return [op["name"] for op in self.ops() if op["kind"] != "known-bad"]

    def run_pass(self, trace: bool) -> Pass:
        ps = Pass()
        for op in self.ops():
            argv = (_worker("cli", *op["argv"]) if trace
                    else [sys.executable, "-m", "virmagri.cli", *op["argv"]])
            child = Child(argv, self.deadline)
            ps.children.append((op, child))
            ps.wall_s += child.wall_s
            ps.rss_kb = max(ps.rss_kb, child.rss_kb)
            if trace:
                t = child.trace()
                for k, v in t.items():
                    ps.trace[k] = ps.trace.get(k, 0) + v
                ps.trace["cli.spawn_s"] = (ps.trace.get("cli.spawn_s", 0.0)
                                           + child.wall_s - t.get("cli.main_s", 0.0))
            ok = not child.returncode and not child.traceback and not child.timed_out
            if op["kind"] != "known-bad":
                if not ok:
                    _report_child("cli " + op["name"], child)
                ps.results[op["name"]] = _digest(child.stdout) if ok else None
        return ps

    @staticmethod
    def known_bad_ok(op: dict, child: Child) -> bool:
        if child.traceback or child.timed_out:
            return False
        if "expect_exit" in op:
            return child.returncode in op["expect_exit"]
        return child.returncode == 0 and child.stdout.strip() == str(op["expect_int"]).encode()

    def known_bad_failed(self, ps: Pass) -> int:
        return sum(not self.known_bad_ok(op, ch) for op, ch in ps.children
                   if op["kind"] == "known-bad")

    def expected(self, first: Pass) -> dict:
        """Digest or check outcome per op, computed without the CLI."""
        ref = self.ref["cli_digests"][self.size]
        want = dict(ref["fixed"])
        if self.seed == inputs.DEFAULT_SEED:
            want.update(ref["seeded"])
        outputs = {op["name"]: ch.stdout.decode(errors="replace")
                   for op, ch in first.children if op["kind"] == "seeded"}
        child = Child(_worker("check", self.name, "--seed", self.seed, "--size", self.size),
                      self.deadline, stdin=json.dumps(outputs).encode())
        out = child.last_json()
        if child.returncode or out is None:
            _report_child("cli-large check", child)
        checked = (out or {}).get("ok", {})
        for op, ch in first.children:
            if op["kind"] == "seeded" and not checked.get(op["name"]):
                want[op["name"]] = "independent check failed"
            if "expect_int" in op and op["kind"] == "fixed":
                if ch.stdout.strip() != str(op["expect_int"]).encode():
                    want[op["name"]] = "hook-length count differs"
        return want


WORKLOADS = {w.name: w for w in (VerifyAll, DenseBracket, CliLarge)}


def _load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------- runs

def _checked(results: list[tuple[str, bool]]) -> list[bool]:
    bad = sorted({op for op, ok in results if not ok})
    if bad:
        print("perfbench: failed operations: %s" % ", ".join(bad), file=sys.stderr)
    return [ok for _, ok in results]


def measure(name: str, seed: int, seconds: float, size: str = "full") -> dict:
    """An untraced run: setup probes, then fresh-process passes until the
    next one would overrun `seconds`; medians of each."""
    deadline = perf_counter() + RUN_LIMIT_S
    wl = WORKLOADS[name](seed, size, deadline, _load_reference())
    setups: list[float | None] = []
    passes: list[Pass] = []
    t0 = perf_counter()
    while True:
        # Probes are spread over the run so one slow stretch of the host
        # does not set the median.
        setups += [wl.setup_probe() for _ in range(PROBES_PER_PASS)]
        tp = perf_counter()
        passes.append(wl.run_pass(trace=False))
        last = perf_counter() - tp
        if perf_counter() - t0 + last > seconds or perf_counter() + 2 * last > deadline:
            break
    setups += [wl.setup_probe() for _ in range(max(MIN_PROBES - len(setups), 0))]
    setups += [ps.setup_s for ps in passes if ps.setup_s is not None]   # cli-large has none
    oks = _checked(wl.check(passes))
    print("perfbench: %s pass walls %s, setups %s" % (
        name, ["%.3f" % ps.wall_s for ps in passes], ["%.3f" % x for x in setups if x]),
        file=sys.stderr)
    if name == "cli-large":
        bad = [wl.known_bad_failed(ps) for ps in passes]
        print("perfbench: cli-large known-bad inputs failing per pass: %s" % bad, file=sys.stderr)
    failed = sum(not ok for ok in oks) + sum(s is None for s in setups)
    good_setups = [s for s in setups if s is not None]
    if not good_setups:
        raise SystemExit("perfbench: no %s worker got through set-up" % name)
    return {
        "correct": failed == 0,
        "attempted": len(oks) + len(setups),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(good_setups),
            "wall_s": statistics.median(ps.wall_s for ps in passes),
            "peak_rss_mb": statistics.median(ps.rss_kb for ps in passes) / 1024.0,
        },
        "passes": len(passes),
    }


def measure_traced(name: str, seed: int, size: str = "full") -> dict:
    """One untraced and one traced pass; per-layer metrics from the traced one."""
    deadline = perf_counter() + RUN_LIMIT_S
    wl = WORKLOADS[name](seed, size, deadline, _load_reference())
    plain = wl.run_pass(trace=False)
    traced = wl.run_pass(trace=True)
    oks = _checked(wl.check([plain, traced]))
    failed = sum(not ok for ok in oks)
    t = dict(traced.trace)
    calls = t.get("brackets.master_calls", 0)
    t["brackets.master_repeat_frac"] = (1 - t.get("brackets.master_distinct", 0) / calls
                                        if calls else 0.0)
    t["trace.overhead_s"] = traced.wall_s - plain.wall_s
    t["cli.known_bad_failed"] = wl.known_bad_failed(traced) if name == "cli-large" else 0
    return {"correct": failed == 0, "attempted": len(oks), "failed": failed, "metrics": t}


def emit(result: dict, declared: list[dict]) -> None:
    """Print the result line with exactly the declared metrics."""
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


# ------------------------------------------------------------ self-test

def self_test() -> int:
    """Reduced-size pass over every workload: outputs check, every declared
    per-layer metric is produced, and two traced runs give identical counts."""
    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    derived = {"brackets.master_repeat_frac", "trace.overhead_s", "cli.known_bad_failed",
               "cli.spawn_s"}
    problems = []
    for name in WORKLOADS:
        plain = measure(name, inputs.DEFAULT_SEED, 0, size="small")
        if not plain["correct"]:
            problems.append("%s: untraced run incorrect (%d failed)" % (name, plain["failed"]))
        runs = [measure_traced(name, inputs.DEFAULT_SEED, size="small") for _ in range(2)]
        for r in runs:
            if not r["correct"]:
                problems.append("%s: traced run incorrect (%d failed)" % (name, r["failed"]))
        a, b = (r["metrics"] for r in runs)
        counts = [k for k, unit in declared.items() if unit != "s"]
        diff = [k for k in counts if a.get(k) != b.get(k)]
        if diff:
            problems.append("%s: counts differ between traced runs: %s" % (name, diff))
        produced = set(a) | derived
        if name == "verify-all" and produced != set(declared):
            problems.append("verify-all: produced %s, declared but missing %s"
                            % (sorted(produced - set(declared)),
                               sorted(set(declared) - produced)))
        print("self-test %s: %d passes, traced counts %s" % (
            name, plain["passes"], "identical" if not diff else "DIFFER"), flush=True)
    for p in problems:
        print("self-test FAILED: " + p, file=sys.stderr)
    print("self-test %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def record_reference() -> int:
    """Write reference.json from the current program: per-identity case
    counts, dense-bracket digests at the default seed, CLI stdout digests.
    Refuses if any output fails its independent check."""
    ref = {"verify_counts": {}, "dense_digests": {}, "cli_digests": {}}
    seed = inputs.DEFAULT_SEED
    for size in ("full", "small"):
        deadline = perf_counter() + 10 * RUN_LIMIT_S
        ref["verify_counts"][size] = {}
        ps = VerifyAll(seed, size, deadline, ref).run_pass(trace=False)
        counts: dict = {}
        for key, tally in ps.results.items():
            ident, c = key.rsplit("@c=", 1)
            if not tally or tally["failed"]:
                print("record: %s failed" % key, file=sys.stderr)
                return 1
            counts.setdefault(c, {})[ident] = tally["cases"]
        ref["verify_counts"][size] = counts
        dense = DenseBracket(seed, size, deadline, ref)
        ps = dense.run_pass(trace=False)
        oracle = dense.expected(ps)
        if any(ps.results[k] != v for k, v in oracle.items()):
            print("record: dense-bracket disagrees with the oracle", file=sys.stderr)
            return 1
        ref["dense_digests"][size] = ps.results
        cli = CliLarge(seed, size, deadline, ref)
        ref["cli_digests"][size] = {"fixed": {}, "seeded": {}}
        ps = cli.run_pass(trace=False)
        want = cli.expected(ps)
        for op, child in ps.children:
            if op["kind"] == "known-bad":
                continue
            if ps.results[op["name"]] is None or op["name"] in want:
                print("record: cli %s failed its check" % op["name"], file=sys.stderr)
                return 1
            ref["cli_digests"][size][op["kind"]][op["name"]] = ps.results[op["name"]]
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote " + REFERENCE)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "virmagri", "__init__.py")):
        print("perfbench: no src/virmagri under %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    spec = _spec()
    if args.trace:
        emit(measure_traced(args.workload, args.seed), spec["per_layer"])
    else:
        emit(measure(args.workload, args.seed, args.seconds), spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
