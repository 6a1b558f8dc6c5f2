"""Alternating A/B runs of perfbench between two checkouts, written to a
BENCH_*.json file.

Each checkout is a directory holding perfbench/run.py and src/virmagri,
for instance a `git clone` of the commit to measure.  Each of the PAIRS
pairs runs the workload once on each side, for perfbench's own run
length; pair i uses seed first_seed + i, the parent first on even i and
the change first on odd i, so drift of the host falls on both sides
alike.  Each run gets a fresh bytecode cache (PYTHONPYCACHEPREFIX), so a
stale __pycache__ in either checkout cannot skew its set-up time.
Standard library only; one perfbench run at a time.

    python3 tools/bench_ab.py --parent ../parent --change ../change \\
        --workload verify-all --first-seed 11 --trace --out BENCH_pr6.json

Runs of other workloads already in --out are kept, so one file collects
every workload of a change; an --out recorded for other commits is
refused before any run.  Each metric's summary gives the parent's and
the change's medians and IQRs, the pairs in which the change is lower,
and the median change/parent ratio with an exact sign-test interval;
the summary's "passes" gives each side's median number of timed passes
per run, and its "failures" each side's runs with correct false and its
failed operations over its attempted ones.  Both are printed for each
pair as it runs, the failures as totals so far.  The record also gives
each checkout's src/virmagri line count (src_lines), so a change's size
sits beside its timings.
With --trace, one `--trace 1` run per side follows the pairs and its
per-layer metrics are stored as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from math import comb

METRICS = ("wall_s", "peak_rss_mb", "setup_s")
PAIRS = 10  # the fewest alternating pairs that can show a gain on nine of ten
LEVEL = 0.95  # the least coverage of the sign-test interval on the median ratio
_WALLS = re.compile(r"pass walls \[([^\]]*)\]")


def _commit(checkout: str) -> str:
    return subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()


def _src_lines(checkout: str) -> int:
    """The lines of the package's source files in a checkout, as wc -l counts them."""
    total = 0
    for root, _, files in os.walk(os.path.join(checkout, "src", "virmagri")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _run(checkout: str, workload: str, seed: int, trace: bool) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "1" if trace else "0"]
    # A fresh bytecode cache per run: a stale __pycache__ left in either
    # checkout cannot then make one side's imports cheaper than the other's.
    # The run's first interpreter fills the cache and the rest read it;
    # with bytecode writes off, every interpreter would compile the
    # standard library and the package from source instead.
    # One untimed `run.py --help` first compiles the runner's own imports
    # into the cache.  Compiled in the measured run instead, they raise the
    # runner's peak RSS, which every child it spawns inherits through
    # vfork: on a 2-core x86 host each dense-bracket worker then read about
    # 24.4 MB, above its own peak (24.05 MB at one tree, 23.80 at another).
    with tempfile.TemporaryDirectory(prefix="bench_ab_pycache_") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run([sys.executable, "perfbench/run.py", "--help"], cwd=checkout, env=env,
                       capture_output=True, text=True)
        p = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if p.returncode:
        raise SystemExit("bench_ab: %s exited %d:\n%s" % (checkout, p.returncode, p.stderr[-2000:]))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    row = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    walls = _WALLS.search(p.stderr)
    if walls:
        row["pass_walls_s"] = [float(x.strip("' ")) for x in walls.group(1).split(",") if x.strip()]
    return row


def _spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}


def _ratio(ratios: list[float]) -> dict | None:
    """Median of the per-pair change/parent ratios, with the exact
    sign-test interval for it: the k-th smallest to the k-th largest
    ratio, k as large as keeps the coverage 1 - 2 P(Bin(n, 1/2) < k) at
    least LEVEL (with fewer than 6 pairs no k does; k = 1 then, and the
    coverage given is below LEVEL).  A drifting host shows as a wide
    interval."""
    r = sorted(ratios)
    n = len(r)
    if not n:
        return None
    below = [sum(comb(n, i) for i in range(k)) / 2**n for k in range(n // 2 + 2)]
    k = 1
    while k < (n + 1) // 2 and 1 - 2 * below[k + 1] >= LEVEL:
        k += 1
    return {"median": statistics.median(r), "interval": [r[k - 1], r[n - k]],
            "confidence": 1 - 2 * below[k]}


def _passes(row: dict) -> int | None:
    """The number of timed passes in one run, if perfbench printed them."""
    walls = row.get("pass_walls_s")
    return None if walls is None else len(walls)


def _failures(pairs: list[dict]) -> dict:
    """Per side: the runs with correct false, the failed and attempted
    operations summed over the runs, and the failed share of them."""
    out = {}
    for side in ("parent", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        out[side] = {"incorrect_runs": sum(not p[side]["correct"] for p in pairs),
                     "failed": failed, "attempted": attempted,
                     "failed_share": failed / attempted if attempted else None}
    return out


def _summary(pairs: list[dict]) -> dict:
    # Each side's median pass count: perfbench's runner grows with the
    # passes of a run, so a peak_rss_mb shift can come from a side that
    # fit more passes into the run rather than from the code.
    out = {"passes": {}, "failures": _failures(pairs)}
    for side in ("parent", "change"):
        counts = [n for p in pairs if (n := _passes(p[side])) is not None]
        out["passes"][side] = statistics.median(counts) if counts else None
    for m in METRICS:
        a = [p["parent"]["metrics"][m] for p in pairs]
        b = [p["change"]["metrics"][m] for p in pairs]
        out[m] = {"parent": _spread(a), "change": _spread(b),
                  "change_lower_in_pairs": sum(y < x for x, y in zip(a, b)),
                  "change_to_parent_ratio": _ratio([y / x for x, y in zip(a, b) if x]),
                  "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    commits = {"parent_commit": _commit(args.parent), "change_commit": _commit(args.change)}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
        # The rows already there were measured on the recorded commits;
        # new rows from other commits would relabel them.
        recorded = {k: doc.get(k) for k in commits}
        if recorded != commits:
            raise SystemExit("bench_ab: %s records parent %s and change %s, not %s and %s; "
                             "write the runs to another --out" % (
                                 args.out, recorded["parent_commit"], recorded["change_commit"],
                                 commits["parent_commit"], commits["change_commit"]))
    doc.update(commits, host={"cpu_count": os.cpu_count(), "python": platform.python_version(),
                              "machine": platform.machine()},
               src_lines={side: _src_lines(path) for side, path in sides.items()})
    pairs = []
    for i in range(PAIRS):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = _run(sides[side], args.workload, seed, trace=False)
        pairs.append(pair)
        fails = _failures(pairs)
        fp, fc = fails["parent"], fails["change"]
        print("bench_ab: %s pair %d seed %d wall_s parent %.3f change %.3f, failed %d/%d and "
              "%d/%d, incorrect runs %d and %d, passes %s and %s" % (
                  args.workload, i + 1, seed, pair["parent"]["metrics"]["wall_s"],
                  pair["change"]["metrics"]["wall_s"], fp["failed"], fp["attempted"],
                  fc["failed"], fc["attempted"], fp["incorrect_runs"], fc["incorrect_runs"],
                  _passes(pair["parent"]), _passes(pair["change"])), file=sys.stderr, flush=True)
    entry = {"pairs": pairs, "summary": _summary(pairs)}
    if args.trace:
        entry["trace"] = {side: _run(sides[side], args.workload, args.first_seed, trace=True) for side in ("parent", "change")}
    doc.setdefault("workloads", {})[args.workload] = entry
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
