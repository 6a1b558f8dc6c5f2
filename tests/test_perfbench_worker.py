"""Smoke test of the benchmark worker on its small inputs.

The tracer wraps package functions by name (LambdaPoly.shift_apply,
DiffPoly.derive, bracket_master, the verification checks), so a refactor
that renames or removes one of them fails here, not only in a benchmark
run.  The test only reads perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _worker(workload: str, trace: bool) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "run", workload,
            "--seed", "1", "--size", "small"] + (["--trace"] if trace else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    p = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr[-2000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
def test_verify_all_worker_runs(trace):
    out = _worker("verify-all", trace)
    counts = out["counts"]
    assert counts and all(c is not None for c in counts.values())
    if trace:
        tr = out["trace"]
        assert tr["brackets.master_calls"] > 0
        assert tr["brackets.shift_apply_calls"] > 0 and tr["diffpoly.derive_calls"] > 0
        assert tr["verify.records"] == sum(t["cases"] for ids in counts.values()
                                           for t in ids.values())
    else:
        assert out["trace"] is None


@pytest.mark.parametrize("trace", [False, True])
def test_dense_bracket_worker_runs(trace):
    out = _worker("dense-bracket", trace)
    assert out["digests"] and all(d is not None for d in out["digests"].values())
    if trace:
        assert out["trace"]["brackets.master_calls"] == len(out["digests"])
