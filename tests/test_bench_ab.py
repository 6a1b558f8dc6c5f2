import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def _repo(path: Path) -> str:
    """A throwaway git repository with one empty commit; returns its HEAD."""
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t"]
    path.mkdir()
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", str(path.name)], check=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()


def _fake_run(runs):
    def run(checkout, workload, seed, trace):
        runs.append(checkout)
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m: 1.0 for m in bench_ab.METRICS}}
    return run


def test_refuses_an_out_recorded_for_other_commits(tmp_path, monkeypatch):
    a, b = _repo(tmp_path / "a"), _repo(tmp_path / "b")
    out = tmp_path / "BENCH.json"
    rows = {"parent_commit": a, "change_commit": a, "workloads": {"verify-all": {"pairs": []}}}
    out.write_text(json.dumps(rows))
    runs = []
    monkeypatch.setattr(bench_ab, "_run", _fake_run(runs))
    argv = ["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
            "--workload", "dense-bracket", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_ab.main(argv)
    assert exc.value.code != 0 and b in str(exc.value.code) and "another --out" in str(exc.value.code)
    assert runs == []
    assert json.loads(out.read_text()) == rows

    # The same commits add their workload and keep the rows already there.
    rows["change_commit"] = b
    out.write_text(json.dumps(rows))
    assert bench_ab.main(argv) == 0
    assert len(runs) == 2 * bench_ab.PAIRS
    doc = json.loads(out.read_text())
    assert (doc["parent_commit"], doc["change_commit"]) == (a, b)
    assert set(doc["workloads"]) == {"verify-all", "dense-bracket"}
