import importlib.util
import json
import os
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


def test_records_each_checkouts_source_line_count(tmp_path, monkeypatch):
    # Lines of the .py files under src/virmagri, subpackages included.
    for side, files in (("a", {"x.py": "1\n2\n", "sub/y.py": "3\n", "z.txt": "4\n"}),
                        ("b", {"x.py": "1\n"})):
        _repo(tmp_path / side)
        for name, text in files.items():
            path = tmp_path / side / "src" / "virmagri" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    monkeypatch.setattr(bench_ab, "_run", _fake_run([]))
    out = tmp_path / "BENCH.json"
    assert bench_ab.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                          "--workload", "verify-all", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 1}


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    """Synthetic bench_ab pairs of correct runs with no failed operation:
    wall_s as given, the other metrics 1.0."""
    def row(wall):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m: wall if m == "wall_s" else 1.0 for m in bench_ab.METRICS}}
    return [{"parent": row(a), "change": row(b)} for a, b in zip(parent, change)]


def test_summary_gives_the_median_ratio_with_a_sign_test_interval():
    parent = [10.0, 8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 9.0, 10.0]
    ratios = [0.9, 0.7, 0.95, 0.8, 0.85, 1.1, 0.75, 0.6, 0.82, 0.88]
    summary = bench_ab._summary(_pairs(parent, [a * r for a, r in zip(parent, ratios)]))
    got = summary["wall_s"]["change_to_parent_ratio"]
    # Ten pairs: the 2nd smallest to the 2nd largest ratio, coverage
    # 1 - 2 * 11/1024; the 3rd would cover only 1 - 2 * 56/1024 < 0.95.
    assert got["median"] == pytest.approx(0.835)
    assert got["interval"] == pytest.approx([0.7, 0.95])
    assert got["confidence"] == pytest.approx(1 - 22 / 1024)
    assert summary["wall_s"]["change_lower_in_pairs"] == 9
    flat = summary["peak_rss_mb"]["change_to_parent_ratio"]
    assert flat == {"median": 1.0, "interval": [1.0, 1.0],
                    "confidence": pytest.approx(1 - 22 / 1024)}


def test_sign_test_interval_on_few_pairs():
    # Below six pairs no interval reaches 95%: the full range, with its coverage.
    got = bench_ab._ratio([1.2, 0.9, 1.0, 1.1, 0.8])
    assert got == {"median": 1.0, "interval": [0.8, 1.2], "confidence": 1 - 2 / 32}
    assert bench_ab._ratio([0.5])["interval"] == [0.5, 0.5]
    assert bench_ab._ratio([]) is None
    # Twenty pairs: the 6th smallest to the 6th largest.
    got = bench_ab._ratio([i / 20 for i in range(20, 0, -1)])
    assert got["interval"] == [6 / 20, 15 / 20]
    assert got["confidence"] == pytest.approx(0.9586, abs=1e-4)


def test_each_run_gets_a_fresh_bytecode_cache(monkeypatch):
    seen = []

    def fake(argv, cwd, env, capture_output, text):
        cache = env["PYTHONPYCACHEPREFIX"]
        # Fresh, and written to: without writes every run would compile
        # the standard library in every interpreter it starts.
        fresh = os.path.isdir(cache) and not os.listdir(cache)
        seen.append((cache, argv[-1] == "--help",
                     fresh and "PYTHONDONTWRITEBYTECODE" not in env))
        Path(cache, "stale.pyc").write_bytes(b"")
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m: {"value": 1.0} for m in bench_ab.METRICS}}
        return subprocess.CompletedProcess(argv, 0, json.dumps(line) + "\n", "")

    monkeypatch.setattr(bench_ab.subprocess, "run", fake)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for checkout in ("parent", "change", "parent"):
        assert bench_ab._run(checkout, "verify-all", 1, trace=False)["correct"]
    caches = [cache for cache, _, _ in seen]
    # Each run's cache exists and is empty when its untimed `--help` call
    # starts, serves that run's measured call next, is its own, and is gone
    # once the run is over.
    assert [(warm, fresh) for _, warm, fresh in seen] == [(True, True), (False, False)] * 3
    assert caches[0::2] == caches[1::2] and len(set(caches)) == 3
    assert not any(os.path.exists(cache) for cache in caches)


def test_summary_and_pair_lines_give_each_sides_pass_count(tmp_path, monkeypatch, capsys):
    pairs = _pairs([1.0] * 5, [1.0] * 5)
    for p, (a, b) in zip(pairs, [(17, 20), (16, 21), (17, 22), (18, 20), (17, 19)]):
        p["parent"]["pass_walls_s"], p["change"]["pass_walls_s"] = [1.0] * a, [1.0] * b
    assert bench_ab._summary(pairs)["passes"] == {"parent": 17, "change": 20}
    # Rows without pass walls (perfbench printed none) have no pass count.
    assert bench_ab._summary(_pairs([1.0], [1.0]))["passes"] == {"parent": None, "change": None}

    _repo(tmp_path / "a")
    _repo(tmp_path / "b")

    def run(checkout, workload, seed, trace):
        n = 12 if checkout.endswith("a") else 9
        return {"correct": True, "attempted": 1, "failed": 0, "pass_walls_s": [0.5] * n,
                "metrics": {m: 1.0 for m in bench_ab.METRICS}}

    monkeypatch.setattr(bench_ab, "_run", run)
    out = tmp_path / "BENCH.json"
    assert bench_ab.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                          "--workload", "cli-large", "--out", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == bench_ab.PAIRS and all(l.endswith("passes 12 and 9") for l in lines)
    summary = json.loads(out.read_text())["workloads"]["cli-large"]["summary"]
    assert summary["passes"] == {"parent": 12, "change": 9}


def test_summary_and_pair_lines_count_each_sides_failures(tmp_path, monkeypatch, capsys):
    # The change's third run is incorrect and fails 2 of its 40 operations.
    pairs = _pairs([1.0] * 4, [1.0] * 4)
    for p in pairs:
        p["parent"]["attempted"], p["change"]["attempted"] = 50, 40
    pairs[2]["change"].update(correct=False, failed=2)
    assert bench_ab._summary(pairs)["failures"] == {
        "parent": {"incorrect_runs": 0, "failed": 0, "attempted": 200, "failed_share": 0.0},
        "change": {"incorrect_runs": 1, "failed": 2, "attempted": 160, "failed_share": 2 / 160}}
    assert bench_ab._failures([])["parent"] == {"incorrect_runs": 0, "failed": 0, "attempted": 0, "failed_share": None}

    _repo(tmp_path / "a")
    _repo(tmp_path / "b")
    calls = []

    def run(checkout, workload, seed, trace):
        calls.append(checkout)
        bad = checkout.endswith("b") and len(calls) in (3, 4)  # the change in pair 2
        return {"correct": not bad, "attempted": 10, "failed": 3 if bad else 0,
                "metrics": {m: 1.0 for m in bench_ab.METRICS}}

    monkeypatch.setattr(bench_ab, "_run", run)
    out = tmp_path / "BENCH.json"
    assert bench_ab.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                          "--workload", "dense-bracket", "--out", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert "failed 0/10 and 0/10, incorrect runs 0 and 0, passes None and None" in lines[0]
    assert "failed 0/20 and 3/20, incorrect runs 0 and 1," in lines[1]
    assert "failed 0/%d and 3/%d, incorrect runs 0 and 1," % (10 * bench_ab.PAIRS,
                                                              10 * bench_ab.PAIRS) in lines[-1]
    summary = json.loads(out.read_text())["workloads"]["dense-bracket"]["summary"]
    assert summary["failures"]["change"] == {"incorrect_runs": 1, "failed": 3,
                                             "attempted": 10 * bench_ab.PAIRS,
                                             "failed_share": 3 / (10 * bench_ab.PAIRS)}
