"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is emitted, that the
correctness, counter and wall-limit gates fire, that the independent
expectations agree with the brute-force oracle, and that the benchmark
fails cleanly where the solver's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import cases
import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
sys.path.insert(0, os.path.join(run.ROOT, "tests"))

import oracle  # noqa: E402

TINY = [
    cases.Case("queens:n=5", "dom", "arc", "fifo", mode="count"),
    cases.Case("langford:k=2,n=3", "dom/wdeg", "arc", "a_dom/wdeg"),
    cases.Case("langford:k=2,n=3", "dom/wdeg", "arc", "fifo"),
    cases.Case("chessboard:rows=3,cols=3,colors=2", "impact", "variable", "fifo", mode="count"),
    cases.Case("chessboard:rows=3,cols=3,colors=2", "dom/wdeg+rsc", "variable", "fifo"),
    cases.Case(
        "modelRB:n=6,d=3,e=8,t=0.3,seed=1", "dom/wdeg", "variable", "fifo",
        restarts="geo:10:1.5", values="rand", seed=1,
    ),
]


def metric_names(section: str) -> set[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[section]}


def pinned_counters(plan) -> dict:
    api = run.load_api()
    record = {}
    for case in plan:
        out = api.search.solve(api.instances.parse_spec(case.spec), run.config_for(api, case))
        record[case.label] = {"counters": {k: getattr(out.stats, k) for k in run.COUNTERS}}
    return record


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(trace):
    lines, result = run.benchmark(TINY, 0.1, trace, 7, pinned_counters(TINY))
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= len(TINY)
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == metric_names(section)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert not [line for line in lines if line.startswith("counter drift")]
    assert [line for line in lines if line.startswith("compare langford:k=2,n=3 arc")]
    if trace:
        assert result["metrics"]["model.check_tuple.calls"]["value"] > 0
        assert not [line for line in lines if line.startswith("trace invariant broken")]


def test_correctness_gate_fires(monkeypatch):
    monkeypatch.setitem(cases.QUEENS_A000170, 5, 11)
    lines, result = run.benchmark(TINY[:1], 0.1, False, 7, {})
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("count 10, expected 11" in line for line in lines)


def test_counter_gate_fires():
    record = pinned_counters(TINY[:2])
    record[TINY[1].label]["counters"]["checks"] += 1
    lines, result = run.benchmark(TINY[:2], 0.1, False, 7, record)
    drift = [line for line in lines if line.startswith("counter drift")]
    assert len(drift) == 1 and TINY[1].label in drift[0] and "ALGORITHM CHANGE" in drift[0]
    assert result["correct"]  # a counter change is reported, not judged wrong


def test_wall_limit_fails_the_case(monkeypatch):
    monkeypatch.setattr(run, "CASE_LIMIT_S", 0.2)
    slow = [cases.Case("langford:k=3,n=5", "dom/wdeg", "arc", "a_dom/wdeg")]
    t0 = time.perf_counter()
    lines, result = run.benchmark(slow, 0.1, False, 7, {})
    assert time.perf_counter() - t0 < 10
    assert result["failed"] == result["attempted"] == run.MIN_PASSES
    assert any("wall limit" in line for line in lines)


def test_expectations_agree_with_oracle():
    api = run.load_api()
    for k, n in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]:
        count = oracle.count_solutions(api.instances.gen_langford(k, n))
        assert (count > 0) == cases.langford_exists(k, n)
    for n in range(1, 8):
        assert oracle.count_solutions(api.instances.gen_queens(n)) == cases.QUEENS_A000170[n]
    for rows, cols in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        problem = api.instances.gen_chessboard(rows, cols, 2)
        assert oracle.count_solutions(problem) == cases.rectangle_free_colourings(rows, cols)


def test_fails_without_solver_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-nary",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
