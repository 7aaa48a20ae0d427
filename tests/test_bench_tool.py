import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def run(wall, share, attempted=10):
    return {
        "provenance": {"seed": 1},
        "compare": [],
        "attempted": attempted,
        "failed": 0,
        "correct": True,
        "metrics": {"wall_s": wall, "passed_share": share},
    }


def test_summary_gives_median_and_quartiles():
    assert bench.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [4.0, 1.0, 3.0, 2.0, 5.0],
    }
    assert bench.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "runs": [2.5]}


def test_wins_count_better_pairs_by_direction_ties_for_neither():
    mine = [run(1.0, 1.0), run(2.0, 0.5), run(3.0, 1.0)]
    theirs = [run(2.0, 1.0), run(2.0, 1.0), run(1.0, 0.9)]
    got = bench.wins(mine, theirs, {"wall_s": "lower", "passed_share": "higher"})
    assert got == {"wall_s": 1, "passed_share": 1}


def walls(values):
    return [run(v, 1.0) for v in values]


WALL = {"wall_s": {"better": "lower", "bound": 0.25}}
PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
# median 10, quartiles 5 and 15: a spread twice the 25% bound
WIDE = [5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 15.0, 15.0, 15.0]


@pytest.mark.parametrize(
    "mine, theirs, gain, regression",
    [
        # better in 10 of 10 pairs, by far more than the parent's quartile distance
        ([v - 3.0 for v in PARENT], PARENT, True, "none"),
        # better in 8 of 10 pairs only
        ([v - 3.0 for v in PARENT[:8]] + [10.5, 10.5], PARENT, False, "none"),
        # better in every pair, but by less than the quartile distance
        ([v - 0.01 for v in PARENT], PARENT, False, "none"),
        # the median is 30% worse, past the 25% bound
        ([v * 1.3 for v in PARENT], PARENT, False, "worse"),
        # level medians, but the parent's quartiles spread past the bound
        ([10.0] * 10, WIDE, False, "unresolved"),
        # the same spread, but every run of mine beats every parent run; its
        # median gains 6, inside the quartile distance of 10, so no gain
        ([4.0] * 10, WIDE, False, "none"),
    ],
)
def test_verdicts_read_each_outcome(mine, theirs, gain, regression):
    got = bench.verdicts(walls(mine), walls(theirs), WALL)
    assert got == {"wall_s": {"gain": gain, "regression": regression}}


def test_verdicts_respect_a_metric_where_higher_is_better():
    share = {"passed_share": {"better": "higher", "bound": 0.01}}
    mine = [run(1.0, 0.9) for _ in range(10)]
    theirs = [run(1.0, 1.0) for _ in range(10)]
    assert bench.verdicts(mine, theirs, share) == {
        "passed_share": {"gain": False, "regression": "worse"},
    }
    assert bench.verdicts(theirs, mine, share) == {
        "passed_share": {"gain": True, "regression": "none"},
    }


def test_workload_record_keeps_every_run():
    traced = run(0.0, 1.0)
    traced["metrics"] = {"revisions": 7}
    rec = bench.workload_record([run(1.0, 1.0, 8), run(3.0, 1.0, 9)], traced)
    assert rec["attempted"] == [8, 9]
    assert rec["end_to_end"]["wall_s"]["median"] == pytest.approx(2.0)
    assert rec["per_layer"] == {"revisions": 7}
    assert rec["correct"] and rec["failed"] == 0
    assert len(rec["provenance"]) == 3


def test_perfbench_run_carries_its_side_commit(monkeypatch):
    out = "\n".join([
        'provenance {"commit": "read from HEAD", "seed": 1}',
        "compare wall_s 1.0",
        '{"attempted": 3, "failed": 0, "correct": true, "metrics": {"wall_s": {"value": 1.0}}}',
    ])
    done = bench.subprocess.CompletedProcess([], 0, stdout=out, stderr="")
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: done)
    got = bench.perfbench("tree", "abc plus uncommitted changes", "w", 1, 35, 0)
    assert got["provenance"] == {"commit": "abc plus uncommitted changes", "seed": 1}
    assert got["compare"] == ["compare wall_s 1.0"]
    assert got["metrics"] == {"wall_s": 1.0} and got["attempted"] == 3


def test_perfbench_runs_with_an_empty_bytecode_cache(monkeypatch):
    out = "\n".join([
        'provenance {"seed": 1}',
        '{"attempted": 1, "failed": 0, "correct": true, "metrics": {}}',
    ])
    seen = []

    def fake(cmd, **kwargs):
        prefix = kwargs["env"]["PYTHONPYCACHEPREFIX"]
        seen.append((prefix, os.listdir(prefix), kwargs["env"].get("PATH")))
        return bench.subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setenv("PATH", "/kept")
    monkeypatch.setattr(bench.subprocess, "run", fake)
    for _ in range(2):
        bench.perfbench("tree", "abc", "w", 1, 35, 0)
    # each run gets its own empty prefix, which is gone afterwards
    assert [listing for _, listing, _ in seen] == [[], []]
    assert [path for _, _, path in seen] == ["/kept", "/kept"]
    assert not any(os.path.exists(prefix) for prefix, _, _ in seen)


def test_against_side_is_written_to_its_own_parent_file(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 35,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
    }))
    answers = {("rev-parse", "HEAD"): "abc", ("status", "--porcelain", "--untracked-files=no"): ""}
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "git", lambda *a: answers.get(a, "def"))
    monkeypatch.setattr(bench, "extract", lambda commit, dest: None)
    monkeypatch.setattr(bench, "perfbench", lambda tree, commit, *a: run(1.0, 1.0))
    assert bench.main(["pr9", "--against", "HEAD~1"]) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "BENCHMARK.json", "BENCH_pr9.json", "BENCH_pr9_parent.json",
    ]
    mine = json.loads((tmp_path / "BENCH_pr9.json").read_text())
    theirs = json.loads((tmp_path / "BENCH_pr9_parent.json").read_text())
    assert (mine["label"], mine["commit"]) == ("pr9", "abc")
    assert mine["against"]["label"] == theirs["label"] == "pr9_parent"
    assert mine["against"]["commit"] == theirs["commit"] == "def"
    assert mine["against"]["wins"] == {"w": {"wall_s": 0}}
    assert mine["against"]["verdict"] == {"w": {"wall_s": {"gain": False, "regression": "none"}}}


def test_calls_differ_names_each_traced_count_that_moved():
    mine = {
        "model.check_tuple.calls": 5, "heuristics.wdeg.calls.select_next": 3,
        "revisions": 7, "dwos": 2, "search.restarts": 1,
        "model.check_tuple.self_s": 0.5, "model.checks_per_support": 1.5,
    }
    theirs = dict(mine, dwos=3, **{
        "heuristics.wdeg.calls.select_next": 4,
        "model.check_tuple.self_s": 0.7, "model.checks_per_support": 1.25,
    })
    del theirs["search.restarts"]
    # times and ratios may differ; counts may not
    assert bench.calls_differ(mine, theirs) == {
        "dwos": [2, 3],
        "heuristics.wdeg.calls.select_next": [3, 4],
        "search.restarts": [1, None],
    }
    assert bench.calls_differ(mine, dict(mine)) == {}


def test_against_block_holds_calls_differ_per_workload(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 35,
        "workloads": [{"name": "w"}, {"name": "v"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
    }))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "git", lambda *a: "" if a[0] == "status" else "abc")
    monkeypatch.setattr(bench, "extract", lambda commit, dest: None)

    def fake(tree, commit, workload, seed, seconds, trace):
        out = run(1.0, 1.0)
        if trace:
            # the parent's tree calls revise once more on workload w only
            extra = tree != str(tmp_path) and workload == "w"
            out["metrics"] = {"propagation.revise.calls": 10 + extra, "revisions": 4}
        return out

    monkeypatch.setattr(bench, "perfbench", fake)
    assert bench.main(["pr9", "--against", "HEAD~1"]) == 0
    mine = json.loads((tmp_path / "BENCH_pr9.json").read_text())
    assert mine["against"]["calls_differ"] == {
        "w": {"propagation.revise.calls": [10, 11]}, "v": {},
    }
