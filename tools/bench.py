"""Run perfbench on its workloads and write BENCH_<LABEL>.json at the repo root.

    python3 tools/bench.py LABEL [--against COMMIT]

For each workload in BENCHMARK.json it runs ``perfbench/run.py --trace 0``
10 times on this checkout, for BENCHMARK.json's ``run_seconds`` (35) each,
with seeds 1..10, then one ``--trace 1 --seconds 1`` run. With ``--against``
it also extracts COMMIT's tree into a temporary directory and runs it the
same way: run i of each side forms pair i, and the side that runs first
alternates from pair to pair. That side is written to BENCH_<LABEL>_parent.json,
so each run keeps its own, and LABEL's file names it and counts, per
end-to-end metric, the pairs in which LABEL's run was better. Its
``verdict`` then reads each metric as a review of the change would: a
``gain`` or not, and a ``regression`` of ``worse``, ``unresolved`` or
``none`` (see ``verdicts``). Its ``calls_differ`` names, per workload, every
traced count that differs between the two traced runs (see ``calls_differ``):
empty on every workload for a change that keeps the solver's work
bit-identical.

Before the perf runs it runs ``tests/grid.py --check`` in this checkout under
``PYTHONHASHSEED`` 0, 1 and 7 and records, per seed, the last stdout line and
the exit code in LABEL's ``identity`` block: the bit-identity record of the
solver's counters. A failing seed is recorded and does not stop the perf runs.

Each file holds, per workload: every end-to-end metric's median, quartiles
and runs; ``attempted`` per run (case runs, which ``peak_rss_mb`` and
``setup_s`` grow with); the traced run's per-layer metrics and ``compare``
lines; and perfbench's ``provenance`` line of every run, whose ``commit`` is
replaced by the side's own (perfbench reads HEAD, which misnames a dirty
checkout and is absent from an extracted tree). perfbench itself is not
changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600
PAIRS = 10
# traced counters of solver events that a pure speed-up leaves unchanged,
# besides every ".calls" metric
EVENT_COUNTS = ("revisions", "dwos", "search.restarts")
# hash seeds of the grid check: set and dict order must not move a counter
IDENTITY_SEEDS = (0, 1, 7)


def perfbench(
    tree: str, commit: str, workload: str, seed: int, seconds: float, trace: int
) -> dict:
    """One perfbench run in `tree` of `commit`: provenance, compare lines, result."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    # perfbench writes no bytecode, but would read a tree's __pycache__ (a
    # test run leaves one in the checkout, an extracted tree has none): an
    # empty cache prefix makes both sides compile every module from source
    with tempfile.TemporaryDirectory(prefix="macsolver-pycache-") as cache:
        done = subprocess.run(
            cmd, cwd=tree, env=dict(os.environ, PYTHONPYCACHEPREFIX=cache),
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[0].startswith("provenance "):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    provenance = json.loads(lines[0][len("provenance "):])
    provenance["commit"] = commit
    return {
        "provenance": provenance,
        "compare": [line for line in lines if line.startswith("compare ")],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def identity(tree: str) -> dict:
    """`tests/grid.py --check` in `tree` per hash seed: its last stdout line and exit code."""
    out = {}
    for seed in IDENTITY_SEEDS:
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=str(seed))
        try:
            done = subprocess.run(
                [sys.executable, "tests/grid.py", "--check"], cwd=tree, env=env,
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            lines = done.stdout.splitlines()
            out[str(seed)] = {"line": lines[-1] if lines else "", "exit": done.returncode}
        except subprocess.TimeoutExpired:
            out[str(seed)] = {"line": f"timed out after {RUN_TIMEOUT_S} s", "exit": None}
        print(f"grid check, hash seed {seed}: {out[str(seed)]}", file=sys.stderr)
    return out


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def workload_record(untraced: list[dict], traced: dict) -> dict:
    return {
        "attempted": [r["attempted"] for r in untraced],
        "failed": sum(r["failed"] for r in untraced + [traced]),
        "correct": all(r["correct"] for r in untraced + [traced]),
        "end_to_end": {
            k: summary([r["metrics"][k] for r in untraced]) for k in untraced[0]["metrics"]
        },
        "per_layer": traced["metrics"],
        "compare": traced["compare"],
        "provenance": [r["provenance"] for r in untraced + [traced]],
    }


def wins(mine: list[dict], theirs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric, the pairs in which `mine` read better."""
    out = {}
    for k, direction in better.items():
        sign = -1 if direction == "lower" else 1
        out[k] = sum(
            sign * (a["metrics"][k] - b["metrics"][k]) > 0 for a, b in zip(mine, theirs)
        )
    return out


def verdicts(mine: list[dict], theirs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per end-to-end metric, how `mine` reads against `theirs`, run i against run i.

    gain: `mine` is better in at least 9 of 10 pairs, and its median beats
    the parent's by more than the parent's quartile distance (q3 - q1).
    regression: "worse" when the median of `mine` is worse than the parent's
    by more than the metric's bound (a share of the parent's median);
    otherwise "unresolved" when the parent's quartile distance is wider than
    the bound, unless every run of `mine` reads better than every parent run;
    otherwise "none". `metrics` maps a name to its BENCHMARK.json entry.
    """
    won = wins(mine, theirs, {k: m["better"] for k, m in metrics.items()})
    out = {}
    for k, m in metrics.items():
        sign = -1 if m["better"] == "lower" else 1
        ours = [r["metrics"][k] for r in mine]
        parent = summary([r["metrics"][k] for r in theirs])
        ahead = sign * (statistics.median(ours) - parent["median"])  # > 0: better
        spread = parent["q3"] - parent["q1"]
        allowed = m["bound"] * abs(parent["median"])
        # every run of `mine` better than every parent run
        apart = min(sign * v for v in ours) > max(sign * v for v in parent["runs"])
        if -ahead > allowed:
            regression = "worse"
        elif spread > allowed and not apart:
            regression = "unresolved"
        else:
            regression = "none"
        gain = won[k] * 10 >= 9 * len(mine) and ahead > spread
        out[k] = {"gain": gain, "regression": regression}
    return out


def calls_differ(mine: dict, theirs: dict) -> dict:
    """Per-layer counts that differ between two traced runs: name -> [mine, theirs].

    The counts are every ``.calls`` metric (``.calls.<caller>`` included) and
    EVENT_COUNTS; a count missing on one side reads None there.
    """
    names = sorted(
        k for k in set(mine) | set(theirs)
        if k.endswith(".calls") or ".calls." in k or k in EVENT_COUNTS
    )
    return {k: [mine.get(k), theirs.get(k)] for k in names if mine.get(k) != theirs.get(k)}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(commit: str, dest: str) -> None:
    """Write `commit`'s tree into `dest`."""
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {commit} failed")


def write(label: str, doc: dict) -> None:
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    better = {k: m["better"] for k, m in metrics.items()}
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--against", metavar="COMMIT")
    args = ap.parse_args(argv)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    sides = [(args.label, ROOT, head + (" plus uncommitted changes" if dirty else ""))]
    grid = identity(ROOT)
    with tempfile.TemporaryDirectory(prefix="macsolver-bench-") as tmp:
        if args.against:
            commit = git("rev-parse", "--verify", args.against + "^{commit}")
            extract(commit, tmp)
            sides.append((args.label + "_parent", tmp, commit))
        runs = {label: {w: [] for w in names} for label, _, _ in sides}
        traced = {label: {} for label, _, _ in sides}
        for w in names:
            for i in range(PAIRS):
                order = sides if i % 2 == 0 else sides[::-1]
                for label, tree, commit in order:
                    print(f"{w} pair {i + 1}/{PAIRS}: {label}", file=sys.stderr)
                    runs[label][w].append(perfbench(tree, commit, w, i + 1, seconds, 0))
            for label, tree, commit in sides:
                traced[label][w] = perfbench(tree, commit, w, 1, 1, 1)
    for label, _, commit in sides:
        doc = {
            "label": label,
            "commit": commit,
            "seconds": seconds,
            "pairs": PAIRS,
            "workloads": {
                w: workload_record(runs[label][w], traced[label][w]) for w in names
            },
        }
        if label == args.label:
            doc["identity"] = grid
        if label == args.label and args.against:
            other, _, other_commit = sides[1]
            doc["against"] = {
                "label": other,
                "commit": other_commit,
                "wins": {w: wins(runs[label][w], runs[other][w], better) for w in names},
                "verdict": {
                    w: verdicts(runs[label][w], runs[other][w], metrics) for w in names
                },
                "calls_differ": {
                    w: calls_differ(traced[label][w]["metrics"], traced[other][w]["metrics"])
                    for w in names
                },
            }
        write(label, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
