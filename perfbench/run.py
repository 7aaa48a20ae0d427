"""Layered benchmark for macsolver.

Run from the repository root:

    python3 perfbench/run.py --workload langford-weighted --seed 1 --seconds 30 --trace 0

One process runs one workload: a closed loop with one client that solves
the workload's cases one after another, through the public API
(``instances.parse_spec`` and ``search.solve`` with a ``SearchConfig``).
The seed only shuffles the order of the cases in each pass, so every seed
does the same work and the exact counters repeat.

With ``--trace 0`` it repeats untraced passes for about ``--seconds`` and
prints the end-to-end metrics (medians over passes). With ``--trace 1`` it
runs one untraced pass and then traced passes, and prints the per-layer
metrics. Every answer is checked against an expectation from outside the
solver (see ``cases.py``); every case's counters are compared with the
record in ``expected.json``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

# Write no bytecode caches into the checkout, and compile the solver's
# sources the same way on every run and every set-up repetition.
sys.dont_write_bytecode = True

import cases  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5  # before measuring; one more precedes every later untraced pass
MIN_PASSES = 3
CASE_LIMIT_S = 60.0  # hard wall limit per case, untraced
TRACED_CASE_LIMIT_S = 150.0
RUN_LIMIT_S = 150.0  # no case starts or runs past this point of a run
COUNTERS = ("nodes", "checks", "revisions", "dwos", "restarts")
MODULES = ("model", "propagation", "heuristics", "search", "instances")


class CaseOverrun(Exception):
    """Raised from the wall-limit alarm into whatever the solver is running."""


def _overrun(signum, frame):
    raise CaseOverrun


@dataclass
class CaseResult:
    label: str
    result: str
    count: int
    counters: dict | None
    cpu_s: float
    error: str | None


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    results: list[CaseResult]
    tracer: Tracer | None = None

    def total(self, counter: str) -> int:
        return sum(r.counters[counter] for r in self.results if r.counters)


def load_api():
    """Import the package afresh and return its modules."""
    for name in [m for m in sys.modules if m == "macsolver" or m.startswith("macsolver.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"macsolver.{m}") for m in MODULES})


def set_up(plan_cases: list[cases.Case], times: list, parse_times: list):
    """Import, generate every instance and build every config, once.

    Appends the set-up time and the time spent in ``parse_spec`` to the lists.
    """
    t0 = time.perf_counter()
    api = load_api()
    t1 = time.perf_counter()
    problems = {spec: api.instances.parse_spec(spec) for spec in {c.spec for c in plan_cases}}
    t2 = time.perf_counter()
    configs = [config_for(api, c) for c in plan_cases]
    times.append(time.perf_counter() - t0)
    parse_times.append(t2 - t1)
    return api, problems, configs


def config_for(api, case: cases.Case):
    return api.search.SearchConfig(
        heuristic=api.heuristics.parse_heuristic(case.var),
        scheme=case.scheme,
        policy=case.policy,
        restarts=api.search.parse_restarts(case.restarts),
        value_order=case.values,
        seed=case.seed,
        mode=case.mode,
    )


def judge(problem, out, exp: cases.Expect | None) -> str | None:
    """Why the outcome is wrong, or None when it is right.

    A sat solution is re-checked with ``Constraint.test`` directly, which
    adds no checks to the solver's counter.
    """
    if exp is None:
        return "no independent expectation for this case"
    if out.result != exp.result:
        return f"verdict {out.result}, expected {exp.result} ({exp.source})"
    if exp.count is not None and out.count != exp.count:
        return f"count {out.count}, expected {exp.count} ({exp.source})"
    if out.result == "sat" and exp.count is None:
        sol = out.solution
        if sol is None or set(sol) != set(problem.variables):
            return "sat without a complete solution"
        if any(sol[x] not in problem.domains[x] for x in problem.variables):
            return "solution value outside its domain"
        for c in problem.constraints:
            if not c.test(tuple(sol[x] for x in c.scope)):
                return f"solution violates constraint {c.id}"
    return None


def run_case(api, case, problem, cfg, exp, limit_s: float, tracer: Tracer | None) -> CaseResult:
    """Solve one case under a hard wall limit enforced by a SIGALRM timer."""
    c0 = time.process_time()
    out = error = None
    if limit_s <= 0:
        error = "run deadline reached before the case started"
    else:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                if tracer is None:
                    out = api.search.solve(problem, cfg)
                else:
                    with tracer.case(case.label):
                        out = api.search.solve(problem, cfg)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CaseOverrun:
            error = f"over the {limit_s:.1f} s wall limit"
            out = None
        except Exception as err:  # a crash fails this case, not the run
            error = f"{type(err).__name__}: {err}"
            out = None
    cpu = time.process_time() - c0
    if out is None:
        return CaseResult(case.label, "error", 0, None, cpu, error)
    error = judge(problem, out, exp)
    counters = {k: getattr(out.stats, k) for k in COUNTERS}
    return CaseResult(case.label, out.result, out.count, counters, cpu, error)


def run_pass(api, plan, order, limit_s, deadline, tracer=None) -> Pass:
    results: list[CaseResult | None] = [None] * len(plan)
    w0, c0 = time.perf_counter(), time.process_time()
    for i in order:
        case, problem, cfg, exp = plan[i]
        left = min(limit_s, deadline - time.perf_counter())
        results[i] = run_case(api, case, problem, cfg, exp, left, tracer)
    return Pass(time.perf_counter() - w0, time.process_time() - c0, results, tracer)


def measure(api, plan, seconds: float, trace: bool, seed: int, between):
    """Untraced passes for about `seconds` (at least MIN_PASSES), or, when
    tracing, one untraced pass followed by traced passes.

    `between` runs before every later untraced pass; it repeats the set-up so
    that set-up time is sampled across the whole run, not in one burst.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    def order():
        idx = list(range(len(plan)))
        rng.shuffle(idx)
        return idx

    def room(last: Pass, minimum: int, done: int) -> bool:
        end = time.perf_counter() - start + last.wall_s
        return end <= seconds or (done < minimum and end <= RUN_LIMIT_S * 0.6)

    untraced = [run_pass(api, plan, order(), CASE_LIMIT_S, deadline)]
    traced: list[Pass] = []
    if not trace:
        while room(untraced[-1], MIN_PASSES, len(untraced)):
            between()
            untraced.append(run_pass(api, plan, order(), CASE_LIMIT_S, deadline))
        return untraced, traced
    while not traced or room(traced[-1], 1, len(traced)):
        tracer = Tracer()
        with tracer.installed(api):
            traced.append(run_pass(api, plan, order(), TRACED_CASE_LIMIT_S, deadline, tracer))
    return untraced, traced


def counter_drift(passes: list[Pass], pinned: dict) -> list[str]:
    """Cases whose exact counters differ from the record or between passes."""
    drift = []
    seen: dict[str, dict] = {}
    for p in passes:
        for r in p.results:
            if r.counters is None:
                continue
            first = seen.setdefault(r.label, r.counters)
            if r.counters != first:
                drift.append(f"{r.label}: counters not repeatable: {first} then {r.counters}")
    for label, got in seen.items():
        want = pinned.get(label, {}).get("counters")
        if want is None:
            drift.append(f"{label}: no pinned counter record")
        elif got != want:
            diff = ", ".join(f"{k} {want[k]} -> {got[k]}" for k in COUNTERS if got[k] != want[k])
            drift.append(f"{label}: ALGORITHM CHANGE: {diff}")
    return drift


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: Pass) -> dict[str, float]:
    t = p.tracer
    support_calls = t.calls("model.seek_support")
    propagate_calls = t.calls("propagation.propagate")
    return {
        "model.check_tuple.calls": t.calls("model.check_tuple"),
        "model.check_tuple.self_s": t.self_s("model.check_tuple"),
        "model.seek_support.calls": support_calls,
        "model.seek_support.self_s": t.self_s("model.seek_support"),
        "model.checks_per_support": ratio(
            t.calls("model.check_tuple", parent="model.seek_support"), support_calls
        ),
        "model.support_found_ratio": ratio(t.hits("model.seek_support"), support_calls),
        "model.current.calls": t.calls("model.current"),
        "model.trail.calls": t.calls("model.trail"),
        "model.trail.self_s": t.self_s("model.trail"),
        "propagation.propagate.calls": propagate_calls,
        "propagation.propagate.self_s": t.self_s("propagation.propagate"),
        "propagation.ctr.calls": t.calls("propagation.ctr")
        + t.calls("propagation.needs_not_be_revised"),
        "propagation.ctr.self_s": t.self_s("propagation.ctr", "propagation.needs_not_be_revised"),
        "propagation.skip_ratio": ratio(
            t.hits("propagation.needs_not_be_revised"),
            t.calls("propagation.needs_not_be_revised"),
        ),
        "propagation.revise.calls": t.calls("propagation.revise"),
        "propagation.revise.self_s": t.self_s("propagation.revise"),
        "propagation.revise.fruitful_ratio": ratio(
            t.hits("propagation.revise"), t.calls("propagation.revise")
        ),
        "revisions": p.total("revisions"),
        "dwos": p.total("dwos"),
        "propagation.dwo_ratio": ratio(t.hits("propagation.propagate"), propagate_calls),
        "propagation.select_next.calls": t.calls("propagation.select_next"),
        "propagation.select_next.self_s": t.self_s("propagation.select_next"),
        "heuristics.wdeg.calls": t.calls("heuristics.wdeg"),
        "heuristics.wdeg.self_s": t.self_s("heuristics.wdeg"),
        "heuristics.wdeg.calls.select_next": t.calls(
            "heuristics.wdeg", parent="propagation.select_next"
        ),
        "heuristics.wdeg.calls.select_variable": t.calls(
            "heuristics.wdeg", parent="heuristics.select_variable"
        ),
        "heuristics.select_variable.calls": t.calls("heuristics.select_variable"),
        "heuristics.select_variable.self_s": t.self_s("heuristics.select_variable"),
        "heuristics.weights.self_s": t.self_s("heuristics.weights"),
        "heuristics.impact.self_s": t.self_s(
            "heuristics.init_impacts", "heuristics.space_product",
            "heuristics.observe_impact", "heuristics.variable_impact",
        ),
        "heuristics.space_product.calls": t.calls("heuristics.space_product"),
        "heuristics.probe.self_s": t.self_s("heuristics.probe"),
        "heuristics.probe.propagate_s": t.total_s(
            "propagation.propagate", parent="heuristics.probe"
        ),
        "search.solve.self_s": t.self_s("search.solve"),
        "search.restarts": p.total("restarts"),
    }


def trace_violations(untraced: Pass, traced: list[Pass]) -> list[str]:
    """Tracing must change no counter, and every check is one check_tuple call."""
    bad = []
    base = {r.label: r.counters for r in untraced.results if r.counters}
    for p in traced:
        if all(r.counters for r in p.results):
            calls, checks = p.tracer.calls("model.check_tuple"), p.total("checks")
            if calls != checks:
                bad.append(f"model.check_tuple.calls {calls} != checks {checks}")
        for r in p.results:
            if r.counters and r.label in base and r.counters != base[r.label]:
                bad.append(f"{r.label}: tracing changed counters {base[r.label]} -> {r.counters}")
    return bad


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def comparison_rows(plan, passes: list[Pass]) -> list[str]:
    """Weighted revision order against fifo per (instance, scheme)."""
    per_case = {}
    for i, (case, *_rest) in enumerate(plan):
        runs = [p.results[i] for p in passes if p.results[i].counters]
        if runs:
            per_case[(case.spec, case.scheme, case.policy)] = (
                runs[0].counters["checks"], statistics.median(r.cpu_s for r in runs)
            )
    rows = []
    for (spec, scheme, policy), (checks, cpu) in per_case.items():
        if policy == "fifo" or (spec, scheme, "fifo") not in per_case:
            continue
        f_checks, f_cpu = per_case[(spec, scheme, "fifo")]
        rows.append(
            f"compare {spec} {scheme}: {policy} vs fifo: checks {checks} vs {f_checks} "
            f"(x{ratio(checks, f_checks):.3f}), cpu_s {cpu:.4f} vs {f_cpu:.4f} "
            f"(x{ratio(cpu, f_cpu):.2f})"
        )
    return rows


def layer_table(p: Pass) -> list[str]:
    by_name = p.tracer.self_by_name()
    total = sum(by_name.values())
    return [
        f"self {name:36s} {s:9.4f} s {100 * ratio(s, total):5.1f}%"
        for name, s in sorted(by_name.items(), key=lambda kv: -kv[1])
    ]


def benchmark(plan_cases, seconds: float, trace: bool, seed: int, pinned: dict):
    """Set up, measure and judge one workload.

    Returns (report lines, result object) where the result object is what
    the last line of standard output carries.
    """
    setup_times: list[float] = []
    parse_times: list[float] = []
    for _ in range(SETUP_REPS):
        api, problems, configs = set_up(plan_cases, setup_times, parse_times)
    plan = [
        (c, problems[c.spec], cfg, cases.expect(c, pinned))
        for c, cfg in zip(plan_cases, configs)
    ]
    old = signal.signal(signal.SIGALRM, _overrun)
    try:
        untraced, traced = measure(
            api, plan, seconds, trace, seed,
            between=lambda: set_up(plan_cases, setup_times, parse_times),
        )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    everything = untraced + traced
    runs = [r for p in everything for r in p.results]
    failed = sum(r.error is not None for r in runs)
    lines = []
    for i, (case, _, _, exp) in enumerate(plan):
        r = untraced[0].results[i]
        cpu = statistics.median(p.results[i].cpu_s for p in untraced)
        want = f"{exp.result} count={exp.count} ({exp.source})" if exp else "none"
        status = "ok" if r.error is None else f"FAIL {r.error}"
        lines.append(
            f"case {case.label} | {r.result} count={r.count} {r.counters} cpu_s={cpu:.4f}"
            f" | expected {want} | {status}"
        )
    lines += [f"failed {r.label}: {r.error}" for p in everything[1:] for r in p.results if r.error]
    lines += [f"counter drift {d}" for d in counter_drift(everything, pinned)]
    lines += comparison_rows(plan, untraced)
    violations = trace_violations(untraced[0], traced) if trace else []
    lines += [f"trace invariant broken: {v}" for v in violations]

    wall = statistics.median(p.wall_s for p in untraced)
    cpu = statistics.median(p.cpu_s for p in untraced)
    if trace:
        values = median_of([layer_metrics(p) for p in traced])
        values["instances.parse_spec_s"] = statistics.median(parse_times)
        values["search.nodes_per_s"] = ratio(statistics.median(p.total("nodes") for p in untraced), wall)
        values["trace.overhead_cpu_s"] = statistics.median(p.cpu_s for p in traced) - cpu
        values["failed_share"] = ratio(failed, len(runs))
        lines += [f"span {label} {end - start:.4f} s" for label, start, end in traced[0].tracer.cases]
        lines += layer_table(traced[0])
    else:
        values = {
            "wall_s": wall,
            "cpu_s": cpu,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_share": ratio(len(runs) - failed, len(runs)),
            "checks": statistics.median_low(p.total("checks") for p in untraced),
            "nodes": statistics.median_low(p.total("nodes") for p in untraced),
        }
    units = metric_units(trace)
    result = {
        "correct": failed == 0 and not violations,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    lines += [
        f"pass {'traced' if p.tracer else 'untraced'} wall_s={p.wall_s:.4f} cpu_s={p.cpu_s:.4f}"
        for p in everything
    ]
    return lines, result


def metric_units(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "macsolver", "__init__.py")):
        print(f"perfbench: no macsolver sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(HERE, "expected.json")) as f:
        pinned = json.load(f)["cases"]
    plan_cases = cases.WORKLOADS[args.workload]()
    provenance = {
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": [c.label for c in plan_cases],
    }
    print("provenance " + json.dumps(provenance), flush=True)
    lines, result = benchmark(plan_cases, args.seconds, bool(args.trace), args.seed, pinned)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
