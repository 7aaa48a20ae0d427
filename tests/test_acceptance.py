"""End-to-end acceptance checks.

One test per acceptance criterion, in order. Each prints a PASS line so a
verbose run doubles as a checklist. Criterion 10 is directional: a violation
is reported as a warning, not a failure.
"""

import time
import warnings
from statistics import median

import pytest

from oracle import ac_fixpoint, count_solutions
from macsolver import solve, SearchConfig
from macsolver.harness import (
    ExperimentSpec,
    dependency_report,
    run_experiment,
    variance,
)
from macsolver.heuristics import (
    HeuristicState,
    ImpactStore,
    VOHeuristic,
    WeightStore,
    init_impacts,
    parse_heuristic,
    partition_parts,
    variable_impact,
)
from macsolver.instances import gen_langford, gen_model_d, gen_model_rb, gen_queens
from macsolver.model import Constraint, Problem
from macsolver.propagation import (
    POLICIES_BY_SCHEME,
    RevisionQueue,
    initial_queue,
    propagate,
)
from macsolver.search import (
    ArithmeticRestarts,
    GeometricRestarts,
    next_cutoff,
    parse_restarts,
)

ALL_COMBOS = [(s, p) for s, pols in POLICIES_BY_SCHEME.items() for p in pols]


def test_criterion_01_fixpoint_equivalence():
    # 200 random binary instances (n <= 15, d <= 8), every scheme x policy
    # combination, compared exactly against an independent fixpoint oracle
    t0 = time.monotonic()
    assert len(ALL_COMBOS) == 13
    wipeouts = 0
    for seed in range(200):
        n = 4 + seed % 12
        d_size = 2 + seed % 7
        e = min(n * (n - 1) // 2, n + 1 + seed % 7)
        t = 0.4 + 0.05 * (seed % 8)
        p = gen_model_d(n=n, d=d_size, e=e, t=t, seed=1000 + seed)
        want = ac_fixpoint(p)
        wipeouts += want is None
        for scheme, policy in ALL_COMBOS:
            state = HeuristicState(p, WeightStore(p), policy=policy)
            out = propagate(state, initial_queue(p, scheme))
            store = state.d
            if want is None:
                assert not out.consistent, (seed, scheme, policy)
            else:
                assert out.consistent, (seed, scheme, policy)
                got = {x: set(store.current(x)) for x in p.variables}
                assert got == {k: set(v) for k, v in want.items()}, (
                    seed,
                    scheme,
                    policy,
                )
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    assert 0 < wipeouts < 200  # both outcomes are exercised
    print(
        f"criterion 1: PASS (200 instances x 13 combos match the fixpoint "
        f"oracle exactly, {wipeouts} wipeouts, {elapsed:.1f}s)"
    )


ACCEPTANCE_HEURISTICS = (
    "dom",
    "deg",
    "ddeg",
    "dom+deg",
    "dom/ddeg",
    "mdvo",
    "wdeg",
    "dom/wdeg",
    "alldel",
    "fully",
    "impact",
    "dom/wdeg+rsc",
    "impact+nodeimpact",
    "dom/wdeg+probe",
)


def search_grid(seed):
    """26 configurations spanning heuristic x revision policy x restart."""
    triples = [(v, "variable", "fifo", "none", "lex") for v in ACCEPTANCE_HEURISTICS]
    triples += [
        ("dom/wdeg", "arc", "fifo", "none", "lex"),
        ("dom/wdeg", "arc", "dom", "none", "lex"),
        ("wdeg", "arc", "a_wdeg", "none", "lex"),
        ("dom/wdeg", "arc", "a_dom/wdeg", "none", "lex"),
        ("dom/wdeg", "arc", "a_dom/wcon_inverse", "none", "lex"),
        ("dom", "constraint", "c_wcon", "none", "lex"),
        ("dom/wdeg", "variable", "dom", "none", "lex"),
        ("wdeg", "variable", "v_wdeg", "none", "lex"),
        ("dom/wdeg", "variable", "v_dom/wdeg", "none", "lex"),
        ("dom/wdeg", "variable", "fifo", "geo:10:1.5", "lex"),
        ("dom", "variable", "fifo", "arith:10:10", "lex"),
        ("dom", "variable", "fifo", "none", "rand"),
    ]
    return [
        SearchConfig(
            heuristic=parse_heuristic(var),
            scheme=scheme,
            policy=rev,
            restarts=parse_restarts(restart),
            value_order=vo,
            seed=seed,
            mode="decide",
        )
        for var, scheme, rev, restart, vo in triples
    ]


def test_criterion_02_search_correctness():
    # 300 generated instances (n <= 12, d <= 6, mixed families), sat/unsat
    # must match exhaustive enumeration under every sampled configuration
    t0 = time.monotonic()
    grid_size = len(search_grid(0))
    assert grid_size >= 20
    sat_count = 0
    for seed in range(300):
        n = 5 + seed % 8
        d_size = 2 + seed % 5
        e = min(n * (n - 1) // 2, n + 2 + seed % 6)
        t = 0.35 + 0.05 * (seed % 7)
        gen = gen_model_rb if seed % 3 == 2 else gen_model_d
        p = gen(n=n, d=d_size, e=e, t=t, seed=seed)
        want = "sat" if count_solutions(p, limit=1) else "unsat"
        sat_count += want == "sat"
        for cfg in search_grid(seed):
            out = solve(p, cfg)
            assert out.result == want, (seed, cfg, out.result, want)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    assert 0 < sat_count < 300
    print(
        f"criterion 2: PASS (300 instances x {grid_size} configurations agree "
        f"with enumeration, {sat_count} sat, {elapsed:.1f}s)"
    )


def test_criterion_03_reference_counts():
    for n, want in ((4, 2), (5, 10), (6, 4)):
        out = solve(gen_queens(n), SearchConfig(mode="count"))
        assert out.count == want, (n, out.count)
    for k, n, want in ((2, 3, "sat"), (2, 4, "sat"), (2, 5, "unsat"), (2, 6, "unsat")):
        out = solve(gen_langford(k, n), SearchConfig(mode="decide"))
        assert out.result == want, (k, n, out.result)
    big = solve(
        gen_langford(2, 9),
        SearchConfig(
            heuristic=VOHeuristic(base="dom/wdeg"),
            scheme="variable",
            policy="v_dom/wdeg",
            mode="decide",
        ),
    )
    assert big.result == "unsat"
    print(
        "criterion 3: PASS (queens 4/5/6 count 2/10/4; pairing problem "
        "(2,3)(2,4) sat, (2,5)(2,6)(2,9) unsat)"
    )


def test_criterion_04_first_blamed_constraint():
    # two independent infeasible constraints; whichever is revised first
    # takes the wipeout and the weight bump
    p = Problem(
        name="blame",
        variables=("x1", "x2", "x5", "x6"),
        domains={"x1": (0, 1), "x2": (2, 3), "x5": (0, 1), "x6": (2, 3)},
        constraints=(
            Constraint(id="c12", scope=("x1", "x2"), kind="predicate", pred="gt"),
            Constraint(id="c56", scope=("x5", "x6"), kind="predicate", pred="gt"),
        ),
    )
    lexico = [("c12", "x1"), ("c12", "x2"), ("c56", "x5"), ("c56", "x6")]
    for order, blamed, spared in ((lexico, "c12", "c56"), (lexico[::-1], "c56", "c12")):
        ws = WeightStore(p, "wdeg")
        q = RevisionQueue("arc")
        for elem in order:
            q.add(elem)
        out = propagate(HeuristicState(p, ws), q)
        assert not out.consistent
        assert ws.snapshot() == {blamed: 2, spared: 1}
    print(
        "criterion 4: PASS (queue order decides the blamed constraint: "
        "forward bumps c12 to 2, reversed bumps c56 to 2)"
    )


def test_criterion_05_restart_schedules():
    g = GeometricRestarts(base=10, factor=1.5)
    assert [next_cutoff(g, k) for k in range(5)] == [10, 15, 22, 33, 50]
    a = ArithmeticRestarts(base=10, step=10)
    assert [next_cutoff(a, k) for k in range(3)] == [10, 20, 30]
    print(
        "criterion 5: PASS (geometric 10,15,22,33,50; arithmetic 10,20,30)"
    )


def test_criterion_06_variance_and_report_shape():
    assert variance([10, 10, 10]) == pytest.approx(0.0, abs=1e-9)
    assert variance([1, 2, 3]) == pytest.approx(2 / 3, abs=1e-9)
    spec = ExperimentSpec(
        instances=("queens:n=5", "langford:k=2,n=3"),
        var_heurs=("dom", "dom/wdeg"),
        rev_policies=("fifo", "dom", "v_dom/wdeg"),
    )
    rows = run_experiment(spec)
    report = dependency_report(rows)
    keys = {tuple(key) for *key, _ in report}
    assert keys == {
        ("queens-5", "variable", "dom", "none", "lex"),
        ("queens-5", "variable", "dom/wdeg", "none", "lex"),
        ("langford-2-3", "variable", "dom", "none", "lex"),
        ("langford-2-3", "variable", "dom/wdeg", "none", "lex"),
    }
    assert len(report) == 4  # exactly one variance per pair
    assert all(v >= 0.0 for *_, v in report)
    print(
        "criterion 6: PASS (hand variances to 1e-9; three-policy run yields "
        "one variance per instance/heuristic pair)"
    )


def test_criterion_07_impact_machinery():
    assert [len(part) for part in partition_parts(list(range(8)))] == [2, 2, 2, 2]
    assert [len(part) for part in partition_parts(list(range(3)))] == [1, 1, 1]
    assert [len(part) for part in partition_parts(list(range(10)))] == [3, 3, 2, 2]
    exercised = 0
    for seed in range(12):
        p = gen_model_d(n=6 + seed % 5, d=3 + seed % 6, e=10, t=0.35, seed=seed)
        store = ImpactStore()
        state = HeuristicState(p, WeightStore(p, "wdeg"), store)
        d = state.d
        ok = init_impacts(state)
        if not ok:
            continue
        exercised += 1
        for x in p.variables:
            for a in d.current(x):
                avg = store.averaged(x, a)
                assert 0.0 <= avg <= 1.0, (seed, x, a, avg)
            vi = variable_impact(store, x, d)
            assert 0.0 <= vi <= d.size(x), (seed, x, vi)
    assert exercised >= 8
    print(
        "criterion 7: PASS (averaged impacts within [0,1], summed residuals "
        "within [0,|D|], partition sizes 8/3/10 -> 2222/111/3322)"
    )


def trace_problem():
    return Problem(
        name="trace",
        variables=("x", "y", "z"),
        domains={"x": (0, 1), "y": (0, 1), "z": (0, 1)},
        constraints=(
            Constraint(id="c1", scope=("x", "y"), kind="predicate", pred="ne"),
            Constraint(id="c2", scope=("y", "z"), kind="predicate", pred="ne"),
            Constraint(id="c3", scope=("x", "z"), kind="predicate", pred="ne"),
        ),
    )


def test_criterion_08_weight_update_policies():
    p = trace_problem()

    ws = WeightStore(p, "wdeg")
    ws.on_deletion("c1", 2)
    ws.on_deletion("c2", 1)
    ws.on_dwo("c1", frozenset({"c1", "c2"}))
    assert ws.snapshot() == {"c1": 2, "c2": 1, "c3": 1}

    ws = WeightStore(p, "alldel")
    ws.on_deletion("c1", 2)
    ws.on_deletion("c2", 1)
    ws.on_deletion("c1", 3)
    ws.on_dwo("c1", frozenset({"c1", "c2"}))
    assert ws.snapshot() == {"c1": 6, "c2": 2, "c3": 1}

    ws = WeightStore(p, "fully")
    ws.on_deletion("c1", 4)
    ws.on_dwo("c1", frozenset({"c1", "c2"}))
    assert ws.snapshot() == {"c1": 2, "c2": 2, "c3": 1}
    ws.on_dwo("c3", frozenset({"c2"}))
    assert ws.snapshot() == {"c1": 2, "c2": 3, "c3": 2}

    print(
        "criterion 8: PASS (scripted traces: +1 on the failing constraint; "
        "+removals per fruitful revision; +1 across the fruitful set)"
    )


def test_criterion_09_determinism_and_instrumentation(monkeypatch):
    configs = [
        SearchConfig(heuristic=VOHeuristic(base="dom/wdeg"), mode="count"),
        SearchConfig(
            heuristic=VOHeuristic(base="dom"),
            scheme="arc",
            policy="a_dom/wdeg",
            value_order="rand",
            seed=13,
            mode="decide",
        ),
        SearchConfig(
            heuristic=parse_heuristic("dom/wdeg+probe"),
            restarts=GeometricRestarts(),
            seed=5,
            mode="decide",
        ),
    ]
    p = gen_model_d(n=10, d=4, e=18, t=0.5, seed=77)
    for cfg in configs:
        seen = []
        for _ in range(2):
            out = solve(p, cfg)
            s = out.stats
            seen.append((out.result, s.nodes, s.checks, s.revisions, s.dwos))
        assert seen[0] == seen[1], cfg

    # every reported check is one counted invocation of the tuple test
    import macsolver.model as model_mod

    real = model_mod.check_tuple
    counter = [0]

    def counting(constraint, values, stats):
        counter[0] += 1
        return real(constraint, values, stats)

    monkeypatch.setattr(model_mod, "check_tuple", counting)
    out = solve(gen_queens(6), SearchConfig(mode="count"))
    assert out.count == 4
    assert counter[0] == out.stats.checks
    print(
        f"criterion 9: PASS (identical counter tuples on reruns; reported "
        f"checks equal instrumented invocations: {counter[0]})"
    )


def test_criterion_10_revision_ordering_direction():
    # Directional, soft: the weighted revision ordering should not cost more
    # than 10% in median checks and should lower the total across the suite.
    t0 = time.monotonic()
    instances = [
        gen_langford(k, n)
        for k, n in (
            (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
            (2, 8), (3, 9), (3, 10), (2, 9), (2, 11),
        )
    ]
    instances += [gen_queens(n) for n in range(4, 14)]
    assert len(instances) == 20
    checks = {}
    for policy in ("fifo", "v_dom/wdeg"):
        checks[policy] = [
            solve(
                p,
                SearchConfig(
                    heuristic=VOHeuristic(base="dom/wdeg"),
                    scheme="variable",
                    policy=policy,
                    mode="decide",
                ),
            ).stats.checks
            for p in instances
        ]
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    ratio = median(checks["v_dom/wdeg"]) / median(checks["fifo"])
    total_fifo = sum(checks["fifo"])
    total_weighted = sum(checks["v_dom/wdeg"])
    ok = ratio <= 1.10 and total_weighted < total_fifo
    line = (
        f"median ratio {ratio:.3f} (limit 1.10), totals {total_weighted} vs "
        f"{total_fifo}, {elapsed:.1f}s"
    )
    if ok:
        print(f"criterion 10: PASS ({line})")
    else:
        warnings.warn(f"criterion 10 directional property violated: {line}")
        print(f"criterion 10: FLAGGED ({line})")
