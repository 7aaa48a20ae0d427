import math
from dataclasses import fields

import pytest

from oracle import count_solutions, satisfiable
from macsolver.heuristics import ProbeConfig, VOHeuristic, parse_heuristic
from macsolver.instances import gen_langford, gen_model_d, gen_queens
from macsolver.model import Constraint, DomainStore, Problem, SearchStats, check_tuple
from macsolver.propagation import POLICIES_BY_SCHEME
from macsolver.search import (
    ArithmeticRestarts,
    GeometricRestarts,
    SearchConfig,
    next_cutoff,
    order_values,
    parse_restarts,
    restarts_name,
    solve,
)


def pred(cid, scope, name, k=None):
    return Constraint(id=cid, scope=scope, kind="predicate", pred=name, k=k)


def assert_valid(problem, assignment):
    assert set(assignment) == set(problem.variables)
    for c in problem.constraints:
        assert check_tuple(c, tuple(assignment[v] for v in c.scope), SearchStats())


def test_geometric_schedule():
    g = GeometricRestarts(base=10, factor=1.5)
    assert [next_cutoff(g, k) for k in range(5)] == [10, 15, 22, 33, 50]


def test_arithmetic_schedule():
    a = ArithmeticRestarts(base=10, step=10)
    assert [next_cutoff(a, k) for k in range(3)] == [10, 20, 30]


def test_no_restarts_schedule():
    assert next_cutoff(None, 0) is None
    assert next_cutoff(None, 7) is None
    with pytest.raises(TypeError):
        next_cutoff("geo", 0)


def test_geometric_cutoff_past_the_float_range_is_unlimited():
    assert next_cutoff(GeometricRestarts(base=10, factor=10.0), 400) is None
    assert next_cutoff(GeometricRestarts(base=2, factor=1e308), 1) is None
    assert next_cutoff(GeometricRestarts(base=2, factor=1e308), 0) == 2


def test_restart_validation():
    with pytest.raises(ValueError):
        GeometricRestarts(base=0)
    with pytest.raises(ValueError):
        GeometricRestarts(factor=1.0)
    with pytest.raises(ValueError):
        ArithmeticRestarts(base=0)
    with pytest.raises(ValueError):
        ArithmeticRestarts(step=0)


def test_parse_restarts():
    assert parse_restarts("none") is None
    assert parse_restarts("geo:10:1.5") == GeometricRestarts(10, 1.5)
    assert parse_restarts("arith:5:7") == ArithmeticRestarts(5, 7)
    with pytest.raises(ValueError):
        parse_restarts("geo:10")
    with pytest.raises(ValueError):
        parse_restarts("bogus:1:2")
    for text, field, raw in (
        ("geo:x:2", "BASE", "x"), ("arith:10:1.5", "STEP", "1.5"), ("geo:10:abc", "FACTOR", "abc")
    ):
        with pytest.raises(ValueError) as err:
            parse_restarts(text)
        assert str(err.value) == f"bad value {raw!r} for {field} in restart spec {text!r}"


def test_restarts_reject_non_finite_factors():
    for factor in (math.inf, math.nan):
        with pytest.raises(ValueError):
            GeometricRestarts(base=1, factor=factor)
    # rejected up front, before any search runs
    for text in ("geo:1:inf", "geo:1:nan"):
        with pytest.raises(ValueError, match="finite factor"):
            parse_restarts(text)


def test_timeout_must_be_a_positive_number():
    for timeout in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="timeout must be positive"):
            SearchConfig(timeout=timeout)
    out = solve(gen_queens(4), SearchConfig(timeout=math.inf, mode="count"))
    assert (out.result, out.count) == ("sat", 2)


def test_restarts_name_roundtrip():
    for policy in (None, GeometricRestarts(10, 1.5), GeometricRestarts(8, 2.0),
                   ArithmeticRestarts(5, 7)):
        assert parse_restarts(restarts_name(policy)) == policy


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(scheme="arc", policy="v_wdeg")
    with pytest.raises(ValueError):
        SearchConfig(value_order="sorted")
    with pytest.raises(ValueError):
        SearchConfig(mode="all")
    with pytest.raises(ValueError):
        SearchConfig(timeout=0)


def test_order_values_lex():
    p = Problem(
        name="p",
        variables=("x", "y"),
        domains={"x": (3, 1, 2), "y": (0, 1)},
        constraints=(pred("c", ("x", "y"), "ne"),),
    )
    d = DomainStore(p)
    assert order_values("x", d, "lex", seed=0) == [1, 2, 3]


def test_order_values_rand_deterministic():
    p = Problem(
        name="p",
        variables=("x", "y"),
        domains={"x": tuple(range(12)), "y": (0, 1)},
        constraints=(pred("c", ("x", "y"), "ne"),),
    )
    d = DomainStore(p)
    a = order_values("x", d, "rand", seed=5, index=0)
    b = order_values("x", d, "rand", seed=5, index=0)
    assert a == b
    assert sorted(a) == list(range(12))
    assert order_values("x", d, "rand", seed=6, index=0) != a  # seed matters


def chain_problem():
    return Problem(
        name="chain",
        variables=("x", "y", "z"),
        domains={"x": (1, 2, 3), "y": (1, 2, 3), "z": (1, 2, 3)},
        constraints=(pred("cxy", ("x", "y"), "lt"), pred("cyz", ("y", "z"), "lt")),
    )


def test_solve_first_returns_verified_solution():
    p = chain_problem()
    out = solve(p, SearchConfig())
    assert out.result == "sat"
    assert_valid(p, out.solution)
    assert out.solution == {"x": 1, "y": 2, "z": 3}  # the only solution


def test_solve_unsat_at_preprocessing():
    p = Problem(
        name="hopeless",
        variables=("x", "y"),
        domains={"x": (0, 1), "y": (2, 3)},
        constraints=(pred("c", ("x", "y"), "gt"),),
    )
    out = solve(p, SearchConfig())
    assert out.result == "unsat"
    assert out.stats.nodes == 0  # no branching was needed
    assert out.stats.dwos == 1


def test_count_mode_queens():
    for n, want in ((4, 2), (5, 10), (6, 4)):
        p = gen_queens(n)
        out = solve(p, SearchConfig(mode="count"))
        assert out.result == "sat"
        assert out.count == want
        assert out.count == count_solutions(p)


def test_langford_small():
    p = gen_langford(2, 3)
    out = solve(p, SearchConfig())
    assert out.result == "sat"
    assert_valid(p, out.solution)
    assert solve(gen_langford(2, 5), SearchConfig(mode="decide")).result == "unsat"


def test_determinism_same_config():
    p = gen_model_d(n=9, d=4, e=16, t=0.5, seed=8)
    cfg = SearchConfig(
        heuristic=VOHeuristic(base="dom/wdeg"),
        scheme="variable",
        policy="v_dom/wdeg",
        value_order="rand",
        seed=11,
        mode="count",
    )
    runs = []
    for _ in range(2):
        out = solve(p, cfg)
        s = out.stats
        runs.append((out.result, out.count, s.nodes, s.checks, s.revisions, s.dwos))
    assert runs[0] == runs[1]


def test_count_agrees_across_configs():
    p = gen_model_d(n=8, d=3, e=13, t=0.45, seed=2)
    want = count_solutions(p)
    outs = [
        solve(p, SearchConfig(heuristic=VOHeuristic(base=b), scheme=s, policy=pol,
                              mode="count"))
        for b, s, pol in (
            ("dom", "variable", "fifo"),
            ("dom/wdeg", "arc", "a_dom/wdeg"),
            ("impact", "variable", "v_dom/wdeg"),
            ("fully", "constraint", "c_wcon"),
        )
    ]
    assert all(o.count == want for o in outs)
    assert all(o.result == ("sat" if want else "unsat") for o in outs)


def test_restarts_fire_and_preserve_correctness():
    p = gen_langford(2, 5)  # unsat, needs real search
    cfg = SearchConfig(
        heuristic=VOHeuristic(base="dom/wdeg"),
        restarts=ArithmeticRestarts(base=1, step=1),
        mode="decide",
    )
    out = solve(p, cfg)
    assert out.result == "unsat"
    assert out.stats.restarts > 0
    # conflict weights persisted across restarts
    assert sum(out.weights.snapshot().values()) > len(p.constraints)


def test_count_mode_ignores_restarts():
    p = gen_queens(5)
    cfg = SearchConfig(restarts=ArithmeticRestarts(base=1, step=1), mode="count")
    out = solve(p, cfg)
    assert out.count == 10
    assert out.stats.restarts == 0


def test_timeout():
    p = gen_langford(2, 7)
    out = solve(p, SearchConfig(timeout=1e-6))
    assert out.result == "timeout"
    assert out.stats.time_ms >= 0.0


def test_default_weight_store_always_maintained(monkeypatch):
    import macsolver.search as search_mod

    created = []
    real = search_mod.WeightStore

    def counting(problem, policy="wdeg"):
        ws = real(problem, policy)
        created.append(policy)
        return ws

    monkeypatch.setattr(search_mod, "WeightStore", counting)
    p = gen_langford(2, 4)
    out = solve(p, SearchConfig(heuristic=VOHeuristic(base="dom"), mode="decide"))
    assert created == ["wdeg"]  # one store per solve, default policy
    assert out.result == "sat"
    # dom is not conflict-driven, yet the store tracked the run's conflicts
    assert sum(out.weights.snapshot().values()) >= len(p.constraints)


def test_weight_policy_follows_base():
    import macsolver.search as search_mod

    p = gen_langford(2, 3)
    for base, policy in (("alldel", "alldel"), ("fully", "fully"), ("wdeg", "wdeg")):
        out = solve(p, SearchConfig(heuristic=VOHeuristic(base=base)))
        assert out.weights.policy == policy


def test_probing_phase_definitive_unsat():
    p = Problem(
        name="triangle",
        variables=("x", "y", "z"),
        domains={"x": (0, 1), "y": (0, 1), "z": (0, 1)},
        constraints=(
            pred("c1", ("x", "y"), "ne"),
            pred("c2", ("x", "z"), "ne"),
            pred("c3", ("y", "z"), "ne"),
        ),
    )
    h = VOHeuristic(base="dom/wdeg", probing=ProbeConfig(failures=40, runs=3))
    out = solve(p, SearchConfig(heuristic=h, mode="decide"))
    assert out.result == "unsat"


def test_probing_phase_definitive_sat_is_verified():
    p = gen_queens(5)
    h = VOHeuristic(base="dom/wdeg", probing=ProbeConfig(failures=40, runs=50))
    out = solve(p, SearchConfig(heuristic=h, seed=1))
    assert out.result == "sat"
    assert_valid(p, out.solution)


def test_probing_in_count_mode_still_counts_everything():
    p = gen_queens(4)
    h = VOHeuristic(base="dom/wdeg", probing=ProbeConfig(failures=10, runs=5))
    out = solve(p, SearchConfig(heuristic=h, seed=3, mode="count"))
    assert out.count == 2


def test_search_config_seed_alone_drives_probing():
    # the seed lives in SearchConfig only; the heuristic carries none
    assert [f.name for f in fields(ProbeConfig)] == ["failures", "runs"]
    p = gen_queens(8)
    h = parse_heuristic("dom/wdeg+probe")
    got = []
    for seed in (0, 1, 2):
        s = solve(p, SearchConfig(heuristic=h, seed=seed, mode="decide")).stats
        got.append((s.nodes, s.checks, s.dwos))
    assert got == [(21, 3983, 11), (9, 2291, 1), (10, 2483, 2)]


def test_impact_base_solves():
    p = gen_queens(5)
    out = solve(p, SearchConfig(heuristic=VOHeuristic(base="impact"), mode="count"))
    assert out.count == 10


def test_impact_init_detects_inconsistency():
    # arc consistent but impossible: x = y and x != y
    p = Problem(
        name="impossible",
        variables=("x", "y"),
        domains={"x": (0, 1), "y": (0, 1)},
        constraints=(pred("c1", ("x", "y"), "eq"), pred("c2", ("x", "y"), "ne")),
    )
    out = solve(p, SearchConfig(heuristic=VOHeuristic(base="impact")))
    assert out.result == "unsat"
    assert out.stats.nodes == 0


def test_rand_value_order_still_correct():
    p = gen_model_d(n=8, d=4, e=14, t=0.5, seed=5)
    want = satisfiable(p)
    for seed in (0, 1, 2):
        out = solve(p, SearchConfig(value_order="rand", seed=seed, mode="decide"))
        assert out.result == ("sat" if want else "unsat")


def test_decide_mode_all_schemes():
    p = gen_model_d(n=10, d=4, e=18, t=0.5, seed=17)
    want = "sat" if satisfiable(p) else "unsat"
    for scheme, policy in (("arc", "fifo"), ("variable", "dom"), ("constraint", "c_wcon")):
        out = solve(p, SearchConfig(scheme=scheme, policy=policy, mode="decide"))
        assert out.result == want


# Exact counters of search paths the benchmark does not run: a change to any
# of them is an algorithm change.
def test_pinned_counters_impact_nodeimpact_count():
    h = VOHeuristic(base="impact", tiebreak="nodeimpact")
    cfg = SearchConfig(heuristic=h, scheme="constraint", policy="c_wcon", mode="count")
    out = solve(gen_queens(6), cfg)
    s = out.stats
    assert (out.result, out.count) == ("sat", 4)
    assert (s.nodes, s.checks, s.revisions, s.dwos, s.restarts) == (54, 16317, 3293, 30, 0)


# (result, count, nodes, checks, revisions, dwos, restarts) of langford:k=2,n=4,
# arc/a_dom/wdeg, count, for the heuristics that run lookahead probes. The
# weighted revision order reads state.assigned, so these also pin which
# variable is marked assigned while a probe propagates.
PINNED_LOOKAHEAD_COUNTERS = {
    "impact+rsc": ("sat", 2, 20, 12727, 4289, 8, 0),
    "dom+nodeimpact": ("sat", 2, 18, 5112, 1634, 22, 0),
    "impact": ("sat", 2, 22, 10278, 3347, 8, 0),
}


@pytest.mark.parametrize("name", sorted(PINNED_LOOKAHEAD_COUNTERS))
def test_pinned_counters_lookahead_count(name):
    cfg = SearchConfig(
        heuristic=parse_heuristic(name), scheme="arc", policy="a_dom/wdeg",
        mode="count",
    )
    out = solve(gen_langford(2, 4), cfg)
    s = out.stats
    got = (out.result, out.count, s.nodes, s.checks, s.revisions, s.dwos, s.restarts)
    assert got == PINNED_LOOKAHEAD_COUNTERS[name]


def test_pinned_counters_restarts_rand_decide():
    cfg = SearchConfig(
        heuristic=VOHeuristic(base="dom"), scheme="arc", policy="fifo",
        restarts=GeometricRestarts(3, 1.5), value_order="rand", seed=0, mode="decide",
    )
    out = solve(gen_langford(2, 5), cfg)
    s = out.stats
    assert out.result == "unsat"
    assert (s.nodes, s.checks, s.revisions, s.dwos, s.restarts) == (161, 40279, 12538, 83, 7)


@pytest.mark.parametrize(
    "heuristic",
    [VOHeuristic(base="impact"), VOHeuristic(base="dom/wdeg", tiebreak="rsc")],
)
def test_timeout_holds_in_impact_init_and_tiebreak_probes(heuristic):
    # the deadline passes before the root propagation's first queue
    # selection, so neither preprocessing, impact initialisation nor the
    # root's tie-break probes may check a tuple
    p = gen_queens(6)
    out = solve(p, SearchConfig(heuristic=heuristic, timeout=1e-9))
    assert out.result == "timeout"
    assert (out.stats.nodes, out.stats.checks) == (0, 0)


# (result, nodes, checks, revisions, dwos) of langford:k=2,n=5 under dom/wdeg,
# decide, for every scheme x policy pair
PINNED_POLICY_COUNTERS = {
    ("arc", "fifo"): ("unsat", 32, 11414, 3108, 20),
    ("arc", "dom"): ("unsat", 30, 10028, 3168, 20),
    ("arc", "a_wcon"): ("unsat", 34, 11422, 2979, 21),
    ("arc", "a_wdeg"): ("unsat", 31, 11850, 2955, 21),
    ("arc", "a_dom/wdeg"): ("unsat", 33, 10461, 3211, 21),
    ("arc", "a_dom/wcon"): ("unsat", 34, 10626, 3206, 21),
    ("arc", "a_dom/wdeg_inverse"): ("unsat", 31, 9273, 2266, 21),
    ("arc", "a_dom/wcon_inverse"): ("unsat", 33, 9277, 2356, 21),
    ("variable", "fifo"): ("unsat", 31, 10742, 305, 21),
    ("variable", "dom"): ("unsat", 31, 9540, 239, 21),
    ("variable", "v_wdeg"): ("unsat", 30, 11021, 324, 20),
    ("variable", "v_dom/wdeg"): ("unsat", 31, 9112, 242, 21),
    ("constraint", "c_wcon"): ("unsat", 35, 11166, 2332, 21),
}


def test_pinned_counters_cover_every_policy():
    assert sorted(PINNED_POLICY_COUNTERS) == sorted(
        (s, p) for s, pols in POLICIES_BY_SCHEME.items() for p in pols
    )


@pytest.mark.parametrize("scheme, policy", sorted(PINNED_POLICY_COUNTERS))
def test_pinned_counters_per_policy(scheme, policy):
    cfg = SearchConfig(
        heuristic=VOHeuristic(base="dom/wdeg"), scheme=scheme, policy=policy,
        mode="decide",
    )
    out = solve(gen_langford(2, 5), cfg)
    s = out.stats
    got = (out.result, s.nodes, s.checks, s.revisions, s.dwos)
    assert got == PINNED_POLICY_COUNTERS[scheme, policy]


def ne_chain(n):
    variables = tuple(f"x{i}" for i in range(n))
    return Problem(
        name=f"ne-chain-{n}",
        variables=variables,
        domains={x: (0, 1) for x in variables},
        constraints=tuple(
            pred(f"c{i}", (variables[i], variables[i + 1]), "ne") for i in range(n - 1)
        ),
    )


@pytest.mark.parametrize(
    "heuristic",
    [VOHeuristic(base="dom"), VOHeuristic(base="dom/wdeg", probing=ProbeConfig())],
)
def test_deep_chain_has_no_depth_limit(heuristic):
    p = ne_chain(1200)
    out = solve(p, SearchConfig(heuristic=heuristic, mode="decide"))
    assert out.result == "sat"
    assert out.stats.nodes == 1200
    assert_valid(p, out.solution)
