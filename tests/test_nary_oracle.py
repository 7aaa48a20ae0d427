"""Random n-ary instances against the brute-force oracle, for every scheme x policy.

Root and incremental propagation must reach oracle.ac_fixpoint, and solve's
decide and count answers must match oracle.count_solutions.
"""

import pytest

from nary import TABLE_SHAPES, gen_nary
from oracle import ac_fixpoint, count_solutions
from macsolver.heuristics import HeuristicState, VOHeuristic, parse_heuristic
from macsolver.model import PREDICATES, Problem
from macsolver.propagation import POLICIES_BY_SCHEME, initial_queue, propagate, update_queue
from macsolver.search import GeometricRestarts, SearchConfig, solve

SEEDS = range(16)
PAIRS = [(s, p) for s, policies in POLICIES_BY_SCHEME.items() for p in policies]
# one variable heuristic per seed, so every pair meets each heuristic family
HEURISTICS = (
    "dom", "dom/wdeg", "alldel", "fully",
    "impact", "dom/wdeg+rsc", "dom+nodeimpact", "dom/wdeg+probe",
)
INSTANCES = [gen_nary(seed) for seed in SEEDS]
COUNTS = [count_solutions(p) for p in INSTANCES]


def unit_state(problem, scheme, policy):
    # unit weights and nothing assigned, as at the start of a solve
    return HeuristicState(problem, VOHeuristic(), scheme=scheme, policy=policy)


def current(d, problem):
    return {x: set(d.current(x)) for x in problem.variables}


def restricted(problem, domains, x, a):
    """The problem with the given domains and D(x) = {a}."""
    doms = {y: tuple(sorted(domains[y])) for y in problem.variables}
    doms[x] = (a,)
    return Problem(problem.name, problem.variables, doms, problem.constraints)


def test_generator_covers_every_constraint_kind():
    preds = {c.pred for p in INSTANCES for c in p.constraints if c.kind == "predicate"}
    assert preds == set(PREDICATES)
    for p in INSTANCES:
        tables = [(len(c.scope), c.kind) for c in p.constraints if c.kind != "predicate"]
        assert set(tables) == set(TABLE_SHAPES)
    # the seeds give sat and unsat instances, and some need search to tell
    assert 0 in COUNTS and any(n > 1 for n in COUNTS)
    assert any(ac_fixpoint(p) is not None and n == 0 for p, n in zip(INSTANCES, COUNTS))
    assert gen_nary(3) == INSTANCES[3]


@pytest.mark.parametrize("scheme, policy", PAIRS)
def test_nary_fixpoints_match_oracle(scheme, policy):
    for p in INSTANCES:
        want = ac_fixpoint(p)
        state = unit_state(p, scheme, policy)
        d = state.d
        out = propagate(state, initial_queue(state))
        assert out.consistent == (want is not None), p.name
        if want is None:
            continue
        assert current(d, p) == want, p.name
        # one search step: assign each value of the first open variable
        x = next((y for y in p.variables if len(want[y]) > 1), None)
        if x is None:
            continue
        for a in sorted(want[x]):
            mark = d.mark()
            queue = update_queue(state, x, d.assign(x, a))
            out = propagate(state, queue)
            step = ac_fixpoint(restricted(p, want, x, a))
            assert out.consistent == (step is not None), (p.name, x, a)
            if step is not None:
                assert current(d, p) == step, (p.name, x, a)
            d.restore(mark)


@pytest.mark.parametrize("scheme, policy", PAIRS)
def test_nary_solve_matches_oracle(scheme, policy):
    for seed, (p, want) in enumerate(zip(INSTANCES, COUNTS)):
        heur = parse_heuristic(HEURISTICS[seed % len(HEURISTICS)])
        counted = solve(p, SearchConfig(heur, scheme, policy, seed=seed, mode="count"))
        assert counted.count == want, (p.name, heur)
        assert counted.result == ("sat" if want else "unsat"), (p.name, heur)
        decided = solve(p, SearchConfig(
            heur, scheme, policy, GeometricRestarts(3, 1.5), "rand", seed, "decide",
        ))
        assert decided.result == ("sat" if want else "unsat"), (p.name, heur)
