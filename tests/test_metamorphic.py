"""Metamorphic relations: rewriting an instance without changing its meaning
leaves every counter of every solve as it was.

Three rewrites are checked, each under every scheme x revision policy pair:
every constraint as its allowed table, every constraint as its forbidden
table with every value shifted by +3, and every variable renamed with the
declaration order kept. A solve reports its result, solution count, nodes,
checks, revisions, DWOs and restarts; all seven must match the original's.

Three weaker rewrites change the order in which search meets variables and
constraints, so only the result and the solution count must match: the
variables declared in a shuffled order, the constraints listed in a shuffled
order, and one constraint repeated under a new id.
"""

import random
from dataclasses import replace
from itertools import product

import pytest

from nary import gen_nary
from macsolver.heuristics import parse_heuristic
from macsolver.instances import parse_spec
from macsolver.model import Constraint, Problem
from macsolver.propagation import POLICIES_BY_SCHEME
from macsolver.search import SearchConfig, parse_restarts, solve

PAIRS = [(s, p) for s, policies in POLICIES_BY_SCHEME.items() for p in policies]
HEURISTICS = ("dom/wdeg", "impact", "dom/wdeg+rsc", "mdvo")
COUNTED = (
    "langford:k=2,n=3",
    "queens:n=4",
    "modelD:n=8,d=4,e=14,t=0.5,seed=3",
    "chessboard:rows=2,cols=3,colors=2",
)
RESTARTED = dict(mode="decide", restarts=parse_restarts("geo:2:1.5"), value_order="rand", seed=1)
# two random instances with ternary and 4-ary tables (tests/nary.py), one
# counted and one decided with restarts
NARY_SEEDS = (0, 1)
# (instance, mode, heuristics to rotate through): every small instance is
# counted, and decided with restarts. langford:k=2,n=4 is the one that
# restarts under every pair; it runs dom/wdeg only, whose weights carry over
# from run to run, since the lookahead heuristics cost most there
CASES = (
    [(spec, dict(mode="count"), HEURISTICS) for spec in COUNTED]
    + [(spec, RESTARTED, HEURISTICS) for spec in COUNTED]
    + [("langford:k=2,n=4", RESTARTED, ("dom/wdeg",))]
    + [(seed, mode, HEURISTICS) for seed, mode in zip(NARY_SEEDS, (dict(mode="count"), RESTARTED))]
)
SHIFT = 3
# the weaker rewrites count these under one heuristic per pair, rotated
REORDERED = ("queens:n=5", "langford:k=2,n=3", "chessboard:rows=2,cols=3,colors=2")
WEAK_HEURISTICS = HEURISTICS + ("dom", "alldel", "wdeg", "dom/wdeg+probe")


def _instance(source) -> Problem:
    """A spec string through parse_spec, or a gen_nary seed."""
    return gen_nary(source) if isinstance(source, int) else parse_spec(source)


def _tables(problem: Problem, allowed: bool, shift: int = 0) -> Problem:
    """problem with each constraint as its allowed (or forbidden) table over
    the original domains, and every value moved by shift."""
    constraints = []
    for c in problem.constraints:
        tuples = frozenset(
            tuple(v + shift for v in t)
            for t in product(*(problem.domains[x] for x in c.scope))
            if c.test(t) == allowed
        )
        kind = "allowed" if allowed else "forbidden"
        constraints.append(Constraint(id=c.id, scope=c.scope, kind=kind, tuples=tuples))
    domains = {x: tuple(v + shift for v in dom) for x, dom in problem.domains.items()}
    return replace(problem, domains=domains, constraints=tuple(constraints))


def _renamed(problem: Problem) -> Problem:
    """problem with every variable renamed, declaration order kept: the new
    names sort in the reverse of that order."""
    n = len(problem.variables)
    names = {x: f"v{n - i:03d}" for i, x in enumerate(problem.variables)}
    return replace(
        problem,
        variables=tuple(names[x] for x in problem.variables),
        domains={names[x]: dom for x, dom in problem.domains.items()},
        constraints=tuple(
            replace(c, scope=tuple(names[x] for x in c.scope)) for c in problem.constraints
        ),
    )


REWRITES = {
    "allowed": lambda p: _tables(p, allowed=True),
    "forbidden+3": lambda p: _tables(p, allowed=False, shift=SHIFT),
    "renamed": _renamed,
}


def _shuffled(items: tuple, seed: str) -> tuple:
    out = list(items)
    random.Random(seed).shuffle(out)
    return tuple(out)


def _duplicated(problem: Problem) -> Problem:
    """problem with its first constraint listed again under a new id."""
    c = problem.constraints[0]
    return replace(problem, constraints=problem.constraints + (replace(c, id=c.id + "-again"),))


WEAK_REWRITES = {
    "variables shuffled": lambda p: replace(p, variables=_shuffled(p.variables, p.name)),
    "constraints shuffled": lambda p: replace(p, constraints=_shuffled(p.constraints, p.name)),
    "duplicated": _duplicated,
}


def _counters(problem: Problem, cfg: SearchConfig) -> tuple:
    out = solve(problem, cfg)
    s = out.stats
    return (out.result, out.count, s.nodes, s.checks, s.revisions, s.dwos, s.restarts)


def test_rewrites_keep_the_meaning():
    p = parse_spec("queens:n=4")
    solutions = {}
    for name, rewrite in REWRITES.items():
        q = rewrite(p)
        assert len(q.constraints) == len(p.constraints)
        assert [len(q.domains[x]) for x in q.variables] == [len(p.domains[x]) for x in p.variables]
        shift = SHIFT if name == "forbidden+3" else 0
        solution = solve(q, SearchConfig(heuristic=parse_heuristic("dom"))).solution
        solutions[name] = [solution[x] - shift for x in q.variables]
    assert solutions["allowed"] == solutions["forbidden+3"] == solutions["renamed"]
    assert _renamed(p).variables == ("v004", "v003", "v002", "v001")


def test_weak_rewrites_reorder_or_repeat():
    p = parse_spec("queens:n=5")
    shuffled = WEAK_REWRITES["variables shuffled"](p)
    assert shuffled.variables != p.variables and set(shuffled.variables) == set(p.variables)
    shuffled = WEAK_REWRITES["constraints shuffled"](p)
    assert shuffled.constraints != p.constraints
    assert sorted(shuffled.constraints, key=lambda c: c.id) == sorted(
        p.constraints, key=lambda c: c.id
    )
    repeated = WEAK_REWRITES["duplicated"](p)
    assert repeated.constraints[:-1] == p.constraints
    assert replace(repeated.constraints[-1], id=p.constraints[0].id) == p.constraints[0]


def test_nary_cases_hold_tables_of_every_shape():
    for seed in NARY_SEEDS:
        shapes = {(len(c.scope), c.kind) for c in _instance(seed).constraints}
        assert {(3, "allowed"), (4, "allowed"), (3, "forbidden"), (4, "forbidden")} <= shapes


def test_the_restarted_mode_restarts():
    cfg = SearchConfig(heuristic=parse_heuristic("dom/wdeg"), **RESTARTED)
    assert solve(parse_spec("langford:k=2,n=4"), cfg).stats.restarts > 0


@pytest.mark.parametrize("scheme,policy", PAIRS)
def test_rewrites_keep_every_counter(scheme, policy):
    # one heuristic per case, rotated by the pair's position, so that across
    # the pairs each case meets every heuristic listed for it
    offset = PAIRS.index((scheme, policy))
    for i, (spec, mode, heuristics) in enumerate(CASES):
        heuristic = parse_heuristic(heuristics[(i + offset) % len(heuristics)])
        cfg = SearchConfig(heuristic=heuristic, scheme=scheme, policy=policy, **mode)
        original = _instance(spec)
        want = _counters(original, cfg)
        for name, rewrite in REWRITES.items():
            assert _counters(rewrite(original), cfg) == want, (spec, cfg, name)


@pytest.mark.parametrize("scheme,policy", PAIRS)
def test_weak_rewrites_keep_result_and_count(scheme, policy):
    offset = PAIRS.index((scheme, policy))
    heuristic = parse_heuristic(WEAK_HEURISTICS[offset % len(WEAK_HEURISTICS)])
    cfg = SearchConfig(heuristic=heuristic, scheme=scheme, policy=policy, mode="count")
    for spec in REORDERED:
        original = parse_spec(spec)
        want = solve(original, cfg)
        for name, rewrite in WEAK_REWRITES.items():
            got = solve(rewrite(original), cfg)
            assert (got.result, got.count) == (want.result, want.count), (spec, cfg, name)
