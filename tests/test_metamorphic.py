"""Metamorphic relations: rewriting an instance without changing its meaning
leaves every counter of every solve as it was.

Three rewrites are checked, each under every scheme x revision policy pair:
every constraint as its allowed table, every constraint as its forbidden
table with every value shifted by +3, and every variable renamed with the
declaration order kept. A solve reports its result, solution count, nodes,
checks, revisions, DWOs and restarts; all seven must match the original's.
"""

from dataclasses import replace
from itertools import product

import pytest

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
# (instance, mode, heuristics to rotate through): every small instance is
# counted, and decided with restarts. langford:k=2,n=4 is the one that
# restarts under every pair; it runs dom/wdeg only, whose weights carry over
# from run to run, since the lookahead heuristics cost most there
CASES = (
    [(spec, dict(mode="count"), HEURISTICS) for spec in COUNTED]
    + [(spec, RESTARTED, HEURISTICS) for spec in COUNTED]
    + [("langford:k=2,n=4", RESTARTED, ("dom/wdeg",))]
)
SHIFT = 3


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
        original = parse_spec(spec)
        want = _counters(original, cfg)
        for name, rewrite in REWRITES.items():
            assert _counters(rewrite(original), cfg) == want, (spec, cfg, name)
