import hashlib
import importlib.util
import json
import random
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

import grid
from oracle import count_solutions, satisfiable
from macsolver.instances import (
    _nth_pair,
    _problem,
    gen_chessboard,
    gen_langford,
    gen_model_d,
    gen_model_rb,
    gen_queens,
    is_spec,
    parse_spec,
)
from macsolver.model import dump_problem, load_problem

# SHA-256 of dump_problem(parse_spec(spec)) for every benchmark and grid spec,
# plus edge parameters; dump_problem sorts each table, so no hash seed leaks in
DIGESTS = json.loads(Path(__file__).with_name("instance_digests.json").read_text())


def test_model_d_structure():
    p = gen_model_d(n=6, d=4, e=9, t=0.3, seed=1)
    assert len(p.variables) == 6
    assert len(p.constraints) == 9
    assert all(p.domains[x] == (0, 1, 2, 3) for x in p.variables)
    scopes = {tuple(sorted(c.scope)) for c in p.constraints}
    assert len(scopes) == 9  # pairs are sampled without replacement
    assert all(c.kind == "forbidden" for c in p.constraints)


@pytest.mark.parametrize("make, message", [
    (lambda: gen_langford(1, 3), "need k >= 2 and n >= 1"),
    (lambda: gen_langford(2, 0), "need k >= 2 and n >= 1"),
    (lambda: gen_queens(0), "need n >= 1"),
    (lambda: gen_chessboard(1, 3, 2), "need rows >= 2, cols >= 2, colors >= 1"),
    (lambda: gen_chessboard(3, 1, 2), "need rows >= 2, cols >= 2, colors >= 1"),
    (lambda: gen_chessboard(3, 3, 0), "need rows >= 2, cols >= 2, colors >= 1"),
])
def test_structured_generators_reject_bad_parameters(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_model_d_parameter_validation():
    with pytest.raises(ValueError):
        gen_model_d(n=1, d=3, e=0, t=0.5, seed=0)
    with pytest.raises(ValueError):
        gen_model_d(n=4, d=3, e=7, t=0.5, seed=0)  # only 6 pairs exist
    with pytest.raises(ValueError):
        gen_model_d(n=4, d=3, e=3, t=1.5, seed=0)


def test_model_d_tightness_extremes():
    loose = gen_model_d(n=5, d=3, e=10, t=0.0, seed=0)
    assert all(not c.tuples for c in loose.constraints)
    assert satisfiable(loose)
    tight = gen_model_d(n=5, d=3, e=10, t=1.0, seed=0)
    assert all(len(c.tuples) == 9 for c in tight.constraints)
    assert not satisfiable(tight)


def test_model_d_deterministic_per_seed():
    a = gen_model_d(n=7, d=4, e=12, t=0.4, seed=9)
    b = gen_model_d(n=7, d=4, e=12, t=0.4, seed=9)
    assert a == b
    c = gen_model_d(n=7, d=4, e=12, t=0.4, seed=10)
    assert a != c


def test_nth_pair_unranks_the_lexicographic_pairs():
    for n in range(2, 61):
        pairs = list(combinations(range(n), 2))
        assert [_nth_pair(n, k) for k in range(len(pairs))] == pairs, n
    # the first and last pair of every row at n = 2000
    n, start = 2000, 0
    for i in range(n - 1):
        assert _nth_pair(n, start) == (i, i + 1)
        start += n - 1 - i
        assert _nth_pair(n, start - 1) == (i, n - 1)
    assert start == n * (n - 1) // 2


def test_a_sparse_random_instance_does_not_build_every_pair():
    tracemalloc.start()
    try:
        p = parse_spec("modelD:n=2000,d=2,e=1,t=0.5,seed=0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p.constraints) == 1
    assert peak < 10_000_000  # the 1,999,000 pairs alone took over 100 MB


def _per_pair_reference(n, d, e, t, seed, planted, kept_at):
    """The random generator as it was written before its tables shared tuples.

    One generator expression per table makes a fresh tuple for each forbidden
    pair. Appends the index of each table's planted pair to ``kept_at``.
    """
    rng = random.Random(seed)
    variables = tuple(f"x{i}" for i in range(n))
    values = [rng.randrange(d) for _ in range(n)] if planted else None
    specs = []
    for k in rng.sample(range(n * (n - 1) // 2), e):
        i, j = _nth_pair(n, k)
        keep = (values[i], values[j]) if planted else None
        if planted:
            kept_at.append(values[i] * d + values[j])
        forbidden = frozenset(
            (a, b)
            for a in range(d)
            for b in range(d)
            if (a, b) != keep and rng.random() < t
        )
        specs.append(
            dict(scope=(variables[i], variables[j]), kind="forbidden", tuples=forbidden)
        )
    name = f"{'modelRB' if planted else 'modelD'}-{n}-{d}-{e}-{t}-{seed}"
    return _problem(name, variables, d, specs)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_random_tables_draw_what_the_per_pair_generator_drew(d):
    n, e = 6, 12
    kept_at: list[int] = []
    for t in (0.0, 0.3, 1.0):
        for seed in range(10):
            for planted, gen in ((False, gen_model_d), (True, gen_model_rb)):
                want = _per_pair_reference(n, d, e, t, seed, planted, kept_at)
                got = gen(n=n, d=d, e=e, t=t, seed=seed)
                assert dump_problem(got) == dump_problem(want), (t, seed, planted)
    # a planted pair at the first and at the last value pair was covered; at
    # d = 1 they are the one pair, whose table is empty and takes no draw
    assert {0, d * d - 1} <= set(kept_at)
    if d == 1:
        assert all(not c.tuples for c in gen_model_rb(n=n, d=1, e=e, t=1.0, seed=0).constraints)


@pytest.mark.parametrize("family", ["modelD", "modelRB"])
def test_random_tables_share_one_tuple_per_value_pair(family):
    p = parse_spec(f"{family}:n=20,d=8,e=110,t=0.3,seed=0")
    assert len({id(t) for c in p.constraints for t in c.tuples}) <= 64
    # a load keeps one object per distinct value tuple too
    q = load_problem(dump_problem(p))
    distinct = {t for c in q.constraints for t in c.tuples}
    assert len({id(t) for c in q.constraints for t in c.tuples}) <= len(distinct)


def test_model_rb_planted_solution_survives():
    for seed in range(20):
        p = gen_model_rb(n=7, d=4, e=14, t=0.9, seed=seed)
        assert satisfiable(p), seed


def test_model_rb_differs_from_model_d():
    # same parameters, same seed: the plant changes the forbidden sets
    d_inst = gen_model_d(n=6, d=3, e=10, t=0.8, seed=3)
    rb_inst = gen_model_rb(n=6, d=3, e=10, t=0.8, seed=3)
    assert satisfiable(rb_inst)
    assert d_inst.name != rb_inst.name


def test_langford_structure():
    p = gen_langford(2, 4)
    assert len(p.variables) == 8
    assert all(p.domains[x] == tuple(range(8)) for x in p.variables)
    ne_count = sum(1 for c in p.constraints if c.kind == "predicate")
    table_count = sum(1 for c in p.constraints if c.kind == "allowed")
    assert ne_count == 28  # all position pairs distinct
    assert table_count == 4  # one spacing table per value
    # value index i: second occurrence exactly i+2 positions later
    spacing = [c for c in p.constraints if c.kind == "allowed"]
    assert spacing[0].tuples == frozenset((q, q + 2) for q in range(6))
    assert spacing[3].tuples == frozenset((q, q + 5) for q in range(3))


def test_langford_sat_unsat_family():
    assert satisfiable(gen_langford(2, 3))
    assert satisfiable(gen_langford(2, 4))
    assert not satisfiable(gen_langford(2, 5))


def test_langford_solution_decodes_to_sequence():
    p = gen_langford(2, 3)
    # found by the reference enumerator, checked structurally here
    from macsolver import solve, SearchConfig

    out = solve(p, SearchConfig())
    seq = [None] * 6
    for i in range(3):
        for j in range(2):
            pos = out.solution[f"p{i}_{j}"]
            assert seq[pos] is None
            seq[pos] = i + 1
    # each value v appears twice, v+1 slots apart
    for v in (1, 2, 3):
        first = seq.index(v)
        assert seq[first + v + 1] == v


def test_queens_structure():
    p = gen_queens(5)
    assert len(p.variables) == 5
    assert len(p.constraints) == 2 * 10  # ne + diagonal per pair
    diag = [c for c in p.constraints if c.pred == "dist_ne"]
    assert all(c.k == int(c.scope[1][1:]) - int(c.scope[0][1:]) for c in diag)


def test_queens_counts():
    assert count_solutions(gen_queens(4)) == 2
    assert count_solutions(gen_queens(5)) == 10
    assert count_solutions(gen_queens(6)) == 4


def test_chessboard_structure():
    p = gen_chessboard(3, 4, 2)
    assert len(p.variables) == 12
    assert len(p.constraints) == 3 * 6  # C(3,2) * C(4,2) rectangles
    c = p.constraints[0]
    assert c.kind == "forbidden"
    assert len(c.scope) == 4
    assert c.tuples == frozenset({(0, 0, 0, 0), (1, 1, 1, 1)})
    big = gen_chessboard(10, 10, 3)
    assert len(big.constraints) == 45 * 45  # 2025


def test_chessboard_counts():
    # 2x2 with 2 colors: all 16 assignments minus the 2 monochrome boards
    assert count_solutions(gen_chessboard(2, 2, 2)) == 14
    # 3x3 with 2 colors: direct enumeration over all 512 bit boards
    want = 0
    for bits in range(512):
        cell = lambda r, c: (bits >> (r * 3 + c)) & 1
        ok = True
        for r1, r2 in combinations(range(3), 2):
            for c1, c2 in combinations(range(3), 2):
                corners = {cell(r1, c1), cell(r1, c2), cell(r2, c1), cell(r2, c2)}
                if len(corners) == 1:
                    ok = False
        want += ok
    assert count_solutions(gen_chessboard(3, 3, 2)) == want


def test_generated_instances_roundtrip():
    for p in (
        gen_model_d(n=5, d=3, e=7, t=0.4, seed=2),
        gen_model_rb(n=5, d=3, e=7, t=0.6, seed=2),
        gen_langford(2, 3),
        gen_queens(4),
        gen_chessboard(2, 3, 2),
    ):
        q = load_problem(dump_problem(p))
        assert q.name == p.name
        assert q.variables == p.variables
        assert q.domains == p.domains
        assert len(q.constraints) == len(p.constraints)
        for a, b in zip(q.constraints, p.constraints):
            assert (a.id, a.scope, a.kind, a.tuples, a.pred, a.k) == (
                b.id,
                b.scope,
                b.kind,
                b.tuples,
                b.pred,
                b.k,
            )


def test_parse_spec():
    p = parse_spec("modelD:n=6,d=3,e=8,t=0.4,seed=5")
    assert p == gen_model_d(n=6, d=3, e=8, t=0.4, seed=5)
    assert parse_spec("queens:n=5") == gen_queens(5)
    assert parse_spec("langford:k=2,n=4") == gen_langford(2, 4)
    assert parse_spec("chessboard:rows=2,cols=3,colors=2") == gen_chessboard(2, 3, 2)
    # seed defaults to 0
    assert parse_spec("modelRB:n=5,d=3,e=6,t=0.5") == gen_model_rb(
        n=5, d=3, e=6, t=0.5, seed=0
    )


def test_parse_spec_errors():
    with pytest.raises(ValueError):
        parse_spec("queens")  # no colon
    with pytest.raises(ValueError):
        parse_spec("nosuch:n=5")
    with pytest.raises(ValueError):
        parse_spec("queens:m=5")  # unknown parameter
    with pytest.raises(ValueError):
        parse_spec("langford:k=2")  # n missing
    with pytest.raises(
        ValueError, match=r"bad value '1\.5' for generator parameter 'n' in 'queens:n=1\.5'"
    ):
        parse_spec("queens:n=1.5")
    with pytest.raises(ValueError, match=r"bad value 'abc' for generator parameter 't' in 'model"):
        parse_spec("modelD:n=5,d=3,e=4,t=abc")


def test_parse_spec_rejects_a_repeated_parameter():
    with pytest.raises(ValueError, match="repeated generator parameter 'n'"):
        parse_spec("queens:n=4,n=6")
    with pytest.raises(ValueError, match="repeated"):
        parse_spec("modelD:n=6,d=3,e=8,t=0.4,seed=5,seed=5")


def test_is_spec():
    assert is_spec("queens:n=8")
    assert is_spec("modelD:n=5,d=3,e=6,t=0.5")
    assert not is_spec("queens")
    assert not is_spec("instances/queens8.json")


@pytest.mark.parametrize("spec", DIGESTS)
def test_generated_instance_matches_pinned_digest(spec):
    text = dump_problem(parse_spec(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[spec]


def test_instance_digests_cover_the_benchmark_and_grid_specs():
    path = Path(__file__).parents[1] / "perfbench" / "cases.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    cases = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = cases  # dataclasses look their module up
    try:
        module_spec.loader.exec_module(cases)
    finally:
        del sys.modules[module_spec.name]
    specs = {case.spec for make in cases.WORKLOADS.values() for case in make()}
    assert len(specs) == 25
    assert specs | set(grid.FAMILIES.values()) <= set(DIGESTS)
