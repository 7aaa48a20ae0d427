import copy
import itertools
import json
import operator
import pickle
import random
import tracemalloc
from dataclasses import fields, replace

import pytest

from nary import gen_nary
from macsolver import model
from macsolver.instances import gen_chessboard, gen_langford, gen_model_d, gen_model_rb, gen_queens
from macsolver.model import (
    PREDICATES,
    Constraint,
    DomainStore,
    InstanceError,
    Problem,
    SearchStats,
    check_tuple,
    dump_problem,
    load_problem,
    neighbors,
    seek_support,
)
from macsolver.search import SearchConfig, solve


def pred(cid, scope, name, k=None):
    return Constraint(id=cid, scope=scope, kind="predicate", pred=name, k=k)


def make_problem():
    return Problem(
        name="demo",
        variables=("x", "y", "z"),
        domains={"x": (1, 2, 3), "y": (1, 2, 3), "z": (1, 2, 3)},
        constraints=(pred("cxy", ("x", "y"), "lt"), pred("cyz", ("y", "z"), "lt")),
    )


def test_constraint_validation():
    with pytest.raises(InstanceError):
        pred("c", ("x",), "ne")
    with pytest.raises(InstanceError):
        pred("c", ("x", "x"), "ne")
    with pytest.raises(InstanceError):
        pred("c", ("x", "y"), "dist_ne")  # k missing
    with pytest.raises(InstanceError):
        pred("c", ("x", "y"), "ne", k=1)  # k not allowed
    with pytest.raises(InstanceError):
        pred("c", ("x", "y", "z"), "ne")  # predicates are binary
    with pytest.raises(InstanceError):
        pred("c", ("x", "y"), "nosuch")
    with pytest.raises(InstanceError):
        Constraint(id="c", scope=("x", "y"), kind="allowed", tuples=frozenset({(1,)}))
    with pytest.raises(InstanceError):
        Constraint(id="c", scope=("x", "y"), kind="allowed")  # table missing
    with pytest.raises(InstanceError):
        Constraint(id="c", scope=("x", "y"), kind="nosuch")


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(kind="predicate", pred="ne", tuples=frozenset({(1, 2)})), "takes no tuples"),
        (dict(kind="allowed", tuples=frozenset({(1, 2)}), pred="ne"), "take no pred"),
        (dict(kind="forbidden", tuples=frozenset({(1, 2)}), k=1), "take no pred"),
        # a mutable table would change under the constraint's test
        (dict(kind="allowed", tuples={(1, 2)}), "must be a frozenset"),
        (dict(kind="forbidden", tuples=[(1, 2)]), "must be a frozenset"),
    ],
)
def test_constraint_rejects_a_field_its_kind_does_not_keep(fields, message):
    with pytest.raises(InstanceError, match=message):
        Constraint(id="c", scope=("x", "y"), **fields)


def test_problem_validation():
    with pytest.raises(InstanceError):
        Problem(name="p", variables=("x", "x"), domains={"x": (1,)}, constraints=())
    with pytest.raises(InstanceError):
        Problem(name="p", variables=("x",), domains={"x": ()}, constraints=())
    with pytest.raises(InstanceError):
        Problem(
            name="p",
            variables=("x",),
            domains={"x": (1,), "w": (1,)},
            constraints=(),
        )
    with pytest.raises(InstanceError):
        Problem(
            name="p",
            variables=("x", "y"),
            domains={"x": (1,), "y": (1,)},
            constraints=(pred("c", ("x", "w"), "ne"),),
        )
    with pytest.raises(InstanceError):
        Problem(
            name="p",
            variables=("x", "y"),
            domains={"x": (1,), "y": (1,)},
            constraints=(pred("c", ("x", "y"), "ne"), pred("c", ("x", "y"), "eq")),
        )


def test_problem_lookup_tables():
    p = make_problem()
    assert [c.id for c in p.constraints_on["y"]] == ["cxy", "cyz"]
    assert p.by_id["cxy"].scope == ("x", "y")
    assert p.var_index == {"x": 0, "y": 1, "z": 2}
    assert neighbors(p, "y") == {"x", "z"}
    assert neighbors(p, "x") == {"y"}
    with pytest.raises(InstanceError):
        neighbors(p, "nope")


# one instance per generator family plus one read from its JSON text
FAMILIES = pytest.mark.parametrize(
    "build",
    [
        lambda: gen_model_d(8, 4, 14, 0.5, 3),
        lambda: gen_model_rb(8, 4, 14, 0.5, 1),
        lambda: gen_langford(2, 4),
        lambda: gen_queens(5),
        lambda: gen_chessboard(3, 3, 2),
        lambda: load_problem(dump_problem(make_problem())),
    ],
    ids=["modelD", "modelRB", "langford", "queens", "chessboard", "load_problem"],
)


@FAMILIES
def test_neighborhood_and_by_id_are_built_on_first_read(build):
    p = build()
    assert "neighborhood" not in vars(p) and "by_id" not in vars(p)
    want_nb = {x: set() for x in p.variables}
    for c in p.constraints:
        for x in c.scope:
            want_nb[x].update(y for y in c.scope if y != x)
    assert p.neighborhood == want_nb
    assert "neighborhood" in vars(p) and "by_id" not in vars(p)
    assert p.by_id == {c.id: c for c in p.constraints}
    assert p.by_id is p.by_id and p.neighborhood is p.neighborhood


def test_a_replaced_problem_derives_its_own_maps():
    p = make_problem()
    assert p.neighborhood and p.by_id  # read, so p keeps both
    q = replace(p, constraints=(pred("cxz", ("x", "z"), "ne"),))
    assert "neighborhood" not in vars(q) and "by_id" not in vars(q)
    assert q.neighborhood == {"x": {"z"}, "y": set(), "z": {"x"}}
    assert list(q.by_id) == ["cxz"]
    assert list(p.by_id) == ["cxy", "cyz"]


@FAMILIES
def test_a_problem_round_trips_through_pickle_deepcopy_and_replace(build):
    p = build()
    cfg = SearchConfig(mode="count")
    want = solve(p, cfg)
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), replace(p)):
        assert q == p and q is not p
        assert [c.arity for c in q.constraints] == [len(c.scope) for c in q.constraints]
        got = solve(q, cfg)
        assert (got.result, got.count) == (want.result, want.count)
        assert (got.stats.nodes, got.stats.checks, got.stats.revisions) == (
            want.stats.nodes, want.stats.checks, want.stats.revisions,
        )


def test_a_constraint_holds_only_data():
    for c in (
        Constraint("a", ("x", "y"), "allowed", frozenset({(1, 2)})),
        Constraint("f", ("x", "y", "z"), "forbidden", frozenset({(1, 2, 3)})),
        pred("p", ("x", "y"), "lt"),
        pred("d", ("x", "y"), "dist_gt", k=1),
    ):
        assert not hasattr(c, "__dict__")
        assert not any(callable(getattr(c, f.name)) for f in fields(c))
        assert c.arity == len(c.scope)
        twin = Constraint(c.id, c.scope, c.kind, c.tuples, c.pred, c.k)
        twin.arity = 99
        assert twin == c and repr(twin) == repr(c)
        assert "arity" not in repr(c)


def test_constraint_test_agrees_with_check_tuple_and_counts_no_check(monkeypatch):
    pairs = list(itertools.product(range(-2, 3), repeat=2))
    table = frozenset(t for t in pairs if (3 * t[0] + t[1]) % 4 == 1)
    reference = {
        **{name: getattr(operator, name) for name in ("eq", "ne", "lt", "le", "gt", "ge")},
        "dist_ne": lambda a, b: abs(a - b) != 1,
        "dist_gt": lambda a, b: abs(a - b) > 1,
        "allowed": lambda a, b: (a, b) in table,
        "forbidden": lambda a, b: (a, b) not in table,
    }
    cs = [pred(n, ("x", "y"), n, k=1 if n.startswith("dist") else None) for n in PREDICATES]
    cs += [Constraint(kind, ("x", "y"), kind, table) for kind in ("allowed", "forbidden")]
    assert sorted(c.id for c in cs) == sorted(reference)
    s = SearchStats()
    for c in cs:
        for t in pairs:
            with monkeypatch.context() as m:
                m.setattr(model, "check_tuple", None)  # test must not go through it
                verdict = c.test(t)
            assert verdict is reference[c.id](*t), (c.id, t)
            assert check_tuple(c, t, s) is verdict, (c.id, t)
    assert s.checks == len(cs) * len(pairs)


@pytest.mark.parametrize("seed", range(3))
def test_seek_support_counts_the_checks_of_a_lexicographic_scan(seed):
    # the checks counter depends on the enumeration order: the product of
    # the row in scope order, position i fixed to a, up to the first support
    p = gen_nary(seed)
    full = DomainStore(p)
    shrunk = DomainStore(p)
    for x in p.variables:
        if shrunk.size(x) > 2:
            shrunk.remove(x, shrunk.current(x)[0])  # the last value moves first
    for d in (full, shrunk):
        for c in p.constraints:
            live = [d.current(y) for y in c.scope]
            for i in range(c.arity):
                for a in live[i]:
                    scan = list(itertools.product(*live[:i], (a,), *live[i + 1:]))
                    first = next((n for n, t in enumerate(scan, 1) if c.test(t)), None)
                    s = SearchStats()
                    found = seek_support(c, i, a, list(live), s)
                    assert found is (first is not None), (c.id, i, a)
                    assert s.checks == (first or len(scan)), (c.id, i, a)


def test_check_tuple_counts_and_validates():
    c = pred("c", ("x", "y"), "lt")
    s = SearchStats()
    assert check_tuple(c, (1, 2), s) is True
    assert check_tuple(c, (2, 1), s) is False
    assert s.checks == 2
    with pytest.raises(InstanceError):
        check_tuple(c, (1, 2, 3), s)


def test_predicate_semantics():
    s = SearchStats()
    assert check_tuple(pred("a", ("x", "y"), "ne"), (1, 2), s)
    assert not check_tuple(pred("a", ("x", "y"), "ne"), (2, 2), s)
    assert check_tuple(pred("b", ("x", "y"), "eq"), (2, 2), s)
    assert check_tuple(pred("c", ("x", "y"), "le"), (2, 2), s)
    assert check_tuple(pred("d", ("x", "y"), "gt"), (3, 2), s)
    assert check_tuple(pred("e", ("x", "y"), "ge"), (2, 2), s)
    dn = pred("f", ("x", "y"), "dist_ne", k=2)
    assert check_tuple(dn, (1, 2), s) and not check_tuple(dn, (1, 3), s)
    assert not check_tuple(dn, (3, 1), s)  # distance is symmetric
    dg = pred("g", ("x", "y"), "dist_gt", k=1)
    assert check_tuple(dg, (1, 4), s) and not check_tuple(dg, (1, 2), s)


@pytest.mark.parametrize("name", ["eq", "ne", "lt", "le", "gt", "ge"])
def test_plain_predicates_agree_with_operator(name):
    c = pred("c", ("x", "y"), name)
    op = getattr(operator, name)
    s = SearchStats()
    pairs = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for n, (a, b) in enumerate(pairs, 1):
        assert check_tuple(c, (a, b), s) is op(a, b)
        assert s.checks == n
    with pytest.raises(InstanceError):
        check_tuple(c, (1,), s)
    with pytest.raises(InstanceError):
        check_tuple(c, (1, 2, 3), s)
    assert s.checks == len(pairs)


def test_table_semantics():
    s = SearchStats()
    al = Constraint(
        id="d", scope=("x", "y"), kind="allowed", tuples=frozenset({(1, 2), (3, 4)})
    )
    assert check_tuple(al, (1, 2), s) and not check_tuple(al, (1, 4), s)
    fb = Constraint(
        id="e", scope=("x", "y"), kind="forbidden", tuples=frozenset({(2, 2)})
    )
    assert check_tuple(fb, (1, 2), s) and not check_tuple(fb, (2, 2), s)


def test_domain_store_keeps_no_problem():
    assert not hasattr(DomainStore(make_problem()), "problem")


def test_seek_support_binary():
    p = make_problem()
    d = DomainStore(p)
    c = p.constraints[0]  # x < y
    s = SearchStats()
    row = [d.current("x"), d.current("y")]
    assert seek_support(c, 0, 1, row, s) is True
    assert seek_support(c, 0, 3, row, s) is False
    assert seek_support(c, 1, 1, row, s) is False
    assert seek_support(c, 1, 3, row, s) is True
    assert s.checks > 0


def test_seek_support_respects_current_domain():
    p = make_problem()
    d = DomainStore(p)
    c = p.constraints[0]
    d.remove("y", 2)
    d.remove("y", 3)
    s = SearchStats()
    row = [d.current("x"), d.current("y")]
    assert seek_support(c, 0, 1, row, s) is False  # only y=1 left


def test_seek_support_nary():
    c = Constraint(
        id="c",
        scope=("x", "y", "z"),
        kind="forbidden",
        tuples=frozenset({(1, 1, 1)}),
    )
    p = Problem(
        name="p",
        variables=("x", "y", "z"),
        domains={"x": (1,), "y": (1,), "z": (1, 2)},
        constraints=(c,),
    )
    d = DomainStore(p)
    s = SearchStats()
    row = [d.current("x"), d.current("y"), d.current("z")]
    assert seek_support(c, 2, 2, row, s) is True
    assert seek_support(c, 2, 1, row, s) is False


def test_domain_store_basics():
    p = make_problem()
    d = DomainStore(p)
    assert d.current("x") == [1, 2, 3]
    assert d.size("x") == 3
    assert d.contains("x", 2)
    d.remove("x", 2)
    assert not d.contains("x", 2)
    assert sorted(d.current("x")) == [1, 3]
    assert not d.wiped()
    d.remove("x", 1)
    d.remove("x", 3)
    assert d.wiped()
    with pytest.raises(ValueError):
        d.remove("x", 2)  # already gone
    # a value never in the domain reads as absent and fails as assign does
    assert not d.contains("y", 9)
    with pytest.raises(ValueError, match=r"^9 not in current D\(y\)$"):
        d.remove("y", 9)
    assert d.current("y") == [1, 2, 3]


def test_domain_store_memory_is_linear_in_the_domains():
    # no per-value map: 300 domains of 300 values are 300 arrays of 300 slots
    # (about 0.76 MB), where a {value: position} dict per domain adds 3 MB
    values = tuple(range(300))
    variables = tuple(f"v{i}" for i in range(300))
    p = Problem(
        name="wide", variables=variables, domains=dict.fromkeys(variables, values),
        constraints=(),
    )
    tracemalloc.start()
    try:
        d = DomainStore(p)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.size("v0") == 300
    assert traced < 1.5e6


def test_assign_returns_removed_count():
    p = make_problem()
    d = DomainStore(p)
    assert d.assign("x", 2) == 2
    assert d.current("x") == [2]
    assert d.assign("x", 2) == 0  # already singleton
    with pytest.raises(ValueError):
        d.assign("x", 3)


def test_mark_restore_roundtrip_exact():
    p = make_problem()
    d = DomainStore(p)
    before = {x: d.current(x) for x in p.variables}
    m = d.mark()
    d.remove("x", 1)
    d.assign("y", 3)
    d.remove("z", 2)
    d.restore(m)
    after = {x: d.current(x) for x in p.variables}
    # restoration is order-exact, not just set-equal
    assert after == before


def test_mark_restore_randomized():
    rng = random.Random(42)
    domains = {f"v{i}": tuple(range(8)) for i in range(5)}
    p = Problem(
        name="p",
        variables=tuple(domains),
        domains=domains,
        constraints=(pred("c", ("v0", "v1"), "ne"),),
    )
    d = DomainStore(p)
    snapshots = []
    marks = []
    for _ in range(300):
        op = rng.random()
        live = [x for x in p.variables if d.size(x) > 1]
        if op < 0.5 and live:
            x = rng.choice(live)
            d.remove(x, rng.choice(d.current(x)))
        elif op < 0.7 and live:
            x = rng.choice(live)
            d.assign(x, rng.choice(d.current(x)))
        elif op < 0.85 or not marks:
            marks.append(d.mark())
            snapshots.append({x: d.current(x) for x in p.variables})
        else:
            d.restore(marks.pop())
            assert {x: d.current(x) for x in p.variables} == snapshots.pop()
    while marks:
        d.restore(marks.pop())
        assert {x: d.current(x) for x in p.variables} == snapshots.pop()


SAMPLE = {
    "name": "tiny",
    "variables": [
        {"id": "x", "domain": [0, 1]},
        {"id": "y", "domain": [0, 1]},
    ],
    "constraints": [
        {"id": "c0", "scope": ["x", "y"], "kind": "predicate", "pred": {"name": "ne"}},
        {
            "id": "c1",
            "scope": ["x", "y"],
            "kind": "allowed",
            "tuples": [[0, 1], [1, 0]],
        },
    ],
}


def test_load_problem():
    p = load_problem(json.dumps(SAMPLE))
    assert p.name == "tiny"
    assert p.variables == ("x", "y")
    assert p.domains["x"] == (0, 1)
    assert p.constraints[0].pred == "ne"
    assert (0, 1) in p.constraints[1].tuples


def test_load_problem_rejects_unknown_fields():
    for mutate in (
        lambda d: d.__setitem__("extra", 1),
        lambda d: d["variables"][0].__setitem__("extra", 1),
        lambda d: d["constraints"][0].__setitem__("extra", 1),
        lambda d: d["constraints"][0]["pred"].__setitem__("extra", 1),
    ):
        doc = json.loads(json.dumps(SAMPLE))
        mutate(doc)
        with pytest.raises(InstanceError):
            load_problem(json.dumps(doc))


def test_load_problem_rejects_bool_values():
    doc = json.loads(json.dumps(SAMPLE))
    doc["variables"][0]["domain"] = [True, False]
    with pytest.raises(InstanceError):
        load_problem(json.dumps(doc))


def test_load_problem_rejects_mixed_kind_payloads():
    doc = json.loads(json.dumps(SAMPLE))
    doc["constraints"][0]["tuples"] = [[0, 1]]  # predicate kind takes no tuples
    with pytest.raises(InstanceError):
        load_problem(json.dumps(doc))
    doc = json.loads(json.dumps(SAMPLE))
    doc["constraints"][1]["pred"] = {"name": "ne"}  # table kind takes no pred
    with pytest.raises(InstanceError):
        load_problem(json.dumps(doc))


def test_a_table_of_mixed_widths_names_the_wrong_width():
    mixed = [[0, 1], [0, 1, 2]]
    with pytest.raises(InstanceError, match=r"constraint c: tuple width 3 != arity 2"):
        Constraint(id="c", scope=("x", "y"), kind="allowed", tuples=frozenset(map(tuple, mixed)))
    text = json.dumps(
        {
            "name": "mixed",
            "variables": [{"id": "x", "domain": [0, 1]}, {"id": "y", "domain": [1, 2]}],
            "constraints": [
                {"id": "c", "scope": ["x", "y"], "kind": "forbidden", "tuples": mixed}
            ],
        }
    )
    with pytest.raises(InstanceError, match=r"constraint c: tuple width 3 != arity 2"):
        load_problem(text)


def _edit(path, value):
    # SAMPLE with the field at path (keys and indexes) set to value, or
    # deleted when value is DELETE
    doc = json.loads(json.dumps(SAMPLE))
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return json.dumps(doc)


DELETE = object()
REJECTED_INSTANCES = [
    ("[]", "top level must be an object"),
    (_edit(["name"], 3), "field 'name' must be a string"),
    (_edit(["variables"], []), "field 'variables' must be a non-empty list"),
    (_edit(["variables", 0], "x"), "variable entries must be objects"),
    (_edit(["variables", 0, "id"], 1), "variable id must be a string"),
    (_edit(["variables", 0, "domain"], []), "variable x: domain must be a non-empty list of ints"),
    (_edit(["variables", 0, "domain"], [0, 0]), "variable x: duplicate domain value"),
    (_edit(["constraints"], {}), "field 'constraints' must be a list"),
    (_edit(["constraints", 0], []), "constraint entries must be objects"),
    (_edit(["constraints", 0, "id"], 0), "constraint id must be a string"),
    (_edit(["constraints", 0, "scope"], "xy"), "constraint c0: scope must be a list of variable ids"),
    (_edit(["constraints", 1, "pred"], {"name": "ne"}), "constraint c1: table kinds take no pred"),
    (_edit(["constraints", 1, "tuples"], DELETE), "constraint c1: missing tuple table"),
    (_edit(["constraints", 1, "tuples"], [[0, "1"]]), "constraint c1: tuples must be lists of ints"),
    (_edit(["constraints", 0, "tuples"], [[0, 1]]), "constraint c0: predicate kind takes no tuples"),
    (_edit(["constraints", 0, "pred"], DELETE), "constraint c0: missing pred object"),
    (
        _edit(["constraints", 0, "pred"], {"name": "dist_ne", "k": 1.5}),
        "constraint c0: k must be an int",
    ),
    (_edit(["constraints", 0, "kind"], "nosuch"), "constraint c0: unknown kind 'nosuch'"),
]


@pytest.mark.parametrize("text, message", REJECTED_INSTANCES)
def test_load_problem_rejection_messages(text, message):
    with pytest.raises(InstanceError) as exc:
        load_problem(text)
    assert str(exc.value) == message


def test_load_problem_bad_json_reports_position():
    with pytest.raises(InstanceError) as exc:
        load_problem("{not json")
    assert "line" in str(exc.value)


def test_load_problem_pred_k():
    doc = json.loads(json.dumps(SAMPLE))
    doc["constraints"][0]["pred"] = {"name": "dist_ne", "k": 1}
    p = load_problem(json.dumps(doc))
    assert p.constraints[0].k == 1


def test_dump_load_roundtrip():
    p = load_problem(json.dumps(SAMPLE))
    text = dump_problem(p)
    q = load_problem(text)
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
