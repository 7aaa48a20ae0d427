import collections
import itertools
import time
import types

import pytest

from nary import gen_nary
from oracle import ac_fixpoint
from macsolver import propagation
from macsolver.heuristics import HeuristicState, VOHeuristic
from macsolver.instances import gen_chessboard, gen_model_d
from macsolver.model import Constraint, DomainStore, Problem, SearchStats
from macsolver.search import SearchConfig, solve
from macsolver.propagation import (
    POLICIES_BY_SCHEME,
    SCORE_BUILDERS,
    RevisionQueue,
    _requeue,
    initial_queue,
    needs_not_be_revised,
    propagate,
    revise,
    select_next,
    update_queue,
    validate_policy,
)

ALL_COMBOS = [(s, p) for s, pols in POLICIES_BY_SCHEME.items() for p in pols]


def pred(cid, scope, name, k=None):
    return Constraint(id=cid, scope=scope, kind="predicate", pred=name, k=k)


def chain_problem():
    # x < y < z over {1,2,3}; unique fixpoint x={1}, y={2}, z={3}
    return Problem(
        name="chain",
        variables=("x", "y", "z"),
        domains={"x": (1, 2, 3), "y": (1, 2, 3), "z": (1, 2, 3)},
        constraints=(pred("cxy", ("x", "y"), "lt"), pred("cyz", ("y", "z"), "lt")),
    )


def unit_state(problem, **setting):
    # unit weights and nothing assigned, as at the start of a solve
    return HeuristicState(problem, VOHeuristic(), **setting)


def run_to_fixpoint(problem, scheme, policy):
    state = unit_state(problem, scheme=scheme, policy=policy)
    return state, propagate(state, initial_queue(state))


def scope_read(d, c):
    # what a caller of revise passes as live: every scope domain, read once
    return [d.current(y) for y in c.scope]


def test_revise_removes_unsupported():
    p = chain_problem()
    d = DomainStore(p)
    s = SearchStats()
    c = p.by_id["cxy"]
    assert revise(d, c, 0, s, scope_read(d, c)) == 1  # x=3 has no y above it
    assert sorted(d.current("x")) == [1, 2]
    assert revise(d, c, 0, s, scope_read(d, c)) == 0  # already supported


@pytest.mark.parametrize("size", [1, 3, 7])
def test_revise_reads_each_domain_once(monkeypatch, size):
    binary = Problem(
        name="pair",
        variables=("x", "y"),
        domains={"x": tuple(range(size)), "y": tuple(range(size))},
        constraints=(pred("c", ("x", "y"), "lt"),),
    )
    scope = ("w", "x", "y", "z")
    table = Constraint(
        id="t",
        scope=scope,
        kind="allowed",
        tuples=frozenset(t for t in itertools.product(range(size), repeat=4) if sum(t) % 3),
    )
    nary = Problem(
        name="quad",
        variables=scope,
        domains={x: tuple(range(size)) for x in scope},
        constraints=(table,),
    )
    reads = collections.Counter()
    current = DomainStore.current

    def counted(self, x):
        reads[x] += 1
        return current(self, x)

    monkeypatch.setattr(DomainStore, "current", counted)
    for p in (binary, nary):
        c = p.constraints[0]
        for i, x in enumerate(c.scope):  # x at every scope position, 0 and 1 included
            d = DomainStore(p)
            reads.clear()
            # the caller's read is the only one: revise reads no domain
            revise(d, c, i, SearchStats(), scope_read(d, c))
            assert reads == {y: 1 for y in c.scope}, (p.name, x)


@pytest.mark.parametrize("scheme,policy", ALL_COMBOS)
def test_chain_fixpoint_all_combos(scheme, policy):
    state, out = run_to_fixpoint(chain_problem(), scheme, policy)
    assert out.consistent
    assert state.d.current("x") == [1]
    assert state.d.current("y") == [2]
    assert state.d.current("z") == [3]


def test_propagate_counts_revisions_and_dwos():
    state, out = run_to_fixpoint(chain_problem(), "arc", "fifo")
    s = state.stats
    assert out.consistent
    assert s.revisions > 0
    assert s.checks > 0
    assert s.dwos == 0


def test_propagate_idempotent():
    p = chain_problem()
    state, out = run_to_fixpoint(p, "variable", "fifo")
    again = propagate(state, initial_queue(state))
    assert again.consistent
    assert again.fruitful == frozenset()


def test_wipeout_outcome_fields():
    # x < y and x > y cannot both hold
    p = Problem(
        name="contradiction",
        variables=("x", "y"),
        domains={"x": (0, 1), "y": (0, 1)},
        constraints=(pred("c1", ("x", "y"), "lt"), pred("c2", ("x", "y"), "gt")),
    )
    state, out = run_to_fixpoint(p, "arc", "fifo")
    s, d = state.stats, state.d
    assert not out.consistent
    assert out.dwo_constraint in ("c1", "c2")
    assert out.dwo_variable in ("x", "y")
    assert out.dwo_constraint in out.fruitful
    assert s.dwos == 1
    assert d.wiped()


def test_queue_is_duplicate_free_fifo():
    q = RevisionQueue()
    q.add("a")
    q.add("b")
    q.add("a")
    assert len(q) == 2
    assert q.elements() == ["a", "b"]
    assert "a" in q
    q.take("a")
    assert q.elements() == ["b"]


def test_queue_rejects_unknown_kind():
    # a queue's kind is the scheme of the state it is built from, and the
    # state checks its scheme and policy once, when it is built
    p = chain_problem()
    policies = {policy for _, policy in ALL_COMBOS}
    for scheme, fits in POLICIES_BY_SCHEME.items():
        for policy in sorted(policies - set(fits)):
            with pytest.raises(ValueError, match="does not fit"):
                unit_state(p, scheme=scheme, policy=policy)
    with pytest.raises(ValueError, match="unknown propagation scheme"):
        unit_state(p, scheme="nosuch")


def test_ctr_bookkeeping():
    q = RevisionQueue()
    q.bump("c", "x")
    q.bump("c", "x")
    assert q.ctr_of("c", "x") is True
    assert q.ctr_of("c", "y") is False
    assert q.ctr_of("d", "x") is False
    q.reset_ctr(pred("c", ("x", "y"), "ne"))
    assert q.ctr_of("c", "x") is False


def test_bump_keeps_first_changed_order_and_never_alters_a_scope():
    p = chain_problem()
    q = initial_queue(unit_state(p, scheme="constraint", policy="c_wcon"))
    q.reset_ctr(p.by_id["cxy"])
    for x in ("y", "x", "y", "x"):
        q.bump("cxy", x)
    assert q.ctr["cxy"] == ("y", "x")
    # cyz's row is its scope tuple: a bump replaces the row, the scope stays
    q.bump("cyz", "y")
    q.bump("cyz", "x")
    assert q.ctr["cyz"] == ("y", "z", "x")
    assert p.by_id["cyz"].scope == ("y", "z")


def test_needs_not_be_revised():
    c = Constraint(
        id="c",
        scope=("x", "y", "z"),
        kind="forbidden",
        tuples=frozenset({(0, 0, 0)}),
    )
    q = RevisionQueue()
    # no removals anywhere: no revision is provably redundant
    assert needs_not_be_revised(q, c) is None
    q.bump("c", "x")
    # x is the only variable with pending removals: x needs no revision,
    # and only x, so the others do
    assert needs_not_be_revised(q, c) == "x"
    q.bump("c", "y")
    # another variable has removals too, x must be revised again
    assert needs_not_be_revised(q, c) is None


# n-ary seed 0 reaches a fixpoint, seed 1 wipes out
CTR_PROBLEMS = pytest.mark.parametrize(
    "make", [chain_problem, lambda: gen_nary(0), lambda: gen_nary(1)],
    ids=["chain", "nary-0", "nary-1"],
)


@pytest.mark.parametrize("scheme", ["variable", "constraint"])
@CTR_PROBLEMS
def test_requeue_leaves_the_skipped_constraints_ctr_alone(scheme, make):
    p = make()
    for c in p.constraints:
        for x in c.scope:
            state = unit_state(p, scheme=scheme, policy=POLICIES_BY_SCHEME[scheme][0])
            q = initial_queue(state)
            before = {y: q.ctr_of(c.id, y) for y in c.scope}
            _requeue(state, q, x, skip=c)
            assert {y: q.ctr_of(c.id, y) for y in c.scope} == before, (c.id, x)


@pytest.mark.parametrize("scheme,policy", [
    (s, p) for s, p in ALL_COMBOS if s != "arc"
])
@CTR_PROBLEMS
def test_propagate_reads_redundancy_once_per_constraint(monkeypatch, scheme, policy, make):
    # a processed constraint ends in reset_ctr, or in the wipeout that stops
    # propagation; needs_not_be_revised is called once for each of them
    asked, reset = [], []
    real_needs, real_reset = needs_not_be_revised, RevisionQueue.reset_ctr

    def counted_needs(q, c):
        asked.append(c.id)
        return real_needs(q, c)

    def counted_reset(q, c):
        reset.append(c.id)
        real_reset(q, c)

    monkeypatch.setattr(propagation, "needs_not_be_revised", counted_needs)
    monkeypatch.setattr(RevisionQueue, "reset_ctr", counted_reset)
    p = make()
    _, out = run_to_fixpoint(p, scheme, policy)
    wiped = [] if out.consistent else [out.dwo_constraint]
    assert asked and asked == reset + wiped


@pytest.mark.parametrize("scheme,policy", [
    (s, p) for s, p in ALL_COMBOS if s != "arc"
])
def test_propagate_reads_each_scope_domain_once_per_constraint(monkeypatch, scheme, policy):
    # a processed constraint reads each scope domain once, and once more
    # the variable each fruitful revision shrank; the variable scheme's
    # filter reads one ctr entry per constraint on the selected variable
    p = gen_chessboard(3, 3, 2)
    reads, ctr_reads, processed, fruitful, selected = [], [], [], [], []
    current, ctr_of = DomainStore.current, RevisionQueue.ctr_of
    real_needs, real_revise, real_select = needs_not_be_revised, revise, select_next

    def counted_current(d, x):
        reads.append(x)
        return current(d, x)

    def counted_ctr_of(q, cid, x):
        ctr_reads.append((cid, x))
        return ctr_of(q, cid, x)

    def counted_needs(q, c):
        processed.append(c)
        return real_needs(q, c)

    def counted_revise(d, c, i, *rest):
        removed = real_revise(d, c, i, *rest)
        if removed:
            fruitful.append(c.scope[i])
        return removed

    def counted_select(q, key):
        elem = real_select(q, key)
        selected.append(elem)
        return elem

    monkeypatch.setattr(propagation, "needs_not_be_revised", counted_needs)
    monkeypatch.setattr(propagation, "revise", counted_revise)
    monkeypatch.setattr(propagation, "select_next", counted_select)
    hstate = unit_state(p, scheme=scheme, policy=policy)
    d = hstate.d
    # three corners of the first square set to one color leave the fourth
    # corner one value, and that removal propagates further
    for x in ("s0_0", "s0_1", "s1_0"):
        removed = d.assign(x, 0)
        hstate.assigned[x] = 0
        for log in (reads, ctr_reads, processed, fruitful, selected):
            del log[:]
        monkeypatch.setattr(DomainStore, "current", counted_current)
        monkeypatch.setattr(RevisionQueue, "ctr_of", counted_ctr_of)
        out = propagate(hstate, update_queue(hstate, x, removed))
        monkeypatch.setattr(DomainStore, "current", current)
        monkeypatch.setattr(RevisionQueue, "ctr_of", ctr_of)
        assert out.consistent, x
        assert processed, x
        assert len(reads) == sum(len(c.scope) for c in processed) + len(fruitful), x
        if scheme == "variable":
            assert len(ctr_reads) == sum(len(p.constraints_on[y]) for y in selected), x
        else:
            assert not ctr_reads, x
    assert fruitful == ["s1_1"]


@pytest.mark.parametrize("scheme,policy", [
    (s, p) for s, p in ALL_COMBOS if p != "fifo"
])
@CTR_PROBLEMS
def test_propagate_builds_the_key_once_per_call(monkeypatch, scheme, policy, make):
    build = SCORE_BUILDERS[scheme][policy]
    built = []

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setitem(SCORE_BUILDERS[scheme], policy, counted)
    state, _ = run_to_fixpoint(make(), scheme, policy)
    assert state.stats.revisions > 1
    assert len(built) == 1


def test_initial_queue_seeds_everything():
    p = chain_problem()
    q = initial_queue(unit_state(p, scheme="arc"))
    assert set(q.elements()) == {
        ("cxy", "x"),
        ("cxy", "y"),
        ("cyz", "y"),
        ("cyz", "z"),
    }
    assert not q.ctr  # the arc scheme reads no ctr
    qv = initial_queue(unit_state(p, scheme="variable"))
    assert qv.elements() == ["x", "y", "z"]
    qc = initial_queue(unit_state(p, scheme="constraint", policy="c_wcon"))
    assert qc.elements() == ["cxy", "cyz"]
    for q in (qv, qc):
        assert all(q.ctr_of(c.id, x) for c in p.constraints for x in c.scope)
        # each row is the constraint's own scope tuple: seeding builds no row
        assert all(q.ctr[c.id] is c.scope for c in p.constraints)


def test_update_queue_seeds_touched_cone():
    p = chain_problem()
    q = update_queue(unit_state(p, scheme="arc"), "y", 2)
    # only the other variables of y's constraints are queued
    assert set(q.elements()) == {("cxy", "x"), ("cyz", "z")}
    assert not q.ctr  # the arc scheme reads no ctr
    qv = update_queue(unit_state(p, scheme="variable"), "y", 2)
    assert qv.elements() == ["y"]
    qc = update_queue(unit_state(p, scheme="constraint", policy="c_wcon"), "y", 2)
    assert qc.elements() == ["cxy", "cyz"]
    for q in (qv, qc):
        assert q.ctr_of("cxy", "y")
        assert q.ctr_of("cyz", "y")
        assert not q.ctr_of("cxy", "x")


def test_update_queue_zero_removals_is_noop():
    p = chain_problem()
    for scheme, policies in POLICIES_BY_SCHEME.items():
        q = update_queue(unit_state(p, scheme=scheme, policy=policies[0]), "y", 0)
        assert len(q) == 0
        assert not q.ctr


def test_validate_policy():
    for scheme, policy in ALL_COMBOS:
        assert validate_policy(scheme, policy) is SCORE_BUILDERS[scheme][policy]
    assert validate_policy("arc", "fifo") is None
    assert validate_policy("variable", "fifo") is None
    with pytest.raises(ValueError):
        validate_policy("nosuch", "fifo")
    with pytest.raises(ValueError):
        validate_policy("arc", "v_wdeg")
    with pytest.raises(ValueError):
        validate_policy("variable", "a_wdeg")
    with pytest.raises(ValueError):
        validate_policy("constraint", "fifo")


def test_propagate_leaves_the_policy_check_to_the_state(monkeypatch):
    p = chain_problem()
    cfg = SearchConfig(scheme="arc", policy="a_dom/wdeg")
    state = unit_state(p, scheme=cfg.scheme, policy=cfg.policy)

    def refuse(*args):
        raise AssertionError("the policy was checked again")

    monkeypatch.setattr(propagation, "validate_policy", refuse)
    assert propagate(state, initial_queue(state)).consistent
    assert solve(p, cfg).result == "sat"


class DictWeights:
    def __init__(self, table):
        self.table = table

    def get(self, cid):
        return self.table[cid]


def select_under(p, q, scheme, policy, d, weights, wdeg):
    # select_next with the key propagate builds for policy, over a stand-in
    # for the solve state that holds only what the builders read
    build = SCORE_BUILDERS[scheme][policy]
    state = types.SimpleNamespace(problem=p, d=d, weights=weights, wdeg=wdeg)
    return select_next(q, None if build is None else build(state))


def selection_problem():
    # a: 4 values, b: 1 value, e: 2 values; c1 on (a,b), c2 on (a,e)
    return Problem(
        name="sel",
        variables=("a", "b", "e"),
        domains={"a": (0, 1, 2, 3), "b": (0,), "e": (0, 1)},
        constraints=(pred("c1", ("a", "b"), "ne"), pred("c2", ("a", "e"), "ne")),
    )


def test_select_next_fifo_and_dom():
    p = selection_problem()
    d = DomainStore(p)
    w = DictWeights({"c1": 1, "c2": 1})
    wdeg = lambda x: 1

    q = RevisionQueue()
    q.add(("c2", "a"))
    q.add(("c1", "b"))
    assert select_under(p, q, "arc", "fifo", d, w, wdeg) == ("c2", "a")

    q = RevisionQueue()
    q.add(("c2", "a"))  # |D(a)| = 4
    q.add(("c1", "b"))  # |D(b)| = 1
    assert select_under(p, q, "arc", "dom", d, w, wdeg) == ("c1", "b")


def test_select_next_fifo_breaks_score_ties():
    p = selection_problem()
    d = DomainStore(p)
    w = DictWeights({"c1": 1, "c2": 1})
    q = RevisionQueue()
    q.add(("c1", "a"))
    q.add(("c2", "a"))  # same variable, same score
    assert select_under(p, q, "arc", "dom", d, w, lambda x: 1) == ("c1", "a")


def test_select_next_weight_policies():
    p = selection_problem()
    d = DomainStore(p)
    w = DictWeights({"c1": 1, "c2": 5})
    wdeg = lambda x: {"a": 1, "b": 7, "e": 2}[x]

    q = RevisionQueue()
    q.add(("c1", "a"))
    q.add(("c2", "a"))
    assert select_under(p, q, "arc", "a_wcon", d, w, wdeg) == ("c2", "a")  # heaviest constraint

    q = RevisionQueue()
    q.add(("c1", "a"))
    q.add(("c1", "b"))
    assert select_under(p, q, "arc", "a_wdeg", d, w, wdeg) == ("c1", "b")  # max wdeg

    q = RevisionQueue()
    q.add(("c1", "a"))  # 4/1 = 4
    q.add(("c1", "b"))  # 1/7
    assert select_under(p, q, "arc", "a_dom/wdeg", d, w, wdeg) == ("c1", "b")

    q = RevisionQueue()
    q.add(("c1", "a"))  # 4/1 = 4
    q.add(("c2", "a"))  # 4/5
    assert select_under(p, q, "arc", "a_dom/wcon", d, w, wdeg) == ("c2", "a")


def test_select_next_inverse_policies_score_other_variables():
    p = selection_problem()
    d = DomainStore(p)
    w = DictWeights({"c1": 1, "c2": 1})
    wdeg = lambda x: 1

    # both arcs revise a (same best-first score); the inverse rule looks at
    # the other scope variable instead: b gives 1/1, e gives 2/1
    q = RevisionQueue()
    q.add(("c2", "a"))
    q.add(("c1", "a"))
    assert select_under(p, q, "arc", "a_dom/wdeg_inverse", d, w, wdeg) == ("c1", "a")

    w2 = DictWeights({"c1": 1, "c2": 4})
    # c1: min over {b} of 1/w(c1)=1; c2: min over {e} of 2/w(c2)=0.5
    q = RevisionQueue()
    q.add(("c1", "a"))
    q.add(("c2", "a"))
    assert select_under(p, q, "arc", "a_dom/wcon_inverse", d, w2, wdeg) == ("c2", "a")


def test_select_next_variable_policies():
    p = selection_problem()
    d = DomainStore(p)
    w = DictWeights({"c1": 1, "c2": 1})
    wdeg = lambda x: {"a": 1, "b": 7, "e": 2}[x]

    q = RevisionQueue()
    q.add("a")
    q.add("b")
    assert select_under(p, q, "variable", "dom", d, w, wdeg) == "b"

    q = RevisionQueue()
    q.add("a")
    q.add("b")
    assert select_under(p, q, "variable", "v_wdeg", d, w, wdeg) == "b"

    q = RevisionQueue()
    q.add("a")  # 4/1
    q.add("e")  # 2/2
    assert select_under(p, q, "variable", "v_dom/wdeg", d, w, wdeg) == "e"


def test_select_next_constraint_policy():
    p = selection_problem()
    d = DomainStore(p)
    w = DictWeights({"c1": 2, "c2": 9})
    q = RevisionQueue()
    q.add("c1")
    q.add("c2")
    assert select_under(p, q, "constraint", "c_wcon", d, w, lambda x: 1) == "c2"


def tied_problem():
    # a triangle of equal domains: every element of every queue scores alike
    return Problem(
        name="tied",
        variables=("a", "b", "e"),
        domains={"a": (0, 1), "b": (0, 1), "e": (0, 1)},
        constraints=(
            pred("c1", ("a", "b"), "ne"),
            pred("c2", ("b", "e"), "ne"),
            pred("c3", ("a", "e"), "ne"),
        ),
    )


TIED_ORDER = {
    "arc": [("c3", "e"), ("c1", "a"), ("c2", "b")],
    "variable": ["e", "a", "b"],
    "constraint": ["c3", "c1", "c2"],
}


@pytest.mark.parametrize("scheme,policy", ALL_COMBOS)
def test_select_next_ties_go_to_first_inserted(scheme, policy):
    p = tied_problem()
    d = DomainStore(p)
    w = DictWeights({"c1": 3, "c2": 3, "c3": 3})
    q = RevisionQueue()
    for elem in TIED_ORDER[scheme]:
        q.add(elem)
    assert select_under(p, q, scheme, policy, d, w, lambda x: 6) == TIED_ORDER[scheme][0]
    assert select_under(p, q, scheme, policy, d, w, lambda x: 6) == TIED_ORDER[scheme][1]


def example1_problem():
    # two independent unsatisfiable constraints: x1 > x2 and x5 > x6
    return Problem(
        name="example1",
        variables=("x1", "x2", "x5", "x6"),
        domains={"x1": (0, 1), "x2": (2, 3), "x5": (0, 1), "x6": (2, 3)},
        constraints=(pred("c12", ("x1", "x2"), "gt"), pred("c56", ("x5", "x6"), "gt")),
    )


def test_first_revised_constraint_takes_the_blame():
    p = example1_problem()
    for order, blamed, spared in (
        ([("c12", "x1"), ("c12", "x2"), ("c56", "x5"), ("c56", "x6")], "c12", "c56"),
        ([("c56", "x6"), ("c56", "x5"), ("c12", "x2"), ("c12", "x1")], "c56", "c12"),
    ):
        state = HeuristicState(p, VOHeuristic(), scheme="arc")
        ws = state.weights
        q = RevisionQueue()
        for elem in order:
            q.add(elem)
        out = propagate(state, q)
        assert not out.consistent
        assert out.dwo_constraint == blamed
        assert ws.get(blamed) == 2
        assert ws.get(spared) == 1


def test_update_weights_false_freezes_store():
    p = example1_problem()
    state = HeuristicState(p, VOHeuristic(), scheme="arc")
    ws = state.weights
    out = propagate(state, initial_queue(state), update_weights=False)
    assert not out.consistent
    assert ws.snapshot() == {"c12": 1, "c56": 1}


def test_nary_constraint_propagation():
    # forbidden all-equal over 4 variables; z only has the shared value
    c = Constraint(
        id="c",
        scope=("w", "x", "y", "z"),
        kind="forbidden",
        tuples=frozenset({(5, 5, 5, 5)}),
    )
    p = Problem(
        name="nary",
        variables=("w", "x", "y", "z"),
        domains={"w": (5,), "x": (5,), "y": (5,), "z": (5, 6)},
        constraints=(c,),
    )
    for scheme, policy in ALL_COMBOS:
        state, out = run_to_fixpoint(p, scheme, policy)
        assert out.consistent, (scheme, policy)
        assert state.d.current("z") == [6], (scheme, policy)


@pytest.mark.parametrize("scheme,policy", ALL_COMBOS)
def test_fixpoint_matches_reference(scheme, policy):
    for seed in range(30):
        n, d_size = 4 + seed % 9, 2 + seed % 6
        e = min(n * (n - 1) // 2, n + seed % 5)
        p = gen_model_d(n=n, d=d_size, e=e, t=0.45, seed=seed)
        want = ac_fixpoint(p)
        state, out = run_to_fixpoint(p, scheme, policy)
        if want is None:
            assert not out.consistent, seed
        else:
            assert out.consistent, seed
            got = {x: set(state.d.current(x)) for x in p.variables}
            assert got == {k: set(v) for k, v in want.items()}, seed


@pytest.mark.parametrize("scheme, policy", ALL_COMBOS)
def test_passed_deadline_stops_before_the_first_revision(scheme, policy):
    p = gen_model_d(n=8, d=4, e=14, t=0.3, seed=1)
    state = unit_state(p, scheme=scheme, policy=policy, deadline=time.monotonic() - 1.0)
    with pytest.raises(TimeoutError):
        propagate(state, initial_queue(state))
    s = state.stats
    assert (s.checks, s.revisions, s.dwos) == (0, 0, 0)


@pytest.mark.parametrize("scheme", ["arc", "variable", "constraint"])
def test_deadline_checked_once_per_selection(scheme, monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(
        propagation, "time", types.SimpleNamespace(monotonic=lambda: next(ticks))
    )
    p = gen_model_d(n=8, d=4, e=14, t=0.3, seed=1)
    state = unit_state(p, scheme=scheme, policy=POLICIES_BY_SCHEME[scheme][0], deadline=3)
    with pytest.raises(TimeoutError):
        propagate(state, initial_queue(state))
    assert state.stats.revisions == 3
