import math
import os
import random
import subprocess
import sys
import time
import types
from dataclasses import fields
from itertools import product

import pytest

from macsolver import propagation, search
from macsolver.heuristics import (
    BASES,
    CONFLICT_BASES,
    TIEBREAKS,
    HeuristicState,
    ImpactStore,
    ProbeConfig,
    VOHeuristic,
    WeightStore,
    heuristic_name,
    init_impacts,
    node_impact_tiebreak,
    observe_impact,
    parse_heuristic,
    partition_parts,
    rsc_tiebreak,
    score_variable,
    select_variable,
    space_product,
    variable_impact,
    weight_policy_for,
)
from macsolver.instances import gen_chessboard, gen_langford, gen_model_d, gen_queens
from macsolver.model import Constraint, Problem
from macsolver.search import random_probe


def counters(s):
    return (s.nodes, s.checks, s.revisions, s.dwos)


def pred(cid, scope, name, k=None):
    return Constraint(id=cid, scope=scope, kind="predicate", pred=name, k=k)


def star_problem():
    # x touches x2 and x3; |D| = 2, 3, 4
    return Problem(
        name="star",
        variables=("x", "x2", "x3"),
        domains={"x": (0, 1), "x2": (0, 1, 2), "x3": (0, 1, 2, 3)},
        constraints=(pred("c1", ("x", "x2"), "ne"), pred("c2", ("x", "x3"), "ne")),
    )


def fresh_state(problem, heuristic="dom/wdeg", deadline=math.inf):
    return HeuristicState(problem, parse_heuristic(heuristic), deadline=deadline)


def test_heuristic_validation():
    with pytest.raises(ValueError):
        VOHeuristic(base="nosuch")
    with pytest.raises(ValueError):
        VOHeuristic(tiebreak="nosuch")
    with pytest.raises(ValueError):
        VOHeuristic(base="dom", probing=ProbeConfig())  # probing needs conflict base


def test_parse_heuristic():
    h = parse_heuristic("dom")
    assert (h.base, h.tiebreak, h.probing) == ("dom", "lexico", None)
    assert parse_heuristic("dom+deg").base == "dom+deg"
    assert parse_heuristic("dom/ddeg").base == "dom/ddeg"
    h = parse_heuristic("dom/wdeg+rsc")
    assert (h.base, h.tiebreak) == ("dom/wdeg", "rsc")
    h = parse_heuristic("impact+nodeimpact")
    assert (h.base, h.tiebreak) == ("impact", "nodeimpact")
    h = parse_heuristic("dom/wdeg+probe")
    assert h.probing == ProbeConfig(failures=40, runs=50)
    h = parse_heuristic("fully+probe+rsc")
    assert (h.base, h.tiebreak, h.probing) == ("fully", "rsc", ProbeConfig())
    with pytest.raises(ValueError):
        parse_heuristic("nosuch")
    with pytest.raises(ValueError):
        parse_heuristic("dom+nosuch")


@pytest.mark.parametrize(
    "name", ["dom+rsc+nodeimpact", "impact+nodeimpact+rsc", "dom+rsc+rsc", "dom/wdeg+probe+probe"]
)
def test_parse_heuristic_rejects_a_repeated_suffix_or_second_tiebreak(name):
    with pytest.raises(ValueError, match="repeated suffix or second tie-break"):
        parse_heuristic(name)


@pytest.mark.parametrize("name", ["dom+", "dom++rsc", "dom/wdeg+rsc+"])
def test_parse_heuristic_rejects_an_empty_suffix(name):
    with pytest.raises(ValueError, match="unknown heuristic suffix ''"):
        parse_heuristic(name)


def test_parse_heuristic_suffix_order_is_free():
    assert parse_heuristic("dom/wdeg+rsc+probe") == parse_heuristic("dom/wdeg+probe+rsc")


def test_heuristic_name_roundtrip():
    # every valid heuristic has a name, so a CSV's var_heur column identifies it
    assert {f.name for f in fields(VOHeuristic)} == {"base", "tiebreak", "probing"}
    valid = 0
    for base, tiebreak, probing in product(BASES, TIEBREAKS, (None, ProbeConfig())):
        try:
            h = VOHeuristic(base=base, tiebreak=tiebreak, probing=probing)
        except ValueError:
            continue
        valid += 1
        assert parse_heuristic(heuristic_name(h)) == h
    assert valid == (len(BASES) + len(CONFLICT_BASES)) * len(TIEBREAKS)


def test_weight_policy_for():
    assert weight_policy_for("dom") == "wdeg"
    assert weight_policy_for("wdeg") == "wdeg"
    assert weight_policy_for("dom/wdeg") == "wdeg"
    assert weight_policy_for("alldel") == "alldel"
    assert weight_policy_for("fully") == "fully"


def test_weight_store_basics():
    p = star_problem()
    ws = WeightStore(p, "wdeg")
    assert ws.get("c1") == ws.get("c2") == 1
    with pytest.raises(ValueError):
        WeightStore(p, "nosuch")


def test_weight_updates_wdeg_policy():
    p = star_problem()
    ws = WeightStore(p, "wdeg")
    ws.on_deletion("c1", 3)  # fruitful revisions alone do nothing
    assert ws.snapshot() == {"c1": 1, "c2": 1}
    ws.on_dwo("c1", frozenset())
    assert ws.snapshot() == {"c1": 2, "c2": 1}
    ws.on_dwo("c1", frozenset({"c1", "c2"}))  # fruitful set ignored
    assert ws.snapshot() == {"c1": 3, "c2": 1}


def test_weight_updates_alldel_policy():
    p = star_problem()
    ws = WeightStore(p, "alldel")
    ws.on_deletion("c1", 2)
    ws.on_deletion("c2", 1)
    assert ws.snapshot() == {"c1": 3, "c2": 2}
    ws.on_dwo("c1", frozenset({"c1", "c2"}))  # wipeout adds nothing extra
    assert ws.snapshot() == {"c1": 3, "c2": 2}


def test_weight_updates_fully_policy():
    p = star_problem()
    ws = WeightStore(p, "fully")
    ws.on_deletion("c1", 5)  # deletions alone do nothing
    assert ws.snapshot() == {"c1": 1, "c2": 1}
    ws.on_dwo("c1", frozenset({"c1", "c2"}))
    assert ws.snapshot() == {"c1": 2, "c2": 2}
    # the failing constraint is counted once even when absent from the set
    ws.on_dwo("c2", frozenset({"c1"}))
    assert ws.snapshot() == {"c1": 3, "c2": 3}


def test_qualification_and_wdeg():
    p = star_problem()
    hstate = fresh_state(p)
    hstate.weights.weight.update({"c1": 2, "c2": 3})
    assert hstate.wdeg("x") == 5
    assert hstate.ddeg("x") == 2
    hstate.assigned["x3"] = 0  # c2 can no longer propagate for x
    assert hstate.wdeg("x") == 2
    assert hstate.ddeg("x") == 1
    hstate.assigned["x2"] = 0
    assert hstate.wdeg("x") == 0


@pytest.mark.parametrize("policy", ["wdeg", "alldel", "fully"])
@pytest.mark.parametrize("make", [
    lambda: gen_model_d(n=12, d=4, e=30, t=0.4, seed=2),
    lambda: gen_chessboard(3, 4, 2),
], ids=["modelD", "chessboard"])
def test_wdegs_equals_wdeg_of_every_variable(policy, make):
    p = make()
    rng = random.Random(f"{policy}-{p.name}")
    hstate = fresh_state(p, policy)
    ids = [c.id for c in p.constraints]
    for _ in range(20):
        for _ in range(3):
            hstate.weights.on_deletion(rng.choice(ids), rng.randint(1, 3))
            hstate.weights.on_dwo(rng.choice(ids), frozenset(rng.sample(ids, 3)))
        drawn = rng.sample(p.variables, rng.randint(0, len(p.variables)))
        hstate.assigned = dict.fromkeys(drawn, 0)
        got = hstate.wdegs()
        assert got == {x: hstate.wdeg(x) for x in p.variables}
    assert len(set(hstate.weights.snapshot().values())) > 1


def test_score_variable_bases():
    p = star_problem()

    def score(base):
        # one state per base, all carrying the same weights
        hstate = fresh_state(p, base)
        hstate.weights.weight.update({"c1": 2, "c2": 3})
        return score_variable(hstate, "x")

    assert score("dom") == 2
    assert score("deg") == -2
    assert score("ddeg") == -2
    assert score("dom+deg") == (2, -2)
    assert score("dom/ddeg") == 1.0
    assert score("wdeg") == -5
    assert score("dom/wdeg") == 2 / 5
    # alldel / fully share the ratio formula, only the update policy differs
    assert score("alldel") == 2 / 5
    assert score("fully") == 2 / 5


def test_score_variable_ratio_fallback():
    p = star_problem()

    def score(base):
        hstate = fresh_state(p, base)
        hstate.assigned.update(x2=0, x3=0)  # nothing qualifies for x any more
        return score_variable(hstate, "x")

    assert score("wdeg") == 2.0
    assert score("dom/wdeg") == 2.0
    assert score("dom/ddeg") == 2.0


def test_state_builds_the_stores_of_its_heuristic():
    p = star_problem()
    for base in BASES:
        hstate = fresh_state(p, base)
        assert hstate.heuristic == VOHeuristic(base=base)
        assert hstate.weights.policy == weight_policy_for(base)
        assert hstate.weights.snapshot() == {"c1": 1, "c2": 1}
        assert (hstate.impacts is not None) == (base == "impact")


def test_state_rejects_a_heuristic_given_as_text():
    # it would fail deep inside on the name's missing base; the message
    # names the parser, as SearchConfig's does
    with pytest.raises(TypeError, match="heuristic must be a VOHeuristic.*parse_heuristic"):
        HeuristicState(gen_queens(4), "dom/wdeg")


def test_mdvo_score():
    p = star_problem()
    hstate = fresh_state(p, "mdvo")
    # alpha = |D|/|neighbors|: alpha(x)=1, alpha(x2)=3, alpha(x3)=4
    assert score_variable(hstate, "x") == pytest.approx(9 / 4)
    # isolated variable: falls back to |D|
    q = Problem(
        name="iso",
        variables=("a", "b", "s"),
        domains={"a": (0, 1, 2), "b": (0, 1, 2), "s": (0, 1)},
        constraints=(pred("c", ("a", "b"), "ne"),),
    )
    assert score_variable(fresh_state(q, "mdvo"), "s") == 2.0


MDVO_RUN = """
from macsolver.heuristics import VOHeuristic
from macsolver.instances import gen_queens
from macsolver.search import SearchConfig, solve
cfg = SearchConfig(heuristic=VOHeuristic(base="mdvo"), scheme="arc", policy="fifo")
s = solve(gen_queens(6), cfg).stats
print(s.nodes, s.checks, s.revisions, s.dwos)
"""


def test_mdvo_counters_do_not_depend_on_hash_seed():
    # neighborhoods are sets of strings, iterated in hash-seed order
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for hash_seed in ("1", "3", "4"):  # three different counters before fsum
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", MDVO_RUN], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_select_variable_lexico_tie():
    # t1 and t2 tie on |D|; declaration order wins
    p = Problem(
        name="tie",
        variables=("t1", "t2", "y"),
        domains={"t1": (0, 1), "t2": (0, 1), "y": (0, 1, 2)},
        constraints=(pred("c1", ("t1", "y"), "ne"), pred("c2", ("t2", "y"), "ne")),
    )
    hstate = fresh_state(p, "dom")
    assert select_variable(hstate) == "t1"
    hstate.assigned["t1"] = 0
    assert select_variable(hstate) == "t2"
    hstate.assigned.update(t2=0, y=0)
    with pytest.raises(ValueError):
        select_variable(hstate)


def tiebreak_problem():
    # t1 and t2 tie on |D|=2; probing t2 collapses y (eq), probing t1 barely
    # prunes it (ne), so lookahead tie-breaks should prefer t2
    return Problem(
        name="probe",
        variables=("t1", "t2", "y"),
        domains={"t1": (0, 1), "t2": (0, 1), "y": (0, 1, 2)},
        constraints=(pred("c1", ("t1", "y"), "ne"), pred("c2", ("t2", "y"), "eq")),
    )


def test_rsc_tiebreak_prefers_larger_reduction():
    p = tiebreak_problem()
    hstate = fresh_state(p, "dom+rsc")
    s = hstate.stats
    assert select_variable(hstate) == "t2"
    assert s.checks > 0  # probes are counted against the run


def test_node_impact_tiebreak_prefers_larger_impact():
    p = tiebreak_problem()
    hstate = fresh_state(p, "dom+nodeimpact")
    # solve gives a dom state no impact store; a hand-made one records the probes
    store = hstate.impacts = ImpactStore()
    assert select_variable(hstate) == "t2"
    # probes were recorded as observations
    assert store.known("t1", 0) and store.known("t2", 1)


def test_tiebreak_probes_prune_wiped_values():
    # The probes enter at a propagated fixpoint (the search driver guarantees
    # this); every value here has local support, yet t1=1 wipes out globally:
    # it squeezes y and z onto the single value 2, which ne(y, z) rejects.
    p = Problem(
        name="prune",
        variables=("t1", "t2", "y", "z"),
        domains={"t1": (0, 1), "t2": (0, 1), "y": (1, 2), "z": (1, 2)},
        constraints=(
            pred("c1", ("t1", "y"), "ne"),
            pred("c2", ("t1", "z"), "ne"),
            pred("c3", ("y", "z"), "ne"),
        ),
    )
    hstate = fresh_state(p, "dom+rsc")
    d = hstate.d
    picked = select_variable(hstate)
    assert picked == "t1"  # largest total reduction (its bad value wiped a lot)
    assert not d.contains("t1", 1)  # the failed probe value is gone for real
    assert d.contains("t1", 0)


def test_tiebreak_reports_wipeout_with_none():
    # pairwise ne over three two-value domains: arc consistent but
    # unsatisfiable, so every probed value dies and the node must fail
    p = Problem(
        name="deadend",
        variables=("t1", "t2", "t3"),
        domains={"t1": (0, 1), "t2": (0, 1), "t3": (0, 1)},
        constraints=(
            pred("c1", ("t1", "t2"), "ne"),
            pred("c2", ("t1", "t3"), "ne"),
            pred("c3", ("t2", "t3"), "ne"),
        ),
    )
    for tiebreak in ("rsc", "nodeimpact"):
        hstate = fresh_state(p, "dom+" + tiebreak)
        assert select_variable(hstate) is None
        assert hstate.d.size("t1") == 0


def test_single_candidate_skips_probing():
    p = star_problem()
    hstate = fresh_state(p, "dom+rsc")
    s = hstate.stats
    # x is the unique argmin; no probe should run
    assert select_variable(hstate) == "x"
    assert s.checks == 0


def test_impact_store():
    store = ImpactStore()
    assert not store.known("x", 0)
    with pytest.raises(ValueError):
        store.averaged("x", 0)
    store.observe("x", 0, 0.5)
    store.observe("x", 0, 1.0)
    assert store.averaged("x", 0) == pytest.approx(0.75)


def test_observe_impact_formula():
    store = ImpactStore()
    assert observe_impact(store, "x", 3, 10, 5) == pytest.approx(0.5)
    assert observe_impact(store, "x", 3, 8, 8) == pytest.approx(0.0)
    assert observe_impact(store, "x", 3, 8, 0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        observe_impact(store, "x", 3, 0, 0)


def test_variable_impact_sums_residuals():
    p = star_problem()
    hstate = fresh_state(p, "impact")
    hstate.impacts.observe("x", 0, 1.0)
    hstate.impacts.observe("x", 1, 0.25)
    assert variable_impact(hstate, "x") == pytest.approx(0.75)


def test_space_product():
    state = fresh_state(star_problem())
    assert space_product(state) == 2 * 3 * 4
    assert space_product(state, exclude="x3") == 6
    state.assigned.update(x=0)
    assert space_product(state) == 12
    state.assigned.update(x2=0, x3=0)
    assert space_product(state) == 1


def test_partition_parts_sizes():
    assert [len(p) for p in partition_parts(list(range(8)))] == [2, 2, 2, 2]
    assert [len(p) for p in partition_parts(list(range(3)))] == [1, 1, 1]
    assert [len(p) for p in partition_parts(list(range(10)))] == [3, 3, 2, 2]
    assert [len(p) for p in partition_parts(list(range(5)))] == [2, 1, 1, 1]
    assert [len(p) for p in partition_parts(list(range(2)))] == [1, 1]
    assert partition_parts([]) == []
    # parts are contiguous and cover the input in order
    vals = list(range(10))
    assert [v for part in partition_parts(vals) for v in part] == vals


def test_init_impacts_consistent():
    p = gen_model_d(n=6, d=5, e=9, t=0.3, seed=4)
    hstate = fresh_state(p, "impact")
    store = hstate.impacts
    d = hstate.d
    ok = init_impacts(hstate)
    assert ok
    for x in p.variables:
        for a in d.current(x):
            assert store.known(x, a)
            assert 0.0 <= store.averaged(x, a) <= 1.0
        vi = variable_impact(hstate, x)
        assert 0.0 <= vi <= d.size(x)
    # domains were restored after probing
    assert all(d.size(x) == len(p.domains[x]) for x in p.variables)


def test_init_impacts_detects_inconsistency():
    # x = y and x != y: every sub-domain of x wipes out
    p = Problem(
        name="impossible",
        variables=("x", "y"),
        domains={"x": (0, 1), "y": (0, 1)},
        constraints=(pred("c1", ("x", "y"), "eq"), pred("c2", ("x", "y"), "ne")),
    )
    hstate = fresh_state(p, "impact")
    store = hstate.impacts
    assert init_impacts(hstate) is False


def test_init_impacts_never_touches_weights():
    p = gen_model_d(n=6, d=4, e=9, t=0.5, seed=11)
    hstate = fresh_state(p, "impact")
    before = hstate.weights.snapshot()
    init_impacts(hstate)
    assert hstate.weights.snapshot() == before


def test_weights_never_decrease():
    for policy in ("wdeg", "alldel", "fully"):
        p = gen_model_d(n=8, d=4, e=14, t=0.55, seed=13)
        hstate = fresh_state(p, policy)
        ws = hstate.weights
        prev = ws.snapshot()
        from macsolver.propagation import initial_queue, propagate, update_queue

        d = hstate.d
        propagate(hstate, initial_queue(hstate))
        for x in p.variables:
            if d.size(x) > 1:
                mark = d.mark()
                removed = d.assign(x, d.current(x)[0])
                propagate(hstate, update_queue(hstate, x, removed))
                d.restore(mark)
                cur = ws.snapshot()
                assert all(cur[c] >= prev[c] for c in cur)
                prev = cur


def probe_setup(p, failures=40, runs=50, deadline=math.inf):
    h = VOHeuristic(probing=ProbeConfig(failures=failures, runs=runs))
    hstate = HeuristicState(p, h, deadline=deadline)
    return hstate.d, hstate.weights, hstate, hstate.stats


def test_random_probe_deterministic():
    p = gen_queens(6)
    results = []
    for _ in range(2):
        d, ws, hstate, s = probe_setup(p, failures=4, runs=6)
        definitive = random_probe(hstate, 3)
        results.append((ws.snapshot(), definitive, counters(s)))
    assert results[0] == results[1]
    assert results[0][2][0] > 0  # probe attempts count as nodes


def test_random_probe_pinned_counters():
    # exact counters: the benchmark never runs random probing
    p = gen_queens(6)
    d, ws, hstate, s = probe_setup(p, failures=4, runs=6)
    definitive = random_probe(hstate, 3)
    assert definitive == ("sat", {"q0": 3, "q1": 0, "q2": 4, "q3": 1, "q4": 5, "q5": 2})
    assert {c: w for c, w in ws.snapshot().items() if w > 1} == {"c3": 2}
    assert counters(s) == (7, 461, 18, 1)


def test_random_probe_pinned_cutoffs():
    # every run of an unsat instance ends at the failure cutoff
    p = gen_langford(2, 5)
    d, ws, hstate, s = probe_setup(p, failures=4, runs=6)
    definitive = random_probe(hstate, 3)
    assert definitive is None
    assert {c: w for c, w in ws.snapshot().items() if w > 1} == {
        "c2": 2, "c3": 2, "c6": 3, "c7": 2, "c12": 2, "c16": 2, "c18": 2,
        "c27": 3, "c33": 2, "c36": 2, "c40": 3, "c43": 2, "c45": 3, "c46": 3,
        "c47": 3, "c48": 4,
    }
    assert counters(s) == (31, 12784, 287, 24)
    assert all(d.size(x) == len(p.domains[x]) for x in p.variables)
    assert hstate.assigned == {}


def test_random_probe_restores_state():
    p = gen_queens(5)
    d, ws, hstate, s = probe_setup(p, failures=3, runs=4)
    random_probe(hstate, 1)
    assert all(d.size(x) == len(p.domains[x]) for x in p.variables)
    assert hstate.assigned == {}


def test_random_probe_definitive_unsat():
    # arc consistent but unsatisfiable; the tiny tree is exhausted well below
    # the failure cutoff, which settles the instance
    p = Problem(
        name="tiny-unsat",
        variables=("x", "y", "z"),
        domains={"x": (0, 1), "y": (0, 1), "z": (0, 1)},
        constraints=(
            pred("c1", ("x", "y"), "ne"),
            pred("c2", ("x", "z"), "ne"),
            pred("c3", ("y", "z"), "ne"),
        ),
    )
    d, ws, hstate, s = probe_setup(p)
    definitive = random_probe(hstate, 0)
    assert definitive == ("unsat", None)


def test_random_probe_definitive_sat():
    # no constraints beyond a loose ne: probes walk straight to a solution
    p = Problem(
        name="tiny-sat",
        variables=("x", "y"),
        domains={"x": (0, 1), "y": (0, 1)},
        constraints=(pred("c", ("x", "y"), "ne"),),
    )
    d, ws, hstate, s = probe_setup(p)
    definitive = random_probe(hstate, 0)
    assert definitive is not None
    kind, assignment = definitive
    assert kind == "sat"
    assert assignment["x"] != assignment["y"]


def test_random_probe_accumulates_weights():
    p = gen_model_d(n=8, d=3, e=16, t=0.6, seed=21)
    d, ws, hstate, s = probe_setup(p, failures=5, runs=10)
    definitive = random_probe(hstate, 5)
    snap = ws.snapshot()
    assert all(w >= 1 for w in snap.values())
    if definitive is None or definitive[0] == "unsat":
        assert sum(snap.values()) > len(snap)  # some conflict was recorded


def test_random_probe_reads_no_clock(monkeypatch):
    # the search loop's per-node check is the only deadline check in search
    reads = []

    def counting_clock():
        reads.append(None)
        return time.monotonic()

    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=counting_clock))
    p = gen_langford(2, 5)
    d, ws, hstate, s = probe_setup(p, failures=4, runs=6)
    assert random_probe(hstate, 3) is None
    assert counters(s) == (31, 12784, 287, 24)
    assert len(reads) == s.nodes
    # a passed deadline still raises before the first probe node
    d, ws, hstate, s = probe_setup(
        p, failures=4, runs=6, deadline=time.monotonic() - 1.0
    )
    with pytest.raises(TimeoutError):
        random_probe(hstate, 3)
    assert counters(s) == (0, 0, 0, 0)


def test_random_probe_needs_a_probe_heuristic():
    hstate = HeuristicState(gen_queens(4), VOHeuristic())
    with pytest.raises(ValueError, match=r"\+probe"):
        random_probe(hstate, 0)
    assert counters(hstate.stats) == (0, 0, 0, 0)


def test_random_probe_deadline():
    p = gen_queens(8)
    d, ws, hstate, s = probe_setup(p, deadline=time.monotonic() - 1.0)
    with pytest.raises(TimeoutError):
        random_probe(hstate, 0)


PROBES = {
    "init_impacts": lambda p, hs: init_impacts(hs),
    "rsc_tiebreak": lambda p, hs: rsc_tiebreak(hs, list(p.variables)),
    "node_impact_tiebreak": lambda p, hs: node_impact_tiebreak(hs, list(p.variables)),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probes_honour_a_passed_deadline(name):
    p = gen_model_d(n=6, d=5, e=9, t=0.3, seed=4)
    hstate = fresh_state(p, "impact", deadline=time.monotonic() - 1.0)
    s = hstate.stats
    with pytest.raises(TimeoutError):
        PROBES[name](p, hstate)
    assert counters(s) == (0, 0, 0, 0)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probes_restore_state_on_a_timeout_inside_propagation(name, monkeypatch):
    # the deadline passes at the sixth queue selection, in the middle of a
    # probe's propagation
    deadline = time.monotonic() + 60.0
    selections = iter(range(1000))
    clock = lambda: deadline if next(selections) >= 5 else 0.0  # noqa: E731
    monkeypatch.setattr(propagation, "time", types.SimpleNamespace(monotonic=clock))
    p = gen_model_d(n=6, d=5, e=9, t=0.3, seed=4)
    hstate = fresh_state(p, "impact", deadline=deadline)
    d, s = hstate.d, hstate.stats
    with pytest.raises(TimeoutError):
        PROBES[name](p, hstate)
    assert s.revisions == 5
    assert not hstate.assigned
    assert all(d.size(x) == len(p.domains[x]) for x in p.variables)
