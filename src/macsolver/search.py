"""Depth-first maintained-(G)AC search with d-way branching and restarts.

A node assigns one value and re-establishes consistency; on failure the value
is removed, consistency is re-established, and the next value is tried.
Restart policies cap the failed value attempts per run; conflict weights and
impact averages survive restarts. Random probing, which warms the conflict
weights up before search, runs the same loop.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from . import model
from .model import SearchStats
from .heuristics import (
    HeuristicState,
    VOHeuristic,
    WeightStore,
    init_impacts,
    observe_impact,
    select_variable,
    space_product,
)
from .propagation import initial_queue, propagate, update_queue, validate_policy


@dataclass(frozen=True)
class GeometricRestarts:
    base: int = 10
    factor: float = 1.5

    def __post_init__(self) -> None:
        if self.base < 1 or not 1.0 < self.factor < math.inf:
            raise ValueError("geometric restarts need base >= 1 and a finite factor > 1")


@dataclass(frozen=True)
class ArithmeticRestarts:
    base: int = 10
    step: int = 10

    def __post_init__(self) -> None:
        if self.base < 1 or self.step < 1:
            raise ValueError("arithmetic restarts need base >= 1 and step >= 1")


def next_cutoff(policy, run_index: int) -> int | None:
    """Failed-attempt budget for run number run_index (None = unlimited)."""
    if policy is None:
        return None
    if isinstance(policy, GeometricRestarts):
        try:  # past the float range the cutoff is unlimited
            return math.floor(policy.base * policy.factor**run_index)
        except OverflowError:
            return None
    if isinstance(policy, ArithmeticRestarts):
        return policy.base + policy.step * run_index
    raise TypeError(f"unknown restart policy {policy!r}")


def parse_restarts(text: str):
    """Parse "geo:BASE:FACTOR", "arith:BASE:STEP", or "none"."""
    if text == "none":
        return None
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("geo", "arith"):
        raise ValueError(f"bad restart spec {text!r}")

    def value(field: str, raw: str, convert):
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"bad value {raw!r} for {field} in restart spec {text!r}") from None

    base = value("BASE", parts[1], int)
    if parts[0] == "geo":
        return GeometricRestarts(base=base, factor=value("FACTOR", parts[2], float))
    return ArithmeticRestarts(base=base, step=value("STEP", parts[2], int))


def restarts_name(policy) -> str:
    if policy is None:
        return "none"
    if isinstance(policy, GeometricRestarts):
        factor = policy.factor
        ftext = str(int(factor)) if float(factor).is_integer() else str(factor)
        return f"geo:{policy.base}:{ftext}"
    return f"arith:{policy.base}:{policy.step}"


VALUE_ORDERS = ("lex", "rand")
MODES = ("first", "count", "decide")


@dataclass(frozen=True)
class SearchConfig:
    """Everything a solve needs besides the problem itself.

    mode is "first" (stop at one solution), "count" (count all; restarts are
    ignored since every run must exhaust the tree), or "decide". solve
    treats "decide" exactly as "first" and fills in the solution; only the
    CLI prints no solution line for it.
    """

    heuristic: VOHeuristic = field(default_factory=VOHeuristic)
    scheme: str = "variable"
    policy: str = "fifo"
    restarts: GeometricRestarts | ArithmeticRestarts | None = None
    value_order: str = "lex"
    seed: int = 0
    mode: str = "first"
    timeout: float = 3600.0

    def __post_init__(self) -> None:
        if not isinstance(self.heuristic, VOHeuristic):
            raise TypeError(
                f"heuristic must be a VOHeuristic, not {self.heuristic!r}; use parse_heuristic"
            )
        if not isinstance(self.restarts, (GeometricRestarts, ArithmeticRestarts, type(None))):
            raise TypeError(
                "restarts must be None, GeometricRestarts or ArithmeticRestarts, "
                f"not {self.restarts!r}; use parse_restarts"
            )
        validate_policy(self.scheme, self.policy)
        if self.value_order not in VALUE_ORDERS:
            raise ValueError(f"unknown value order {self.value_order!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.timeout > 0:  # also rejects NaN; inf means no limit
            raise ValueError("timeout must be positive")


@dataclass
class SearchOutcome:
    """Solve result: sat/unsat/timeout, optional solution, count, counters."""

    result: str
    solution: dict[str, int] | None
    count: int
    stats: SearchStats
    weights: WeightStore


def order_values(x: str, d, mode: str, seed: int, index: int = 0) -> list[int]:
    """Values of x in the order search will try them.

    "lex" is ascending; "rand" is a seeded shuffle that depends only on the
    seed and the variable's declaration index, so reruns reproduce it.
    """
    values = sorted(d.current(x))
    if mode == "rand":
        rng = random.Random(seed * 1_000_003 + index)
        rng.shuffle(values)
    return values


LEAF, EXHAUSTED, CUTOFF = "leaf", "exhausted", "cutoff"


def dway_search(state: HeuristicState, choose, values, leaf, failed) -> str:
    """Depth-first d-way MAC search from the current state of state.d, without recursion.

    A node assigns the values of choose()'s variable in the order values(x)
    gives, propagating after each; choose() returning None fails the node.
    Once every variable is assigned, leaf(state.assigned) says whether to
    stop. After each value whose subtree failed, failed() says whether to cut
    the run off; otherwise the value is refuted (removed and propagated) and
    the next one is tried. With an impact store in state.impacts every
    assignment records its observed impact.

    Returns LEAF, EXHAUSTED or CUTOFF, and leaves state.d and state.assigned
    as it found them. Raises TimeoutError when a node or a propagation's queue
    selection would start past state.deadline.
    """
    d, stats, assigned = state.d, state.stats, state.assigned
    problem, impacts = state.problem, state.impacts
    root = d.mark()
    stack: list[list] = []  # per open node: [x, untried values, mark]
    descend = True  # the root, or the last assignment, propagated consistently
    try:
        while True:
            if descend:
                x = None
                if len(assigned) < len(problem.variables):
                    x = choose()
                elif leaf(assigned):
                    return LEAF
                if x is not None:
                    stack.append([x, iter(values(x)), None])
                descend = x is not None
            if not descend:
                # the subtree under the top node's value failed
                if not stack:
                    return EXHAUSTED
                x, _, node = stack[-1]
                a = assigned.pop(x)
                d.restore(node)
                if failed():
                    return CUTOFF
                d.remove(x, a)
                if d.size(x) == 0 or not propagate(state, update_queue(state, x, 1)).consistent:
                    stack.pop()
                    continue
            frame = stack[-1]
            x = frame[0]
            # values(x) listed all of D(x) when the node opened, D(x) is not
            # empty here, and each tried value left it before this draw: so
            # a live value of x is still untried
            a = next(v for v in frame[1] if d.contains(x, v))
            if time.monotonic() >= state.deadline:
                raise TimeoutError
            stats.nodes += 1
            frame[2] = d.mark()
            removed = d.assign(x, a)
            assigned[x] = a
            if impacts is not None:
                p_before = space_product(state)
            descend = propagate(state, update_queue(state, x, removed)).consistent
            if impacts is not None:
                p_after = space_product(state) if descend else 0
                observe_impact(impacts, x, a, p_before, p_after)
    finally:
        for frame in stack:
            assigned.pop(frame[0], None)
        d.restore(root)


def random_probe(state: HeuristicState, seed: int) -> tuple[str, dict | None] | None:
    """Run short randomized probes to warm up the conflict weights, state.weights.

    Each probe is a run of dway_search with variable selection and value
    order drawn uniformly by one RNG seeded with seed (solve passes the run's
    SearchConfig.seed), cut off once cfg.failures wipeouts have been seen,
    cfg being state.heuristic.probing.
    Weights accumulate across probes under the active update policy.
    Returns a definitive ("sat", assignment) or ("unsat", None) when a probe
    happens to settle the instance, else None. The search loop checks the
    deadline before each node, so a passed one raises TimeoutError. A state
    whose heuristic has no +probe raises ValueError.
    """
    cfg = state.heuristic.probing
    if cfg is None:
        raise ValueError(f"random_probe needs a +probe heuristic, not {state.heuristic!r}")
    rng = random.Random(seed)
    stats, assigned = state.stats, state.assigned
    solution: dict[str, int] = {}

    def choose() -> str:
        return rng.choice([x for x in state.problem.variables if x not in assigned])

    def values(x: str) -> list[int]:
        order = sorted(state.d.current(x))
        rng.shuffle(order)
        return order

    def leaf(assignment: dict[str, int]) -> bool:
        solution.update(assignment)
        return True

    def failed() -> bool:
        return stats.dwos - dwos_at_start >= cfg.failures

    for _ in range(cfg.runs):
        dwos_at_start = stats.dwos
        # records no impacts: the state builds a store only for the impact
        # base, which takes no +probe
        result = dway_search(state, choose, values, leaf, failed)
        if result == LEAF:
            return "sat", solution
        # a wipeout refuting the root's last value gets no failed() call
        if result != CUTOFF and not failed():
            return "unsat", None
    return None


def _verify(problem: model.Problem, assignment: dict[str, int], stats) -> bool:
    return all(
        model.check_tuple(c, tuple(assignment[v] for v in c.scope), stats)
        for c in problem.constraints
    )


def solve(problem: model.Problem, cfg: SearchConfig) -> SearchOutcome:
    """Solve one instance under one configuration.

    Preprocesses to full consistency, then searches depth-first with d-way
    branching, restarting per cfg.restarts. Satisfiable answers are verified
    against every constraint before they are reported. On a timeout the
    outcome keeps the solutions counted so far.
    """
    t0 = time.monotonic()
    state = HeuristicState(problem, cfg.heuristic, cfg.scheme, cfg.policy, t0 + cfg.timeout)
    d, stats = state.d, state.stats
    solution: dict[str, int] | None = None
    count = 0

    def choose() -> str | None:
        # None when a tie-break probe emptied a candidate's domain
        return select_variable(state)

    def values(x: str) -> list[int]:
        return order_values(x, d, cfg.value_order, cfg.seed, problem.var_index[x])

    def leaf(assignment: dict[str, int]) -> bool:
        nonlocal solution, count
        if not _verify(problem, assignment, stats):
            raise RuntimeError("search produced an invalid solution")
        if cfg.mode == "count":
            count += 1
            return False
        solution = dict(assignment)
        return True

    def run() -> str:
        nonlocal solution
        if not propagate(state, initial_queue(state)).consistent:
            return "unsat"
        if state.impacts is not None and not init_impacts(state):
            return "unsat"
        if cfg.heuristic.probing is not None:
            definitive = random_probe(state, cfg.seed)
            if definitive is not None:
                verdict, probe_solution = definitive
                if verdict == "unsat":
                    return "unsat"
                if not _verify(problem, probe_solution, stats):
                    raise RuntimeError("probe produced an invalid solution")
                if cfg.mode != "count":  # count mode still needs the full tree
                    solution = probe_solution
                    return "sat"

        def failed() -> bool:
            nonlocal left
            left -= 1
            return left < 0

        # count mode ignores restarts: every run must exhaust the tree
        restarts = cfg.restarts if cfg.mode != "count" else None
        while True:  # stats.restarts numbers the runs
            cutoff = next_cutoff(restarts, stats.restarts)
            left = math.inf if cutoff is None else cutoff
            result = dway_search(state, choose, values, leaf, failed)
            if result != CUTOFF:
                break
            stats.restarts += 1
        found = count > 0 if cfg.mode == "count" else result == LEAF
        return "sat" if found else "unsat"

    try:
        result = run()
    except TimeoutError:
        result = "timeout"
    stats.time_ms = (time.monotonic() - t0) * 1000.0
    return SearchOutcome(result, solution, count, stats, state.weights)
