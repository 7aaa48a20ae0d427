"""Variable ordering: syntactic scores, conflict-driven weights, impacts.

Scores are "smaller is preferred" throughout. Conflict-driven heuristics keep
a per-constraint weight store fed by propagation events; impact-based search
keeps running averages of observed search-space reductions. The lookahead
tie-breaks (restricted singleton probes, node impacts) live here too; random
probing runs the search loop, so it lives in search, which imports this
module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .model import DomainStore, Problem, SearchStats
from .propagation import dom_ratio, propagate, update_queue


def _wdeg_score(w: int, dom: int):
    return -w if w > 0 else float(dom)


def _wdeg_key(state):
    w, size = state.wdegs(), state.d.size
    return lambda x: _wdeg_score(w[x], size(x))


def _dom_over_wdeg(state):
    w, size = state.wdegs(), state.d.size
    return lambda x: dom_ratio(size(x), w[x])


def _impact_key(state):
    impacts, d = state.impacts, state.d
    if impacts is None:
        raise ValueError("impact heuristic used without an impact store")
    return lambda x: variable_impact(impacts, x, d)


# base -> score builder. A builder takes the state and returns the score of
# one unassigned variable of state.problem; smaller is preferred. The
# conflict-driven builders take every weighted degree in one pass, so a
# builder's key is valid while the weights and the assigned set stay put.
SCORE_BUILDERS = {
    "dom": lambda s: s.d.size,
    "deg": lambda s: lambda x: -len(s.problem.neighborhood[x]),
    "ddeg": lambda s: lambda x: -s.ddeg(x),
    "dom+deg": lambda s: lambda x: (s.d.size(x), -len(s.problem.neighborhood[x])),
    "dom/ddeg": lambda s: lambda x: dom_ratio(s.d.size(x), s.ddeg(x)),
    "mdvo": lambda s: lambda x: _mdvo_score(x, s.problem, s.d),
    "wdeg": _wdeg_key,
    "dom/wdeg": _dom_over_wdeg,
    "alldel": _dom_over_wdeg,
    "fully": _dom_over_wdeg,
    "impact": _impact_key,
}
BASES = tuple(SCORE_BUILDERS)
CONFLICT_BASES = ("wdeg", "dom/wdeg", "alldel", "fully")
TIEBREAKS = ("lexico", "rsc", "nodeimpact")
WEIGHT_POLICIES = ("wdeg", "alldel", "fully")
IMPACT_PARTS = 4  # init_impacts probes each domain in at most this many parts


@dataclass(frozen=True)
class ProbeConfig:
    """Random probing parameters: runs, per-run failure cutoff; seeded by SearchConfig.seed."""

    failures: int = 40
    runs: int = 50


@dataclass(frozen=True)
class VOHeuristic:
    """A variable ordering: base measure, tie-break, optional probing."""

    base: str = "dom/wdeg"
    tiebreak: str = "lexico"
    probing: ProbeConfig | None = None

    def __post_init__(self) -> None:
        if self.base not in BASES:
            raise ValueError(f"unknown heuristic base {self.base!r}")
        if self.tiebreak not in TIEBREAKS:
            raise ValueError(f"unknown tie-break {self.tiebreak!r}")
        if self.probing is not None and self.base not in CONFLICT_BASES:
            raise ValueError("random probing requires a conflict-driven base")


def weight_policy_for(base: str) -> str:
    if base == "alldel":
        return "alldel"
    if base == "fully":
        return "fully"
    return "wdeg"


def parse_heuristic(name: str) -> VOHeuristic:
    """Parse a heuristic name like "dom/wdeg+probe+rsc" or "dom+deg".

    Suffixes: +rsc and +nodeimpact pick the tie-break, +probe turns on random
    probing with its default parameters (seeded by the run's SearchConfig).
    Suffixes come in any order; a repeated suffix or a second tie-break is
    rejected.
    """
    rest = name
    base = None
    for candidate in sorted(BASES, key=len, reverse=True):
        if rest == candidate or rest.startswith(candidate + "+"):
            base = candidate
            rest = rest[len(candidate):]
            break
    if base is None:
        raise ValueError(f"unknown heuristic {name!r}")
    tiebreak = "lexico"
    probing = None
    tokens = rest.split("+")[1:]  # rest is "" or starts with "+"
    if len(set(tokens)) < len(tokens) or {"rsc", "nodeimpact"} <= set(tokens):
        raise ValueError(f"repeated suffix or second tie-break in {name!r}")
    for token in tokens:
        if token in ("rsc", "nodeimpact"):
            tiebreak = token
        elif token == "probe":
            probing = ProbeConfig()
        else:
            raise ValueError(f"unknown heuristic suffix {token!r} in {name!r}")
    return VOHeuristic(base=base, tiebreak=tiebreak, probing=probing)


def heuristic_name(h: VOHeuristic) -> str:
    name = h.base
    if h.probing is not None:
        name += "+probe"
    if h.tiebreak != "lexico":
        name += "+" + h.tiebreak
    return name


class WeightStore:
    """Per-constraint conflict weights; start at 1 and never decrease."""

    def __init__(self, problem: Problem, policy: str = "wdeg"):
        if policy not in WEIGHT_POLICIES:
            raise ValueError(f"unknown weight policy {policy!r}")
        self.policy = policy
        self.weight: dict[str, int] = {c.id: 1 for c in problem.constraints}

    def get(self, cid: str) -> int:
        return self.weight[cid]

    def on_deletion(self, cid: str, removed: int) -> None:
        """A fruitful revision by cid removed `removed` values."""
        if self.policy == "alldel":
            self.weight[cid] += removed

    def on_dwo(self, cid: str, fruitful: frozenset[str]) -> None:
        """Propagation ended in a domain wipeout caused by cid."""
        if self.policy == "wdeg":
            self.weight[cid] += 1
        elif self.policy == "fully":
            for c in set(fruitful) | {cid}:
                self.weight[c] += 1

    def snapshot(self) -> dict[str, int]:
        return dict(self.weight)


class HeuristicState:
    """The state of one solve, shared by search, its probes and propagation.

    It owns the problem's domains and the run's counters, and holds the
    conflict weights, the impact store (or None), the assigned set and the
    propagation setting: the scheme of the queues propagate_from builds, the
    revision policy and the deadline.
    """

    def __init__(
        self,
        problem: Problem,
        weights: WeightStore,
        impacts: "ImpactStore | None" = None,
        scheme: str = "variable",
        policy: str = "fifo",
        deadline: float = math.inf,
    ):
        self.problem = problem
        self.weights = weights
        self.impacts = impacts
        self.scheme = scheme
        self.policy = policy
        self.deadline = deadline
        self.d = DomainStore(problem)
        self.stats = SearchStats()
        self.assigned: set[str] = set()

    def qualified(self, c, x: str) -> bool:
        # a constraint counts for x only while it can still propagate somewhere
        return any(y != x and y not in self.assigned for y in c.scope)

    def wdeg(self, x: str) -> int:
        return sum(
            self.weights.get(c.id)
            for c in self.problem.constraints_on[x]
            if self.qualified(c, x)
        )

    def wdegs(self) -> dict[str, int]:
        """wdeg(x) for every variable, from one pass over the constraints."""
        assigned = self.assigned
        weight = self.weights.weight
        out = dict.fromkeys(self.problem.variables, 0)
        for c in self.problem.constraints:
            free = [y for y in c.scope if y not in assigned]
            if not free:
                continue
            w = weight[c.id]
            # with two free variables c qualifies for its whole scope; with
            # one, for every scope variable except that one
            lone = free[0] if len(free) == 1 else None
            for x in c.scope:
                if x != lone:
                    out[x] += w
        return out

    def ddeg(self, x: str) -> int:
        return sum(1 for c in self.problem.constraints_on[x] if self.qualified(c, x))

    def propagate_from(self, x: str, removed: int, update_weights: bool = True) -> bool:
        """Propagate the loss of `removed` values of D(x); False on a wipeout.

        update_weights=False keeps the conflict weights untouched (lookahead
        probes). Raises TimeoutError when a queue selection would start past
        the deadline.
        """
        queue = update_queue(self.problem, self.scheme, x, removed)
        return propagate(self, queue, update_weights).consistent


def score_variable(h: VOHeuristic, x: str, state: HeuristicState):
    """Score one unassigned variable of state.problem; smaller is preferred.

    Ratio heuristics fall back to plain |D(x)| when the denominator has no
    qualifying constraint (division guard).
    """
    return SCORE_BUILDERS[h.base](state)(x)


def _mdvo_score(x: str, problem: Problem, d: DomainStore) -> float:
    """Mean pairwise constrainedness of x against its neighborhood Γ(x).

    Each variable y weighs α(y) = |D(y)|/|Γ(y)|; the score is the sum of
    α(x) + α(y) over y in Γ(x), divided by |Γ(x)|².
    """
    gamma = problem.neighborhood[x]
    if not gamma:
        return float(d.size(x))

    def alpha(y: str) -> float:
        return d.size(y) / len(problem.neighborhood[y])

    ax = alpha(x)
    # gamma is a set of strings, so its order follows the hash seed: fsum is
    # exact and therefore independent of the order
    return math.fsum(ax + alpha(y) for y in gamma) / (len(gamma) ** 2)


def select_variable(state: HeuristicState, h: VOHeuristic) -> str | None:
    """Pick the next unassigned variable, or None when a tie-break probe wipes out.

    The candidate set is the argmin of the base score over state.d; ties go
    to the configured tie-break (declaration order for "lexico"). Probing
    tie-breaks only run when more than one candidate is tied, and raise
    TimeoutError when a probe would start past state.deadline.
    """
    free = [x for x in state.problem.variables if x not in state.assigned]
    if not free:
        raise ValueError("no unassigned variable to select")
    score = SCORE_BUILDERS[h.base](state)
    if h.tiebreak == "lexico":
        return min(free, key=score)
    scores = [score(x) for x in free]
    low = min(scores)
    candidates = [x for x, s in zip(free, scores) if s == low]
    if len(candidates) == 1:
        return candidates[0]
    tiebreak = rsc_tiebreak if h.tiebreak == "rsc" else node_impact_tiebreak
    return tiebreak(state, candidates)


# --- impacts ---------------------------------------------------------------


class ImpactStore:
    """Running averages of observed impacts, keyed by (variable, value)."""

    def __init__(self):
        self._sum: dict[tuple[str, int], float] = {}
        self._count: dict[tuple[str, int], int] = {}

    def observe(self, x: str, a: int, impact: float) -> None:
        key = (x, a)
        self._sum[key] = self._sum.get(key, 0.0) + impact
        self._count[key] = self._count.get(key, 0) + 1

    def averaged(self, x: str, a: int) -> float:
        key = (x, a)
        if key not in self._count:
            raise ValueError(f"no impact observation for {x}={a}")
        return self._sum[key] / self._count[key]

    def known(self, x: str, a: int) -> bool:
        return (x, a) in self._count


def observe_impact(store: ImpactStore, x: str, a: int, p_before: int, p_after: int) -> float:
    """Record one observation I = 1 - P_after/P_before and return it."""
    if p_before <= 0:
        raise ValueError("P_before must be positive")
    impact = 1.0 - (p_after / p_before)
    store.observe(x, a, impact)
    return impact


def variable_impact(store: ImpactStore, x: str, d: DomainStore) -> float:
    """Sum of (1 - averaged impact) over the live values of x."""
    return sum(1.0 - store.averaged(x, a) for a in d.current(x))


def space_product(problem: Problem, d: DomainStore, assigned: set[str], exclude: str | None = None) -> int:
    """Product of current domain sizes over unassigned variables."""
    p = 1
    for y in problem.variables:
        if y in assigned or y == exclude:
            continue
        p *= d.size(y)
    return p


def partition_parts(values: list[int]) -> list[list[int]]:
    """Split values into at most IMPACT_PARTS contiguous runs of near-equal size.

    Earlier parts take the remainder, so sizes differ by at most one.
    """
    n = len(values)
    parts = min(IMPACT_PARTS, n)
    if parts == 0:
        return []
    base, rem = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        out.append(values[start : start + size])
        start += size
    return out


def _lookahead(state: HeuristicState, x: str, keep) -> tuple[bool, int, int]:
    """Shrink D(x) to keep, propagate without weight updates, measure, restore state.d.

    Returns (consistent, p_before, p_after), products of the other unassigned
    domains, p_after 0 on a wipeout. Raises TimeoutError at a passed deadline.
    """
    if time.monotonic() >= state.deadline:
        raise TimeoutError
    d, problem, assigned = state.d, state.problem, state.assigned
    root = d.mark()
    try:
        removed = 0
        for v in d.current(x):
            if v not in keep:
                d.remove(x, v)
                removed += 1
        p_before = space_product(problem, d, assigned, exclude=x)
        if not state.propagate_from(x, removed, update_weights=False):
            return False, p_before, 0
        return True, p_before, space_product(problem, d, assigned, exclude=x)
    finally:
        d.restore(root)


def init_impacts(state: HeuristicState) -> bool:
    """Initialize state.impacts by probing contiguous sub-domains of every variable.

    Each part is propagated in isolation and restored; a part that wipes out
    records impact 1 for its values. Returns False when every part of some
    variable wipes out (the problem is inconsistent). Raises TimeoutError,
    with state.d restored, when a part or a propagation's queue selection
    would start past state.deadline.
    """
    for x in state.problem.variables:
        live_parts = 0
        for part in partition_parts(sorted(state.d.current(x))):
            ok, p_before, p_after = _lookahead(state, x, part)
            live_parts += ok
            for a in part:
                observe_impact(state.impacts, x, a, p_before, p_after)
        if live_parts == 0:
            return False
    return True


def _probe_scan(state: HeuristicState, candidates: list[str], score) -> str | None:
    """Probe every live value of each candidate once, the candidate marked assigned.

    Values that wipe out are pruned from state.d; returns None when a
    candidate's domain empties (the caller must fail the node). Otherwise the
    candidate with the smallest summed score(x, a, p_before, p_after) wins,
    first-listed on ties. Raises TimeoutError when a probe would start past
    state.deadline.
    """
    d, assigned = state.d, state.assigned
    best = None
    best_total = None
    for x in candidates:
        wiped = []
        total = 0
        assigned.add(x)
        try:
            for a in d.current(x):
                ok, p_before, p_after = _lookahead(state, x, (a,))
                total += score(x, a, p_before, p_after)
                if not ok:
                    wiped.append(a)
        finally:
            assigned.discard(x)
        for a in wiped:
            d.remove(x, a)
        if d.size(x) == 0:
            return None
        if best_total is None or total < best_total:
            best, best_total = x, total
    return best


def node_impact_tiebreak(state: HeuristicState, candidates: list[str]) -> str | None:
    """Break ties with exact impacts measured at this node.

    Every candidate value is probed, and its impact recorded in
    state.impacts if there is one; values that wipe out are pruned from
    state.d (None on an emptied candidate). The candidate with the smallest
    summed residual (1 - impact) wins, first-listed on ties.
    """
    store = state.impacts

    def residual(x, a, p_before, p_after):
        if store is None:
            impact = 1.0 - (p_after / p_before)
        else:
            impact = observe_impact(store, x, a, p_before, p_after)
        return 1.0 - impact

    return _probe_scan(state, candidates, residual)


def rsc_tiebreak(state: HeuristicState, candidates: list[str]) -> str | None:
    """Break ties by total search-space reduction over one singleton pass.

    Each candidate value gets a single assign-and-propagate probe; wiped
    values are pruned from state.d (None on an emptied candidate). The
    candidate with the largest total reduction wins, first-listed on ties.
    """
    return _probe_scan(state, candidates, lambda x, a, p_before, p_after: p_after - p_before)
