"""Coarse-grained (G)AC propagation.

Three schemes share one revision loop: the pending queue holds arcs
(constraint, variable), variables, or constraints. Which element to revise
next is picked by a pluggable ordering policy. Per constraint, the variable-
and constraint-oriented schemes keep the scope variables that lost values
since it was last processed, which lets them skip revisions that cannot prune
anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import Constraint, DomainStore, seek_support


def dom_ratio(dom_size: int, weight: int) -> float:
    """|D| / weight, or plain |D| when the weight is not positive."""
    return dom_size / weight if weight > 0 else float(dom_size)


def _inverse(s, arc: tuple[str, str], weight_of) -> float:
    # scores the arc by the other scope variables, not by the revised one
    cid, x = arc
    return min(
        dom_ratio(s.d.size(y), weight_of(y)) for y in s.problem.by_id[cid].scope if y != x
    )


# scheme -> policy -> score builder, None for fifo. propagate calls a builder
# once per call with the solve state s. The key it returns reads s's domains,
# constraint weights and weighted degrees live; select_next pops the smallest,
# first inserted on ties. Under the variable scheme, a policy named v_* is
# weight-driven: it also revises each selected variable's constraints
# heaviest first.
SCORE_BUILDERS = {
    "arc": {
        "fifo": None,
        "dom": lambda s: lambda arc: s.d.size(arc[1]),
        "a_wcon": lambda s: lambda arc: -s.weights.get(arc[0]),
        "a_wdeg": lambda s: lambda arc: -s.wdeg(arc[1]),
        "a_dom/wdeg": lambda s: lambda arc: dom_ratio(s.d.size(arc[1]), s.wdeg(arc[1])),
        "a_dom/wcon": lambda s: lambda arc: dom_ratio(s.d.size(arc[1]), s.weights.get(arc[0])),
        "a_dom/wdeg_inverse": lambda s: lambda arc: _inverse(s, arc, s.wdeg),
        "a_dom/wcon_inverse": lambda s: (
            lambda arc: _inverse(s, arc, lambda y: s.weights.get(arc[0]))
        ),
    },
    "variable": {
        "fifo": None,
        "dom": lambda s: s.d.size,
        "v_wdeg": lambda s: lambda x: -s.wdeg(x),
        "v_dom/wdeg": lambda s: lambda x: dom_ratio(s.d.size(x), s.wdeg(x)),
    },
    "constraint": {
        "c_wcon": lambda s: lambda cid: -s.weights.get(cid),
    },
}

SCHEMES = tuple(SCORE_BUILDERS)
POLICIES_BY_SCHEME = {
    scheme: tuple(policies) for scheme, policies in SCORE_BUILDERS.items()
}


def validate_policy(scheme: str, policy: str):
    """`policy`'s score builder (None for fifo); ValueError if it does not fit."""
    if scheme not in SCORE_BUILDERS:
        raise ValueError(f"unknown propagation scheme {scheme!r}")
    if policy not in SCORE_BUILDERS[scheme]:
        raise ValueError(f"revision policy {policy!r} does not fit scheme {scheme!r}")
    return SCORE_BUILDERS[scheme][policy]


@dataclass
class PropagationOutcome:
    """Result of one propagation call."""

    consistent: bool
    dwo_constraint: str | None = None
    dwo_variable: str | None = None
    fruitful: frozenset[str] = frozenset()


class RevisionQueue:
    """Duplicate-free pending set in FIFO insertion order, plus ctr rows.

    ctr maps a constraint id to its row: the tuple of its scope variables
    that lost values since the constraint was last processed, first changed
    first. A constraint with no pending removals has no row. A row may be
    the constraint's own scope tuple, so it is replaced, never mutated.
    Only the variable and constraint schemes keep ctr; arc queues leave it
    empty. A queue has no scheme of its own: initial_queue and update_queue
    build it for the scheme of the state that will run it.
    """

    def __init__(self):
        self._pending: dict = {}
        self.ctr: dict[str, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, elem) -> bool:
        return elem in self._pending

    def add(self, elem) -> None:
        if elem not in self._pending:
            self._pending[elem] = None

    def take(self, elem) -> None:
        del self._pending[elem]

    def elements(self) -> list:
        return list(self._pending)

    def bump(self, cid: str, x: str) -> None:
        """Record that x lost values since cid was last processed."""
        row = self.ctr.get(cid, ())
        if x not in row:
            self.ctr[cid] = row + (x,)

    def ctr_of(self, cid: str, x: str) -> bool:
        return x in self.ctr.get(cid, ())

    def reset_ctr(self, c: Constraint) -> None:
        self.ctr.pop(c.id, None)


def needs_not_be_revised(q: RevisionQueue, c: Constraint) -> str | None:
    """The scope variable of c whose revision is provably redundant, or None.

    That variable is the only one of c with pending removals: removing values
    from it cannot destroy supports of its remaining values on c. None when
    no variable or more than one has pending removals. Reads c's ctr row
    once: the variable exists exactly when the row has one entry.
    """
    row = q.ctr.get(c.id, ())
    return row[0] if len(row) == 1 else None


def initial_queue(state) -> RevisionQueue:
    """Preprocessing seeds of state.scheme: every element, each ctr row its scope."""
    problem, scheme = state.problem, state.scheme
    q = RevisionQueue()
    for c in problem.constraints:
        if scheme == "arc":
            for x in c.scope:
                q.add((c.id, x))
            continue
        if scheme == "constraint":
            q.add(c.id)
        q.ctr[c.id] = c.scope
    if scheme == "variable":
        for x in problem.variables:
            q.add(x)
    return q


def _requeue(state, q: RevisionQueue, x: str, skip=None) -> None:
    """Queue what losing values of D(x) can make revisable.

    Covers every constraint on x except `skip` (the one that removed them):
    its other arcs, x itself, or the constraint, per state.scheme. Outside
    the arc scheme, x joins the ctr rows of those constraints.
    """
    scheme = state.scheme
    for c in state.problem.constraints_on[x]:
        if c is skip:
            continue
        if scheme == "arc":
            for z in c.scope:
                if z != x:
                    q.add((c.id, z))
            continue
        if scheme == "constraint":
            q.add(c.id)
        q.bump(c.id, x)
    if scheme == "variable":
        q.add(x)


def update_queue(state, x: str, removed: int) -> RevisionQueue:
    """Seeds of state.scheme after removing `removed` values from D(x) at a search node.

    Only elements involving x are queued and, outside the arc scheme, each
    ctr row of x's constraints is (x,). A zero removal count leaves the
    previous fixpoint intact, so the queue stays empty.
    """
    q = RevisionQueue()
    if removed > 0:
        _requeue(state, q, x)
    return q


def revise(d: DomainStore, c: Constraint, i: int, stats, live: list[list[int]]) -> int:
    """Remove the values of c's i-th scope variable without support on c.

    Returns the removal count. `live` holds the live values of every scope
    variable in scope order, as read by the caller; revise copies it once
    into the row that seek_support fills. Only the revised variable loses
    values, so the other positions stay valid for the whole revision. Once
    it loses a value, `live` is stale at position i and the caller must read
    that domain again before passing it on.
    """
    x = c.scope[i]
    row = live.copy()
    removed = 0
    for a in live[i]:
        if not seek_support(c, i, a, row, stats):
            d.remove(x, a)
            removed += 1
    return removed


def select_next(q: RevisionQueue, key):
    """Pop the pending element with the smallest key, first inserted on ties.

    With key None (fifo) that is the first inserted element.
    """
    elem = next(iter(q._pending)) if key is None else min(q._pending, key=key)
    q.take(elem)
    return elem


def propagate(state, queue: RevisionQueue, update_weights: bool = True) -> PropagationOutcome:
    """Run the queue to fixpoint or to the first domain wipeout.

    `state` is the solve's state (heuristics.HeuristicState), and `queue`
    was built for its scheme: propagate reads its problem, domains d,
    counters stats, weights, wdeg, scheme, policy and deadline once per
    call. The state checked that the policy fits the scheme when it was
    built; the policy's key is built once per call, over objects fixed for
    the call. The revisions counter advances once per queue selection and the
    checks counter inside check_tuple. Weight-update events (fruitful
    revisions, DWOs) go to state.weights unless update_weights is False
    (lookahead probing must not touch weights). Raises TimeoutError when a
    selection would start past the deadline.
    """
    scheme, policy = state.scheme, state.policy
    build = SCORE_BUILDERS[scheme][policy]
    problem, d, stats = state.problem, state.d, state.stats
    weights, deadline = state.weights, state.deadline
    key = None if build is None else build(state)
    heaviest_first = (lambda c: -weights.get(c.id)) if policy.startswith("v_") else None
    fruitful: set[str] = set()

    def revised(c: Constraint, x: str, removed: int) -> PropagationOutcome | None:
        """Bookkeeping after c removed values of x; the outcome on a wipeout."""
        fruitful.add(c.id)
        if update_weights:
            weights.on_deletion(c.id, removed)
        if d.size(x) == 0:
            blamed = frozenset(fruitful)
            if update_weights:
                weights.on_dwo(c.id, blamed)
            stats.dwos += 1
            return PropagationOutcome(False, c.id, x, blamed)
        _requeue(state, queue, x, c)
        return None

    arc = scheme == "arc"
    by_variable = scheme == "variable"
    while queue:
        if time.monotonic() >= deadline:
            raise TimeoutError
        stats.revisions += 1
        elem = select_next(queue, key)
        if arc:
            cid, x = elem
            c = problem.by_id[cid]
            live = [d.current(y) for y in c.scope]
            removed = revise(d, c, c.scope.index(x), stats, live)
            if removed > 0 and (wiped := revised(c, x, removed)):
                return wiped
            continue
        if by_variable:
            cs = problem.constraints_on[elem]
            if heaviest_first is not None:
                cs = sorted(cs, key=heaviest_first)
        else:
            cs = (problem.by_id[elem],)
        for c in cs:
            # read lazily: revising an earlier constraint can add elem to this row
            if by_variable and not queue.ctr_of(c.id, elem):
                continue
            # read c's ctr row once: _requeue skips c, so c's own removals
            # never bump it and the redundant revision stays the same for the
            # loop. Read the scope's domains once too; a fruitful revision
            # shrinks only the revised variable, so only that one is read again
            redundant = needs_not_be_revised(queue, c)
            scope = c.scope
            live = [d.current(y) for y in scope]
            for j, y in enumerate(scope):
                if y == redundant:
                    continue
                removed = revise(d, c, j, stats, live)
                if removed > 0:
                    if wiped := revised(c, y, removed):
                        return wiped
                    live[j] = d.current(y)
            # c is now fully propagated: clear its ctr row
            queue.reset_ctr(c)

    return PropagationOutcome(consistent=True, fruitful=frozenset(fruitful))
