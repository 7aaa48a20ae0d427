"""Coarse-grained (G)AC propagation.

Three schemes share one revision loop: the pending queue holds arcs
(constraint, variable), variables, or constraints. Which element to revise
next is picked by a pluggable ordering policy; counters attached to
(constraint, variable) pairs let the variable- and constraint-oriented schemes
skip revisions that cannot prune anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import Constraint, DomainStore, Problem, seek_support


def dom_ratio(dom_size: int, weight: int) -> float:
    """|D| / weight, or plain |D| when the weight is not positive."""
    return dom_size / weight if weight > 0 else float(dom_size)


def _inverse(problem: Problem, d: DomainStore, arc: tuple[str, str], weight_of) -> float:
    # scores the arc by the other scope variables, not by the revised one
    cid, x = arc
    return min(
        dom_ratio(d.size(y), weight_of(y)) for y in problem.by_id[cid].scope if y != x
    )


# scheme -> policy -> score builder, None for fifo. propagate calls a builder
# once per call with (problem, d, weights, wdeg), objects fixed for the call:
# weights.get(cid) is a constraint weight, wdeg(x) a weighted degree. The key
# it returns reads them live; select_next pops the smallest, first inserted on
# ties. Under the variable scheme, a policy named v_* is weight-driven: it
# also revises each selected variable's constraints heaviest first.
SCORE_BUILDERS = {
    "arc": {
        "fifo": None,
        "dom": lambda p, d, w, wdeg: lambda arc: d.size(arc[1]),
        "a_wcon": lambda p, d, w, wdeg: lambda arc: -w.get(arc[0]),
        "a_wdeg": lambda p, d, w, wdeg: lambda arc: -wdeg(arc[1]),
        "a_dom/wdeg": lambda p, d, w, wdeg: (
            lambda arc: dom_ratio(d.size(arc[1]), wdeg(arc[1]))
        ),
        "a_dom/wcon": lambda p, d, w, wdeg: (
            lambda arc: dom_ratio(d.size(arc[1]), w.get(arc[0]))
        ),
        "a_dom/wdeg_inverse": lambda p, d, w, wdeg: (
            lambda arc: _inverse(p, d, arc, wdeg)
        ),
        "a_dom/wcon_inverse": lambda p, d, w, wdeg: (
            lambda arc: _inverse(p, d, arc, lambda y: w.get(arc[0]))
        ),
    },
    "variable": {
        "fifo": None,
        "dom": lambda p, d, w, wdeg: d.size,
        "v_wdeg": lambda p, d, w, wdeg: lambda x: -wdeg(x),
        "v_dom/wdeg": lambda p, d, w, wdeg: lambda x: dom_ratio(d.size(x), wdeg(x)),
    },
    "constraint": {
        "c_wcon": lambda p, d, w, wdeg: lambda cid: -w.get(cid),
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
    removed: int = 0
    fruitful: frozenset[str] = frozenset()


class RevisionQueue:
    """Duplicate-free pending set in FIFO insertion order, plus ctr counters.

    ctr maps a constraint id to its row {variable: values removed from that
    variable's domain since the constraint was last processed}. A row holds
    only positive entries, so a variable with no pending removals has none.
    Only the variable and constraint schemes keep ctr; arc queues leave it
    empty.
    """

    def __init__(self, kind: str):
        if kind not in SCHEMES:
            raise ValueError(f"unknown queue kind {kind!r}")
        self.kind = kind
        self._pending: dict = {}
        self.ctr: dict[str, dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def __contains__(self, elem) -> bool:
        return elem in self._pending

    def add(self, elem) -> None:
        if elem not in self._pending:
            self._pending[elem] = None

    def take(self, elem) -> None:
        del self._pending[elem]

    def elements(self) -> list:
        return list(self._pending)

    def bump(self, cid: str, x: str, removed: int) -> None:
        """Record `removed` (> 0) more values lost by x since cid was processed."""
        row = self.ctr.setdefault(cid, {})
        row[x] = row.get(x, 0) + removed

    def ctr_of(self, cid: str, x: str) -> int:
        row = self.ctr.get(cid)
        return row.get(x, 0) if row else 0

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
    return next(iter(row)) if len(row) == 1 else None


def initial_queue(problem: Problem, scheme: str) -> RevisionQueue:
    """Preprocessing seeds: every element, and every ctr counter set to 1."""
    q = RevisionQueue(scheme)
    for c in problem.constraints:
        if scheme == "arc":
            for x in c.scope:
                q.add((c.id, x))
            continue
        if scheme == "constraint":
            q.add(c.id)
        q.ctr[c.id] = dict.fromkeys(c.scope, 1)
    if scheme == "variable":
        for x in problem.variables:
            q.add(x)
    return q


def _requeue(problem: Problem, q: RevisionQueue, x: str, removed: int, skip=None) -> None:
    """Queue what losing `removed` values of D(x) can make revisable.

    Covers every constraint on x except `skip` (the one that removed them):
    its other arcs, x itself, or the constraint, per the queue kind. Outside
    the arc scheme, x's ctr entries on those constraints grow by `removed`.
    """
    kind = q.kind
    for c in problem.constraints_on[x]:
        if c is skip:
            continue
        if kind == "arc":
            for z in c.scope:
                if z != x:
                    q.add((c.id, z))
            continue
        if kind == "constraint":
            q.add(c.id)
        q.bump(c.id, x, removed)
    if kind == "variable":
        q.add(x)


def update_queue(problem: Problem, scheme: str, x: str, removed: int) -> RevisionQueue:
    """Seeds after removing `removed` values from D(x) at a search node.

    Only elements involving x are queued and only x's ctr entries are primed
    (outside the arc scheme), set to the removal count. A zero removal count
    leaves the previous fixpoint intact, so the queue stays empty.
    """
    q = RevisionQueue(scheme)
    if removed > 0:
        _requeue(problem, q, x, removed)
    return q


def revise(d: DomainStore, c: Constraint, x: str, stats, live: list[list[int]]) -> int:
    """Remove the values of x without support on c; returns the removal count.

    `live` holds the live values of every scope variable in scope order, as
    read by the caller. Only x loses values while x is revised, so x's scope
    position and the other variables' values (`others`) stay valid for the
    whole revision. Once x loses a value, `live` is stale at x's position and
    the caller must read D(x) again before passing it on.
    """
    scope = c.scope
    i = scope.index(x)
    others = live[:i] + live[i + 1:]
    removed = 0
    for a in live[i]:
        if not seek_support(c, i, a, others, stats):
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

    `state` is the solve's state (heuristics.HeuristicState): propagate reads
    its problem, domains d, counters stats, weights, wdeg, policy and
    deadline once per call. The scheme is the queue's kind, and the policy
    must fit it; its key is built once per call, over objects fixed for the
    call. The revisions counter advances once per queue selection and the
    checks counter inside check_tuple. Weight-update events (fruitful
    revisions, DWOs) go to state.weights unless update_weights is False
    (lookahead probing must not touch weights). Raises TimeoutError when a
    selection would start past the deadline.
    """
    scheme = queue.kind
    policy = state.policy
    build = validate_policy(scheme, policy)
    problem, d, stats = state.problem, state.d, state.stats
    weights, deadline = state.weights, state.deadline
    key = None if build is None else build(problem, d, weights, state.wdeg)
    heaviest_first = (lambda c: -weights.get(c.id)) if policy.startswith("v_") else None
    fruitful: set[str] = set()
    total_removed = 0

    def revised(c: Constraint, x: str, removed: int) -> PropagationOutcome | None:
        """Bookkeeping after c removed values of x; the outcome on a wipeout."""
        nonlocal total_removed
        total_removed += removed
        fruitful.add(c.id)
        if update_weights:
            weights.on_deletion(c.id, removed)
        if d.size(x) == 0:
            blamed = frozenset(fruitful)
            if update_weights:
                weights.on_dwo(c.id, blamed)
            stats.dwos += 1
            return PropagationOutcome(False, c.id, x, total_removed, blamed)
        _requeue(problem, queue, x, removed, c)
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
            removed = revise(d, c, x, stats, [d.current(y) for y in c.scope])
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
            # read lazily: revising an earlier constraint can raise this ctr
            if by_variable and queue.ctr_of(c.id, elem) == 0:
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
                removed = revise(d, c, y, stats, live)
                if removed > 0:
                    if wiped := revised(c, y, removed):
                        return wiped
                    live[j] = d.current(y)
            # c is now fully propagated: clear its pending-removal counters
            queue.reset_ctr(c)

    return PropagationOutcome(
        consistent=True, removed=total_removed, fruitful=frozenset(fruitful)
    )
