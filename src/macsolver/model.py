"""Problem model: variables, domains, constraints, and reversible domain state.

Values are plain ints. A constraint is an allowed-tuple table, a forbidden-tuple
table, or one of a small set of binary predicates. Instances load from and dump
to a strict JSON format (see ``load_problem``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable

# One shared test per predicate name, called as test(t, k); k is None for
# all but dist_ne and dist_gt
_PRED_TESTS: dict[str, Callable[[tuple[int, ...], int | None], bool]] = {
    "eq": lambda t, k: t[0] == t[1],
    "ne": lambda t, k: t[0] != t[1],
    "lt": lambda t, k: t[0] < t[1],
    "le": lambda t, k: t[0] <= t[1],
    "gt": lambda t, k: t[0] > t[1],
    "ge": lambda t, k: t[0] >= t[1],
    "dist_ne": lambda t, k: abs(t[0] - t[1]) != k,
    "dist_gt": lambda t, k: abs(t[0] - t[1]) > k,
}
PREDICATES = tuple(_PRED_TESTS)


class InstanceError(ValueError):
    """Malformed instance text or inconsistent problem structure."""


@dataclass(eq=True, slots=True)
class Constraint:
    """One constraint: an id, a variable scope, and a relation.

    ``kind`` is "allowed", "forbidden", or "predicate". Table kinds carry a
    frozenset of value tuples; the predicate kind carries a predicate name and,
    for dist_ne/dist_gt, an integer parameter k. A constraint holds only this
    data plus its ``arity``; ``check_tuple`` reads it for every check.
    """

    id: str
    scope: tuple[str, ...]
    kind: str
    tuples: frozenset[tuple[int, ...]] | None = None
    pred: str | None = None
    k: int | None = None
    arity: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.arity = arity = len(self.scope)
        if arity < 2:
            raise InstanceError(f"constraint {self.id}: arity must be at least 2")
        if len(set(self.scope)) != arity:
            raise InstanceError(f"constraint {self.id}: repeated variable in scope")
        if self.kind in ("allowed", "forbidden"):
            if self.pred is not None or self.k is not None:
                raise InstanceError(f"constraint {self.id}: table kinds take no pred")
            if self.tuples is None:
                raise InstanceError(f"constraint {self.id}: missing tuple table")
            if type(self.tuples) is not frozenset:
                # every check reads the table, so it must not change
                raise InstanceError(f"constraint {self.id}: tuple table must be a frozenset")
            bad = set(map(len, self.tuples)) - {arity}
            if bad:
                raise InstanceError(
                    f"constraint {self.id}: tuple width {min(bad)} != arity {arity}"
                )
        elif self.kind == "predicate":
            if self.tuples is not None:
                raise InstanceError(f"constraint {self.id}: predicate kind takes no tuples")
            if arity != 2:
                raise InstanceError(f"constraint {self.id}: predicates are binary")
            if self.pred not in PREDICATES:
                raise InstanceError(f"constraint {self.id}: unknown predicate {self.pred!r}")
            if self.pred in ("dist_ne", "dist_gt"):
                if self.k is None:
                    raise InstanceError(f"constraint {self.id}: predicate {self.pred} needs k")
            elif self.k is not None:
                raise InstanceError(f"constraint {self.id}: predicate {self.pred} takes no k")
        else:
            raise InstanceError(f"constraint {self.id}: unknown kind {self.kind!r}")

    def test(self, t: tuple[int, ...]) -> bool:
        """Whether the value tuple t satisfies the constraint; counts no check."""
        if self.tuples is None:
            return _PRED_TESTS[self.pred](t, self.k)
        return (t in self.tuples) is (self.kind == "allowed")


@dataclass(eq=True)
class Problem:
    """An immutable CSP instance plus derived lookup structures.

    ``var_index`` and ``constraints_on`` are built with the instance, which
    checks its structure. ``neighborhood`` and ``by_id`` are built on first
    read and then kept, since only some heuristics and schemes read them.
    ``dataclasses.replace`` builds a new instance, which derives its own.
    """

    name: str
    variables: tuple[str, ...]
    domains: dict[str, tuple[int, ...]]
    constraints: tuple[Constraint, ...]
    constraints_on: dict[str, tuple[Constraint, ...]] = field(
        init=False, compare=False, repr=False
    )
    var_index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise InstanceError("duplicate variable id")
        self.var_index = {x: i for i, x in enumerate(self.variables)}
        for x in self.variables:
            dom = self.domains.get(x)
            if not dom:
                raise InstanceError(f"variable {x}: empty domain")
            if len(set(dom)) != len(dom):
                raise InstanceError(f"variable {x}: duplicate domain value")
        if set(self.domains) != set(self.variables):
            raise InstanceError("domain table does not match variable list")
        seen_ids: set[str] = set()
        on: dict[str, list[Constraint]] = {x: [] for x in self.variables}
        for c in self.constraints:
            if c.id in seen_ids:
                raise InstanceError(f"duplicate constraint id {c.id}")
            seen_ids.add(c.id)
            for x in c.scope:
                if x not in self.var_index:
                    raise InstanceError(f"constraint {c.id}: unknown variable {x}")
                on[x].append(c)
        self.constraints_on = {x: tuple(cs) for x, cs in on.items()}

    @cached_property
    def neighborhood(self) -> dict[str, frozenset[str]]:
        """Each variable's neighbors: the variables it shares a constraint with."""
        return {
            x: frozenset(y for c in cs for y in c.scope if y != x)
            for x, cs in self.constraints_on.items()
        }

    @cached_property
    def by_id(self) -> dict[str, Constraint]:
        """Each constraint under its id."""
        return {c.id: c for c in self.constraints}


def neighbors(problem: Problem, x: str) -> frozenset[str]:
    """Variables sharing at least one constraint with x."""
    try:
        return problem.neighborhood[x]
    except KeyError:
        raise InstanceError(f"unknown variable {x}") from None


@dataclass
class SearchStats:
    """Run counters: n nodes, c checks, r queue selections, DWOs, restarts."""

    nodes: int = 0
    checks: int = 0
    revisions: int = 0
    dwos: int = 0
    restarts: int = 0
    time_ms: float = 0.0


def check_tuple(constraint: Constraint, values: tuple[int, ...], stats) -> bool:
    """Test one value tuple against a constraint, counting exactly one check.

    It tests inline what ``Constraint.test`` tests, so a check costs one call.
    """
    if len(values) != constraint.arity:
        raise InstanceError(
            f"constraint {constraint.id}: tuple width {len(values)} != arity {constraint.arity}"
        )
    stats.checks += 1
    table = constraint.tuples
    if table is None:
        return _PRED_TESTS[constraint.pred](values, constraint.k)
    return (values in table) is (constraint.kind == "allowed")


def seek_support(c: Constraint, i: int, a: int, row: list, stats) -> bool:
    """Search a supporting tuple for value a at scope position i of c.

    `row` holds the live values of every scope variable of c, in scope
    order. It is valid only while those domains do not change. The n-ary
    case sets row[i] to (a,), so the caller hands over a row it owns; the
    binary case leaves it as it is. Enumeration is lexicographic over the
    other positions, so check counts are deterministic.
    """
    if c.arity == 2:
        if i == 0:
            for b in row[1]:
                if check_tuple(c, (a, b), stats):
                    return True
        else:
            for b in row[0]:
                if check_tuple(c, (b, a), stats):
                    return True
        return False
    row[i] = (a,)
    for t in product(*row):
        if check_tuple(c, t, stats):
            return True
    return False


class DomainStore:
    """Current domains with exact trail-based restoration.

    Each domain is kept as an array whose live values occupy a prefix;
    removal finds the value by scanning that prefix, swaps it to the
    prefix's end and shrinks the prefix. The trail records
    (variable, index) per removal: undone most recent first, the removed
    value sits just past the live prefix, so one swap restores the array
    bit-exactly, order included. `remove` and `contains` scan at most |D(x)|
    entries, which keeps no per-value map beside the arrays.
    """

    def __init__(self, problem: Problem):
        self._values: dict[str, list[int]] = {
            x: list(problem.domains[x]) for x in problem.variables
        }
        self._size: dict[str, int] = {x: len(problem.domains[x]) for x in problem.variables}
        self._trail: list[tuple[str, int]] = []

    def size(self, x: str) -> int:
        return self._size[x]

    def current(self, x: str) -> list[int]:
        """Live values of x in current iteration order (a snapshot copy)."""
        return self._values[x][: self._size[x]]

    def contains(self, x: str, value: int) -> bool:
        return value in self._values[x][: self._size[x]]

    def remove(self, x: str, value: int) -> None:
        vals = self._values[x]
        last = self._size[x] - 1
        try:
            i = vals.index(value, 0, last + 1)
        except ValueError:
            raise ValueError(f"{value} not in current D({x})") from None
        vals[i] = vals[last]
        vals[last] = value
        self._size[x] = last
        self._trail.append((x, i))

    def assign(self, x: str, value: int) -> int:
        """Remove every other live value of x; returns the removal count."""
        if not self.contains(x, value):
            raise ValueError(f"{value} not in current D({x})")
        removed = 0
        for u in self.current(x):
            if u != value:
                self.remove(x, u)
                removed += 1
        return removed

    def mark(self) -> int:
        """Token for the current depth; pass to restore() to come back here."""
        return len(self._trail)

    def restore(self, mark: int) -> None:
        """Undo every removal recorded after `mark`, most recent first."""
        trail = self._trail
        while len(trail) > mark:
            x, i = trail.pop()
            vals = self._values[x]
            last = self._size[x]
            vals[i], vals[last] = vals[last], vals[i]
            self._size[x] = last + 1

    def wiped(self) -> bool:
        return any(s == 0 for s in self._size.values())


def _reject_unknown(obj: dict, allowed: Iterable[str], where: str) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        raise InstanceError(f"{where}: unknown field(s) {sorted(extra)}")


def load_problem(text: str) -> Problem:
    """Parse an instance from its JSON text form.

    Schema::

        {"name": str,
         "variables": [{"id": str, "domain": [int, ...]}, ...],
         "constraints": [{"id": str, "scope": [str, ...],
                          "kind": "allowed"|"forbidden"|"predicate",
                          "tuples": [[int, ...], ...],      # table kinds
                          "pred": {"name": str, "k": int}}, # predicate kind
                         ...]}

    Unknown fields are rejected anywhere they appear.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceError(f"parse error at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise InstanceError("top level must be an object")
    _reject_unknown(doc, ("name", "variables", "constraints"), "top level")
    name = doc.get("name")
    if not isinstance(name, str):
        raise InstanceError("field 'name' must be a string")
    raw_vars = doc.get("variables")
    if not isinstance(raw_vars, list) or not raw_vars:
        raise InstanceError("field 'variables' must be a non-empty list")
    variables: list[str] = []
    domains: dict[str, tuple[int, ...]] = {}
    for entry in raw_vars:
        if not isinstance(entry, dict):
            raise InstanceError("variable entries must be objects")
        _reject_unknown(entry, ("id", "domain"), "variable entry")
        vid = entry.get("id")
        dom = entry.get("domain")
        if not isinstance(vid, str):
            raise InstanceError("variable id must be a string")
        if (
            not isinstance(dom, list)
            or not dom
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in dom)
        ):
            raise InstanceError(f"variable {vid}: domain must be a non-empty list of ints")
        variables.append(vid)
        domains[vid] = tuple(dom)
    raw_cons = doc.get("constraints")
    if not isinstance(raw_cons, list):
        raise InstanceError("field 'constraints' must be a list")
    constraints: list[Constraint] = []
    # one tuple object per distinct value tuple, shared by every table
    canon: dict[tuple[int, ...], tuple[int, ...]] = {}
    for entry in raw_cons:
        if not isinstance(entry, dict):
            raise InstanceError("constraint entries must be objects")
        _reject_unknown(entry, ("id", "scope", "kind", "tuples", "pred"), "constraint entry")
        cid = entry.get("id")
        scope = entry.get("scope")
        kind = entry.get("kind")
        if not isinstance(cid, str):
            raise InstanceError("constraint id must be a string")
        if not isinstance(scope, list) or not all(isinstance(s, str) for s in scope):
            raise InstanceError(f"constraint {cid}: scope must be a list of variable ids")
        if kind in ("allowed", "forbidden"):
            if "pred" in entry:
                raise InstanceError(f"constraint {cid}: table kinds take no pred")
            raw_tuples = entry.get("tuples")
            if not isinstance(raw_tuples, list):
                raise InstanceError(f"constraint {cid}: missing tuple table")
            tuples = set()
            for t in raw_tuples:
                if not isinstance(t, list) or not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in t
                ):
                    raise InstanceError(f"constraint {cid}: tuples must be lists of ints")
                tup = tuple(t)
                tuples.add(canon.setdefault(tup, tup))
            constraints.append(
                Constraint(id=cid, scope=tuple(scope), kind=kind, tuples=frozenset(tuples))
            )
        elif kind == "predicate":
            if "tuples" in entry:
                raise InstanceError(f"constraint {cid}: predicate kind takes no tuples")
            pred = entry.get("pred")
            if not isinstance(pred, dict):
                raise InstanceError(f"constraint {cid}: missing pred object")
            _reject_unknown(pred, ("name", "k"), f"constraint {cid} pred")
            pname = pred.get("name")
            k = pred.get("k")
            if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
                raise InstanceError(f"constraint {cid}: k must be an int")
            constraints.append(
                Constraint(id=cid, scope=tuple(scope), kind="predicate", pred=pname, k=k)
            )
        else:
            raise InstanceError(f"constraint {cid}: unknown kind {kind!r}")
    return Problem(
        name=name,
        variables=tuple(variables),
        domains=domains,
        constraints=tuple(constraints),
    )


def dump_problem(problem: Problem) -> str:
    """Serialize a problem to the JSON text form accepted by load_problem."""
    doc: dict = {
        "name": problem.name,
        "variables": [
            {"id": x, "domain": list(problem.domains[x])} for x in problem.variables
        ],
        "constraints": [],
    }
    for c in problem.constraints:
        entry: dict = {"id": c.id, "scope": list(c.scope), "kind": c.kind}
        if c.kind in ("allowed", "forbidden"):
            entry["tuples"] = [list(t) for t in sorted(c.tuples)]
        else:
            pred: dict = {"name": c.pred}
            if c.k is not None:
                pred["k"] = c.k
            entry["pred"] = pred
        doc["constraints"].append(entry)
    return json.dumps(doc, indent=1)
