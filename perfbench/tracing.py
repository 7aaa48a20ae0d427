"""Per-layer tracing from outside the solver.

Public functions are wrapped where their callers look them up (a module
global or a class attribute), so the solver's own code is untouched. Each
wrapped call is a span; spans are aggregated in memory by (name, parent name)
into calls, total time, self time and "hits" (calls whose result satisfies a
predicate, such as a revision that removed values). Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def targets(api) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, hit predicate) for every traced function."""
    model, propagation, heuristics, search = (
        api.model, api.propagation, api.heuristics, api.search,
    )
    store, queue = model.DomainStore, propagation.RevisionQueue
    wiped = lambda out: not out.consistent  # noqa: E731
    return [
        (search, "solve", "search.solve", None),
        (model, "check_tuple", "model.check_tuple", None),
        (propagation, "seek_support", "model.seek_support", bool),
        (store, "current", "model.current", None),
        (store, "mark", "model.trail", None),
        (store, "restore", "model.trail", None),
        (store, "assign", "model.trail", None),
        (store, "remove", "model.trail", None),
        (search, "propagate", "propagation.propagate", wiped),
        (heuristics, "propagate", "propagation.propagate", wiped),
        (propagation, "revise", "propagation.revise", bool),
        (propagation, "select_next", "propagation.select_next", None),
        (queue, "bump", "propagation.ctr", None),
        (queue, "ctr_of", "propagation.ctr", None),
        (queue, "reset_ctr", "propagation.ctr", None),
        (propagation, "needs_not_be_revised", "propagation.needs_not_be_revised", bool),
        (search, "select_variable", "heuristics.select_variable", None),
        (heuristics.HeuristicState, "wdeg", "heuristics.wdeg", None),
        (heuristics.WeightStore, "on_deletion", "heuristics.weights", None),
        (heuristics.WeightStore, "on_dwo", "heuristics.weights", None),
        (search, "init_impacts", "heuristics.init_impacts", None),
        (search, "space_product", "heuristics.space_product", None),
        (heuristics, "space_product", "heuristics.space_product", None),
        (search, "observe_impact", "heuristics.observe_impact", None),
        (heuristics, "observe_impact", "heuristics.observe_impact", None),
        (heuristics, "variable_impact", "heuristics.variable_impact", None),
        (heuristics, "rsc_tiebreak", "heuristics.probe", None),
        (heuristics, "node_impact_tiebreak", "heuristics.probe", None),
    ]


class Tracer:
    """In-memory span aggregate plus one root span per case."""

    def __init__(self):
        # (name, parent) -> [calls, total_s, self_s, hits]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.cases: list[tuple[str, float, float]] = []
        self._stack: list[list] = []

    def wrap(self, name: str, fn, hit=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if hit is not None and hit(result):
                rec[3] += 1
            return result

        return traced

    @contextmanager
    def case(self, label: str):
        """Root span of one case; an aborted case leaves no open spans behind."""
        del self._stack[:]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            del self._stack[:]
            self.cases.append((label, t0, time.perf_counter()))

    @contextmanager
    def installed(self, api):
        """Swap every target for its traced wrapper; restore them on exit."""
        saved = []
        try:
            for owner, attr, name, hit in targets(api):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hit))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _sum(self, name: str, field: int, parent=...) -> float:
        return sum(
            (
                rec[field]
                for (n, p), rec in self.spans.items()
                if n == name and (parent is ... or p == parent)
            ),
            0.0 if field in (1, 2) else 0,
        )

    def calls(self, name: str, parent=...) -> int:
        return self._sum(name, 0, parent)

    def total_s(self, name: str, parent=...) -> float:
        return self._sum(name, 1, parent)

    def self_s(self, *names: str) -> float:
        return sum(self._sum(n, 2) for n in names)

    def hits(self, name: str) -> int:
        return self._sum(name, 3)

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (name, _), rec in self.spans.items():
            out[name] = out.get(name, 0.0) + rec[2]
        return out
