"""Random mixed-arity instances for the oracle tests.

An instance over 6 variables holds two tables of each (arity, kind) pair in
TABLE_SHAPES, ternary and 4-ary, allowed and forbidden, plus 3 binary
predicates. Predicates are taken in turn from PREDICATES, so seeds 0..2
already use all 8 (``dist_ne``/``dist_gt`` with a random ``k``). Domains are
short integer runs with random offsets, so predicates such as ``lt`` and
``dist_gt`` bite differently on different variables.
"""

from __future__ import annotations

import random
from itertools import product

from macsolver.model import PREDICATES, Constraint, Problem

TABLE_SHAPES = tuple(product((3, 4), ("allowed", "forbidden")))
VARIABLES = tuple(f"v{i}" for i in range(6))
PREDICATES_PER_INSTANCE = 3


def gen_nary(seed: int) -> Problem:
    """One random instance; allowed tables keep about 60% of their tuples and
    forbidden tables forbid about 25%."""
    rng = random.Random(seed)
    domains = {}
    for x in VARIABLES:
        lo = rng.randint(0, 2)
        domains[x] = tuple(range(lo, lo + rng.randint(2, 4)))
    constraints = []
    for arity, kind in TABLE_SHAPES * 2:
        scope = tuple(rng.sample(VARIABLES, arity))
        keep = 0.6 if kind == "allowed" else 0.25
        tuples = frozenset(
            t for t in product(*(domains[x] for x in scope)) if rng.random() < keep
        )
        constraints.append(Constraint(f"t{len(constraints)}", scope, kind, tuples))
    for i in range(PREDICATES_PER_INSTANCE):
        name = PREDICATES[(seed * PREDICATES_PER_INSTANCE + i) % len(PREDICATES)]
        scope = tuple(rng.sample(VARIABLES, 2))
        k = rng.randint(0, 2) if name in ("dist_ne", "dist_gt") else None
        constraints.append(
            Constraint(f"p{len(constraints)}", scope, "predicate", pred=name, k=k)
        )
    return Problem(f"nary-{seed}", VARIABLES, domains, tuple(constraints))
