"""Benchmark instance generators.

All generators are deterministic per seed and emit Problem objects that
round-trip through the JSON instance format unchanged.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, compress
from typing import Iterable

from .model import Constraint, Problem


def _problem(name: str, variables: tuple[str, ...], size: int, specs: Iterable[dict]) -> Problem:
    """Assemble a generated instance over uniform domains ``range(size)``.

    Each spec holds one constraint's keyword arguments except its id; the
    constraints are numbered c0, c1, ... in the order given. The specs are
    read once, in order, so the generators yield them rather than list them;
    every variable shares one domain tuple.
    """
    domains = dict.fromkeys(variables, tuple(range(size)))
    constraints = tuple(Constraint(id=f"c{i}", **spec) for i, spec in enumerate(specs))
    return Problem(name, variables, domains, constraints)


def gen_model_d(n: int, d: int, e: int, t: float, seed: int) -> Problem:
    """Random binary CSP: e distinct constrained pairs, tuple-wise tightness t.

    Each constraint scope is an unordered variable pair drawn uniformly
    without replacement; each of the d*d value pairs is forbidden
    independently with probability t.
    """
    return _random_binary(n, d, e, t, seed, planted=False)


def gen_model_rb(n: int, d: int, e: int, t: float, seed: int) -> Problem:
    """Forced-satisfiable random binary CSP.

    A full assignment is planted first; tuples consistent with it are never
    forbidden, so the planted assignment survives in every instance.
    """
    return _random_binary(n, d, e, t, seed, planted=True)


def _random_binary(n: int, d: int, e: int, t: float, seed: int, planted: bool) -> Problem:
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if not 0.0 <= t <= 1.0:
        raise ValueError("tightness t must be in [0, 1]")
    max_pairs = n * (n - 1) // 2
    if not 0 <= e <= max_pairs:
        raise ValueError(f"e must be in [0, {max_pairs}] for n={n}")
    rng = random.Random(seed)
    variables = tuple(f"x{i}" for i in range(n))
    # the planted values come first from the generator, before the pairs
    values = [rng.randrange(d) for _ in range(n)] if planted else None
    # one tuple per value pair, shared by every table of the instance
    pairs = [(a, b) for a in range(d) for b in range(d)]
    draw = rng.random

    def specs():
        # random.sample reads its population only through len and indexing, so
        # sampling pair indices draws what sampling the pair list would draw;
        # nothing else draws from rng, so the draws keep their order even
        # though _problem consumes these specs one at a time
        for k in rng.sample(range(max_pairs), e):
            i, j = _nth_pair(n, k)
            live = pairs
            if planted:
                # the planted pair is never forbidden and takes no draw
                kept = values[i] * d + values[j]
                live = pairs[:kept] + pairs[kept + 1 :]
            # one draw per live pair, in lexicographic order
            forbidden = frozenset(compress(live, [draw() < t for _ in live]))
            yield dict(scope=(variables[i], variables[j]), kind="forbidden", tuples=forbidden)

    name = f"{'modelRB' if planted else 'modelD'}-{n}-{d}-{e}-{t}-{seed}"
    return _problem(name, variables, d, specs())


def _nth_pair(n: int, k: int) -> tuple[int, int]:
    """The k-th pair of combinations(range(n), 2), in O(1)."""
    total = n * (n - 1) // 2
    after = total - 1 - k  # pairs listed after the k-th
    # the rows after row i hold r(r+1)/2 pairs, r = n - 2 - i, so row i is the
    # r with r(r+1)/2 <= after < (r+1)(r+2)/2
    r = (math.isqrt(8 * after + 1) - 1) // 2
    i = n - 2 - r
    row_start = total - (r + 1) * (r + 2) // 2
    return i, i + 1 + k - row_start


def gen_langford(k: int, n: int) -> Problem:
    """Position encoding of the Langford pairing problem L(k, n).

    One variable per occurrence of each of the n values, ranging over the
    k*n sequence positions; all positions pairwise distinct; occurrence j+1 of
    value index i sits exactly i+2 positions after occurrence j (one binary
    allowed-tuple table per consecutive occurrence pair).
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    size = k * n
    variables = tuple(f"p{i}_{j}" for i in range(n) for j in range(k))

    def specs():
        for pair in combinations(variables, 2):
            yield dict(scope=pair, kind="predicate", pred="ne")
        for i in range(n):
            gap = i + 2
            table = frozenset((q, q + gap) for q in range(size - gap))
            for j in range(k - 1):
                yield dict(scope=(f"p{i}_{j}", f"p{i}_{j + 1}"), kind="allowed", tuples=table)

    return _problem(f"langford-{k}-{n}", variables, size, specs())


def gen_queens(n: int) -> Problem:
    """n queens, one variable per column: distinct rows, no shared diagonal."""
    if n < 1:
        raise ValueError("need n >= 1")
    variables = tuple(f"q{i}" for i in range(n))

    def specs():
        for i, j in combinations(range(n), 2):
            scope = (variables[i], variables[j])
            yield dict(scope=scope, kind="predicate", pred="ne")
            yield dict(scope=scope, kind="predicate", pred="dist_ne", k=j - i)

    return _problem(f"queens-{n}", variables, n, specs())


def gen_chessboard(rows: int, cols: int, colors: int) -> Problem:
    """Board coloration: no axis-aligned rectangle with four same-color corners.

    One 4-ary forbidden table per rectangle (row pair x column pair).
    """
    if rows < 2 or cols < 2 or colors < 1:
        raise ValueError("need rows >= 2, cols >= 2, colors >= 1")
    variables = tuple(f"s{r}_{c}" for r in range(rows) for c in range(cols))
    same = frozenset((a, a, a, a) for a in range(colors))
    specs = (
        dict(
            scope=(f"s{r1}_{c1}", f"s{r1}_{c2}", f"s{r2}_{c1}", f"s{r2}_{c2}"),
            kind="forbidden",
            tuples=same,
        )
        for r1, r2 in combinations(range(rows), 2)
        for c1, c2 in combinations(range(cols), 2)
    )
    return _problem(f"cc-{rows}-{cols}-{colors}", variables, colors, specs)


_FAMILIES = {
    "modeld": (gen_model_d, ("n", "d", "e", "t", "seed")),
    "modelrb": (gen_model_rb, ("n", "d", "e", "t", "seed")),
    "langford": (gen_langford, ("k", "n")),
    "queens": (gen_queens, ("n",)),
    "chessboard": (gen_chessboard, ("rows", "cols", "colors")),
}


def parse_spec(text: str) -> Problem:
    """Build an instance from a spec string like "modelD:n=8,d=4,e=12,t=0.3,seed=1"."""
    family, sep, args = text.partition(":")
    key = family.lower()
    if not sep or key not in _FAMILIES:
        raise ValueError(f"unknown generator spec {text!r}")
    fn, param_names = _FAMILIES[key]
    params: dict[str, float | int] = {}
    for piece in filter(None, args.split(",")):
        name, eq, raw = piece.partition("=")
        name = name.strip()
        if not eq or name not in param_names:
            raise ValueError(f"bad generator parameter {piece!r} in {text!r}")
        if name in params:
            raise ValueError(f"repeated generator parameter {name!r} in {text!r}")
        raw = raw.strip()
        try:
            params[name] = float(raw) if name == "t" else int(raw)
        except ValueError:
            raise ValueError(
                f"bad value {raw!r} for generator parameter {name!r} in {text!r}"
            ) from None
    if "seed" in param_names:
        params.setdefault("seed", 0)
    missing = [p for p in param_names if p not in params]
    if missing:
        raise ValueError(f"generator spec {text!r} missing {missing}")
    return fn(**params)


def is_spec(text: str) -> bool:
    """True when text looks like a generator spec rather than a file path."""
    family = text.partition(":")[0].lower()
    return family in _FAMILIES and ":" in text
