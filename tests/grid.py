"""Counter grid: the exact counters of every scheme x policy pair, pinned by digest.

Each row maps one configuration (family, scheme, policy, heuristic, mode) to
(result, count, nodes, checks, revisions, dwos, restarts, sorted weights,
sorted solution). The rows of one (family, mode) cell are hashed together, and
``grid_digests.json`` pins one SHA-256 per cell. A pure refactor leaves every
digest unchanged; a change that moves a counter is an algorithm change and
re-pins the digests in the same change.

    PYTHONPATH=src python3 tests/grid.py --check   # full grid against the pins
    PYTHONPATH=src python3 tests/grid.py --write   # re-pin (algorithm changes only)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from macsolver.heuristics import parse_heuristic
from macsolver.instances import parse_spec
from macsolver.propagation import POLICIES_BY_SCHEME
from macsolver.search import SearchConfig, parse_restarts, solve

DIGESTS = Path(__file__).with_name("grid_digests.json")

FAMILIES = {
    "queens": "queens:n=5",
    "langford": "langford:k=2,n=4",
    "modelD": "modelD:n=8,d=4,e=14,t=0.5,seed=3",
    "modelRB": "modelRB:n=8,d=4,e=14,t=0.5,seed=1",
    "chessboard": "chessboard:rows=3,cols=3,colors=2",
}
PAIRS = tuple(
    (scheme, policy)
    for scheme, policies in POLICIES_BY_SCHEME.items()
    for policy in policies
)
HEURISTICS = (
    "dom", "dom/wdeg", "alldel", "fully",
    "dom/wdeg+probe", "dom/wdeg+rsc", "dom+nodeimpact", "impact",
)
# mode -> (restarts, value order, seed)
MODES = {
    "first": ("none", "lex", 0),
    "count": ("none", "lex", 0),
    "decide": ("geo:3:1.5", "rand", 1),
}


def rows(family: str, mode: str) -> list[list]:
    """One row per scheme x policy x heuristic, in a fixed order."""
    problem = parse_spec(FAMILIES[family])
    restarts, value_order, seed = MODES[mode]
    out = []
    for scheme, policy in PAIRS:
        for heur in HEURISTICS:
            cfg = SearchConfig(
                heuristic=parse_heuristic(heur),
                scheme=scheme,
                policy=policy,
                restarts=parse_restarts(restarts),
                value_order=value_order,
                seed=seed,
                mode=mode,
                timeout=math.inf,
            )
            o = solve(problem, cfg)
            s = o.stats
            out.append([
                [family, scheme, policy, heur, mode],
                [o.result, o.count, s.nodes, s.checks, s.revisions, s.dwos, s.restarts],
                sorted(o.weights.snapshot().items()),
                sorted(o.solution.items()) if o.solution is not None else None,
            ])
    return out


def digest(family: str, mode: str) -> str:
    text = json.dumps(rows(family, mode), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", action="store_true", help="compare with the pins")
    group.add_argument("--write", action="store_true", help="re-pin every digest")
    args = ap.parse_args(argv)
    got = {f: {m: digest(f, m) for m in MODES} for f in FAMILIES}
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n")
        print(f"pinned {len(FAMILIES) * len(MODES)} digests in {DIGESTS.name}")
        return 0
    want = pinned()
    bad = [
        f"{f} {m}" for f in FAMILIES for m in MODES if got[f][m] != want[f][m]
    ]
    for cell in bad:
        print(f"grid drift: {cell}")
    n = len(FAMILIES) * len(MODES) * len(PAIRS) * len(HEURISTICS)
    print(f"{n} rows, {len(bad)} of {len(FAMILIES) * len(MODES)} digests differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
