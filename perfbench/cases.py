"""Workload definitions and the expected answer of every case.

Each expected answer comes from a source other than the solver:

- Langford existence rules: L(2,n) exists iff n = 0,3 (mod 4), and L(3,n)
  iff n = -1,0,1 (mod 9).
- Queens solution counts from OEIS A000170.
- Rectangle-free 2-colourings of a grid, counted below row by row over
  bitmasks, an algorithm that shares nothing with the solver.
- Planted model RB instances are satisfiable by construction.
- Model D verdicts are pinned in ``expected.json``; ``pin.py`` only pins a
  verdict that a second, different configuration agrees with.
"""

from __future__ import annotations

from dataclasses import dataclass

QUEENS_A000170 = {
    1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92,
    9: 352, 10: 724, 11: 2680, 12: 14200, 13: 73712, 14: 365596,
}


@dataclass(frozen=True)
class Expect:
    """The answer a case must give: a verdict, a count in count mode, a source."""

    result: str
    count: int | None
    source: str


@dataclass(frozen=True)
class Case:
    """One solve: a generator spec plus a full search configuration."""

    spec: str
    var: str
    scheme: str
    policy: str
    mode: str = "decide"
    restarts: str = "none"
    values: str = "lex"
    seed: int = 0

    @property
    def label(self) -> str:
        text = f"{self.spec} {self.var} {self.scheme}/{self.policy} {self.mode}"
        if self.restarts != "none" or self.values != "lex":
            text += f" {self.restarts} {self.values}:{self.seed}"
        return text


def langford_exists(k: int, n: int) -> bool:
    if k == 2:
        return n % 4 in (0, 3)
    if k == 3:
        return n % 9 in (0, 1, 8)
    raise ValueError(f"no existence rule for L({k},{n})")


def rectangle_free_colourings(rows: int, cols: int) -> int:
    """Count 2-colourings of a rows x cols grid with no same-colour rectangle.

    A row is a bitmask of its colour-1 cells. Two rows clash when they share
    colour 1 in two columns or colour 0 in two columns.
    """
    full = (1 << cols) - 1

    def clash(a: int, b: int) -> bool:
        return bin(a & b).count("1") >= 2 or bin(~a & ~b & full).count("1") >= 2

    def extend(chosen: list[int]) -> int:
        if len(chosen) == rows:
            return 1
        return sum(
            extend(chosen + [m])
            for m in range(full + 1)
            if not any(clash(m, c) for c in chosen)
        )

    return extend([])


def spec_params(spec: str) -> tuple[str, dict[str, str]]:
    family, _, args = spec.partition(":")
    return family, dict(piece.split("=") for piece in args.split(","))


def expect(case: Case, pinned: dict) -> Expect | None:
    """The independent expectation for a case, or None when there is none."""
    family, p = spec_params(case.spec)
    count = None
    if family == "langford":
        sat = langford_exists(int(p["k"]), int(p["n"]))
        source = "Langford existence rule"
    elif family == "queens":
        count = QUEENS_A000170[int(p["n"])]
        sat = count > 0
        source = "OEIS A000170"
    elif family == "chessboard":
        if p["colors"] != "2":
            return None
        count = rectangle_free_colourings(int(p["rows"]), int(p["cols"]))
        sat = count > 0
        source = "row-bitmask count of rectangle-free 2-colourings"
    elif family == "modelRB":
        sat = True
        source = "planted solution"
    else:
        entry = pinned.get(case.label)
        if entry is None or "verdict" not in entry:
            return None
        return Expect(entry["verdict"], None, entry["verdict_source"])
    if case.mode != "count":
        count = None
    return Expect("sat" if sat else "unsat", count, source)


LANGFORD = ("langford:k=2,n=4", "langford:k=2,n=5", "langford:k=3,n=4", "langford:k=3,n=5")
WEIGHTED = (("arc", "a_dom/wdeg"), ("variable", "v_dom/wdeg"), ("constraint", "c_wcon"))
RANDOM_POINT = "n=20,d=8,e=110,t=0.3"
MODEL_D_SEEDS = range(6)
MODEL_RB_SEEDS = range(12)


def langford_weighted() -> list[Case]:
    """Weighted revision order of every scheme, and its fifo control.

    The constraint scheme has no fifo policy, so c_wcon has no control case.
    """
    cases = []
    for spec in LANGFORD:
        for scheme, policy in WEIGHTED:
            cases.append(Case(spec, "dom/wdeg", scheme, policy))
            if scheme != "constraint":
                cases.append(Case(spec, "dom/wdeg", scheme, "fifo"))
    return cases


def random_restarts() -> list[Case]:
    """One instance per instance seed; the value-order seed is the same seed."""
    cases = []
    for family, seeds in (("modelD", MODEL_D_SEEDS), ("modelRB", MODEL_RB_SEEDS)):
        for s in seeds:
            cases.append(
                Case(
                    f"{family}:{RANDOM_POINT},seed={s}", "dom/wdeg", "variable", "fifo",
                    restarts="geo:10:1.5", values="rand", seed=s,
                )
            )
    return cases


def count_nary() -> list[Case]:
    return [
        Case("queens:n=8", "dom", "arc", "fifo", mode="count"),
        Case("chessboard:rows=4,cols=5,colors=2", "impact", "variable", "fifo", mode="count"),
        Case("chessboard:rows=5,cols=5,colors=2", "dom/wdeg+rsc", "variable", "fifo"),
    ]


WORKLOADS = {
    "langford-weighted": langford_weighted,
    "random-restarts": random_restarts,
    "count-nary": count_nary,
}
