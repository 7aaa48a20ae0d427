"""Benchmark harness: configuration sweeps, CSV results, variance reports."""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import statistics
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path

from . import instances, model
from .heuristics import parse_heuristic
from .propagation import POLICIES_BY_SCHEME
from .search import SearchConfig, parse_restarts, solve

log = logging.getLogger(__name__)


def _count(text: str) -> int | float:
    """A measured column: an int, or a float such as a seed group's mean."""
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise ValueError(f"{text!r} is negative or not finite")
    return value


def _result(text: str) -> str:
    # a run is sat, unsat or timeout; a seed group whose runs disagree is mixed
    if text not in ("sat", "unsat", "timeout", "mixed"):
        raise ValueError(f"{text!r} is not sat, unsat, timeout or mixed")
    return text


# CSV column -> the parser of its text, in column order
_PARSERS = {
    "instance": str,
    "scheme": str,
    "var_heur": str,
    "rev_heur": str,
    "restart": str,
    "value_order": str,
    "seed": lambda text: text if text == "avg" else int(text),
    "result": _result,
    "time_ms": lambda text: float(_count(text)),
    "nodes": _count,
    "checks": _count,
    "revisions": _count,
    "dwos": _count,
}

COLUMNS = tuple(_PARSERS)

# the columns a run's SearchStats fills in; a seed group's row averages them
_MEASURED = ("time_ms", "nodes", "checks", "revisions", "dwos")

# revision policies whose node counts feed the ordering-dependence report
DEPENDENCY_POLICIES = ("fifo", "dom", "v_dom/wdeg")
# the report's group key: every configuration column except the revision
# policy, which varies inside a group, and the seed, averaged over
REPORT_KEY = ("instance", "scheme", "var_heur", "restart", "value_order")


@dataclass
class ResultRow:
    """One benchmark measurement; field order matches the CSV columns."""

    instance: str
    scheme: str
    var_heur: str
    rev_heur: str
    restart: str
    value_order: str
    seed: int | str
    result: str
    time_ms: float
    nodes: int | float
    checks: int | float
    revisions: int | float
    dwos: int | float

    def to_list(self) -> list:
        return [getattr(self, col) for col in COLUMNS]


@dataclass
class ExperimentSpec:
    """A sweep: instance sources crossed with configuration lists."""

    instances: tuple[str, ...]
    var_heurs: tuple[str, ...]
    schemes: tuple[str, ...] = ("variable",)
    rev_policies: tuple[str, ...] = ("fifo",)
    restarts: tuple[str, ...] = ("none",)
    value_orders: tuple[str, ...] = ("lex",)
    seeds: tuple[int, ...] = (0,)
    timeout: float = 3600.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "timeout":
                continue
            values = getattr(self, f.name)
            if not values:
                raise ValueError(f"experiment field {f.name!r} must not be empty")
            if len(set(values)) < len(values):
                repeated = next(v for v in values if values.count(v) > 1)
                raise ValueError(f"repeated entry {repeated!r} in experiment field {f.name!r}")
        for scheme in self.schemes:
            if scheme not in POLICIES_BY_SCHEME:
                raise ValueError(f"unknown propagation scheme {scheme!r}")
        for rev in self.rev_policies:
            if not any(rev in POLICIES_BY_SCHEME[s] for s in self.schemes):
                raise ValueError(f"revision policy {rev!r} fits none of the schemes")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON object; every list field holds strings, seeds ints."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("experiment spec must be a JSON object")
        extra = set(doc) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown experiment field(s) {sorted(extra)}")
        kwargs = {}
        for name, value in doc.items():
            if name == "timeout":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError("experiment field 'timeout' must be a number")
                if not value > 0:
                    raise ValueError("experiment field 'timeout' must be positive")
                kwargs[name] = value
                continue
            kind = int if name == "seeds" else str
            # type() rather than isinstance(): a JSON true is no seed
            if not isinstance(value, list) or any(type(v) is not kind for v in value):
                raise ValueError(
                    f"experiment field {name!r} must be a list of {kind.__name__}"
                )
            kwargs[name] = tuple(value)
        return cls(**kwargs)


def load_instance(source: str) -> model.Problem:
    """Resolve an instance source: generator spec string or file path."""
    if instances.is_spec(source):
        return instances.parse_spec(source)
    return model.load_problem(Path(source).read_text())


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run the full cross product and return rows in deterministic order.

    Every configuration is built and every instance loaded before the first
    run, so a bad heuristic or restart name or an unreadable instance fails
    the sweep before anything is solved. Scheme/policy
    pairs that do not fit are skipped with a warning. Random value-order
    configs get one row per seed plus an averaged row. A seed changes a run
    only through random value order or +probe, so a config with neither is
    solved once and that outcome fills every seed's row.
    """
    for scheme, rev in product(spec.schemes, spec.rev_policies):
        if rev not in POLICIES_BY_SCHEME[scheme]:
            log.warning("skipping %s with scheme %s (policy does not fit)", rev, scheme)
    heuristic_of = {name: parse_heuristic(name) for name in spec.var_heurs}
    # (var_heur, restart, one SearchConfig per seed), in row order
    plan = []
    for scheme, var_heur, rev, restart, value_order in product(
        spec.schemes, spec.var_heurs, spec.rev_policies, spec.restarts, spec.value_orders,
    ):
        if rev in POLICIES_BY_SCHEME[scheme]:
            base = SearchConfig(
                heuristic=heuristic_of[var_heur], scheme=scheme, policy=rev,
                restarts=parse_restarts(restart), value_order=value_order,
                mode="decide", timeout=spec.timeout,
            )
            plan.append((var_heur, restart, [replace(base, seed=seed) for seed in spec.seeds]))
    problems = [load_instance(source) for source in spec.instances]
    rows: list[ResultRow] = []
    for problem in problems:
        for var_heur, restart, cfgs in plan:
            seeded = cfgs[0].value_order == "rand" or cfgs[0].heuristic.probing is not None
            group = []
            outcome = None
            for cfg in cfgs:
                if outcome is None or seeded:
                    outcome = solve(problem, cfg)
                group.append(ResultRow(
                    problem.name, cfg.scheme, var_heur, cfg.policy, restart,
                    cfg.value_order, cfg.seed, outcome.result,
                    **{col: getattr(outcome.stats, col) for col in _MEASURED},
                ))
            rows.extend(group)
            if cfgs[0].value_order == "rand" and len(group) > 1:
                rows.append(_averaged(group))
    return rows


def _averaged(group: list[ResultRow]) -> ResultRow:
    """Arithmetic mean of a per-seed group, reported with seed='avg'."""
    results = {r.result for r in group}
    return replace(
        group[0],
        seed="avg",
        result=results.pop() if len(results) == 1 else "mixed",
        **{
            col: sum(getattr(r, col) for r in group) / len(group)
            for col in _MEASURED
        },
    )


def write_csv(rows: list[ResultRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(rows))


def csv_text(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(COLUMNS)
    writer.writerows(row.to_list() for row in rows)
    return buf.getvalue()


def read_csv(path: str | Path) -> list[ResultRow]:
    """Parse rows back from a CSV file produced by write_csv."""
    return read_csv_text(Path(path).read_text())


def read_csv_text(text: str) -> list[ResultRow]:
    """Parse rows back from CSV text produced by csv_text/write_csv.

    Raises ValueError on an empty text, a foreign header, a row whose field
    count differs from the header's, or a value its column's parser rejects:
    a seed neither an int nor "avg", an unknown result, or a negative or
    non-finite time or counter. A row's error names its line and column.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty results CSV: no header line")
    if tuple(header) != COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for rec in filter(None, reader):  # blank lines carry no row
        if len(rec) != len(COLUMNS):
            raise ValueError(
                f"CSV line {reader.line_num}: {len(rec)} fields, expected {len(COLUMNS)}"
            )
        values = {}
        for col, raw in zip(COLUMNS, rec):
            try:
                values[col] = _PARSERS[col](raw)
            except ValueError as err:
                where = f"CSV line {reader.line_num}, column {col}"
                raise ValueError(f"{where}: {err}") from None
        rows.append(ResultRow(**values))
    return rows


def format_table(rows: list[ResultRow]) -> str:
    """Human-readable aligned table of result rows."""
    cells = [list(map(str, COLUMNS))]
    for row in rows:
        cells.append(
            [
                f"{v:.1f}" if isinstance(v, float) else str(v)
                for v in row.to_list()
            ]
        )
    widths = [max(len(line[i]) for line in cells) for i in range(len(COLUMNS))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in cells
    ]
    return "\n".join(lines)


def variance(values: list) -> float:
    """Population variance (mean squared deviation from the mean)."""
    if not values:
        raise ValueError("variance of an empty list")
    return statistics.pvariance(values)


def dependency_report(rows: list[ResultRow]) -> list[tuple]:
    """Node-count variance per group of rows that differ only in policy and seed.

    A group is one value of the REPORT_KEY columns. For each group, takes one
    node count per revision policy in DEPENDENCY_POLICIES (the per-policy
    mean when several seeds are present) and reports the population variance
    across the three, as the group's REPORT_KEY values followed by the
    variance. Groups missing a policy are skipped with a warning.
    """
    by_group: dict[tuple, dict[str, list[float]]] = {}
    for row in rows:
        if row.seed == "avg" or row.rev_heur not in DEPENDENCY_POLICIES:
            continue
        cell = by_group.setdefault(tuple(getattr(row, col) for col in REPORT_KEY), {})
        cell.setdefault(row.rev_heur, []).append(float(row.nodes))
    report = []
    for key, cell in by_group.items():
        missing = [p for p in DEPENDENCY_POLICIES if p not in cell]
        if missing:
            log.warning(
                "dependency report: %s missing %s, skipped",
                " / ".join(key),
                ", ".join(missing),
            )
            continue
        points = [statistics.fmean(cell[p]) for p in DEPENDENCY_POLICIES]
        report.append((*key, variance(points)))
    return report
