"""Command line entry points.

Subcommands: solve one instance, run a benchmark sweep from a JSON spec,
report node-count variance from a results CSV. Exit codes from solve:
0 satisfiable, 1 unsatisfiable, 2 timeout, 3 any error, internal ones
included.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback

from .harness import (
    REPORT_KEY,
    ExperimentSpec,
    dependency_report,
    format_table,
    load_instance,
    read_csv,
    run_experiment,
    write_csv,
)
from .heuristics import parse_heuristic
from .propagation import SCHEMES
from .search import MODES, VALUE_ORDERS, SearchConfig, parse_restarts, solve


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which would collide with the
    # timeout exit code; remap usage errors to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="macsolver", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance")
    ps.add_argument("instance", help="instance file or generator spec (e.g. queens:n=8)")
    ps.add_argument("--var", default="dom/wdeg", help="variable heuristic")
    ps.add_argument("--scheme", default="variable", choices=SCHEMES)
    ps.add_argument("--rev", default="fifo", help="revision ordering policy")
    ps.add_argument("--restart", default="none", help="geo:B:F, arith:B:S, or none")
    ps.add_argument("--values", default="lex", choices=VALUE_ORDERS)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--timeout", type=float, default=3600.0, help="seconds")
    ps.add_argument("--mode", default="first", choices=MODES)

    pb = sub.add_parser("bench", help="run a benchmark sweep")
    pb.add_argument("spec", help="experiment spec JSON file")
    pb.add_argument("--out", required=True, help="output CSV path")
    pb.add_argument("--table", action="store_true", help="also print an aligned table")

    pr = sub.add_parser("report", help="reports over a results CSV")
    pr.add_argument("kind", choices=("variance",))
    pr.add_argument("results", help="results CSV path")
    return parser


def _cmd_solve(args) -> int:
    problem = load_instance(args.instance)
    cfg = SearchConfig(
        heuristic=parse_heuristic(args.var),
        scheme=args.scheme,
        policy=args.rev,
        restarts=parse_restarts(args.restart),
        value_order=args.values,
        seed=args.seed,
        mode=args.mode,
        timeout=args.timeout,
    )
    outcome = solve(problem, cfg)
    s = outcome.stats
    print(f"instance: {problem.name}")
    print(f"result: {outcome.result}")
    if args.mode == "count":
        print(f"solutions: {outcome.count}")
    elif args.mode == "first" and outcome.solution is not None:
        listing = " ".join(f"{x}={outcome.solution[x]}" for x in problem.variables)
        print(f"solution: {listing}")
    print(
        f"nodes: {s.nodes}  checks: {s.checks}  revisions: {s.revisions}  "
        f"dwos: {s.dwos}  restarts: {s.restarts}  time_ms: {s.time_ms:.1f}"
    )
    return {"sat": 0, "unsat": 1, "timeout": 2}[outcome.result]


def _cmd_bench(args) -> int:
    with open(args.spec) as fh:
        spec = ExperimentSpec.from_json(fh.read())
    rows = run_experiment(spec)
    write_csv(rows, args.out)
    print(f"{len(rows)} rows written to {args.out}")
    if args.table:
        print(format_table(rows))
    return 0


def _cmd_report(args) -> int:
    rows = read_csv(args.results)
    print(",".join(REPORT_KEY + ("node_variance",)))
    for *key, var in dependency_report(rows):
        print(",".join(key) + f",{var:.6g}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_report(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # a crash must never read as an answer (exit 1)
        traceback.print_exc()
        print(f"error: internal {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
