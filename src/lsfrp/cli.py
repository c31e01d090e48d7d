"""Command-line interface: solve one instance, compare methods, generate
random instances.

Exit codes: 0 proven optimum, 1 compare mismatch, 2 time limit hit with an
incumbent, 3 infeasible / no disjoint routing / oracle refusal, 64 usage or
input errors.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import sys
import time
from dataclasses import dataclass, fields

from .colgen import run_column_generation
from .formulations import UnsupportedInstanceError, solve_arcflow
from .instance import Instance
from .io import (
    GeneratorParams,
    ParseError,
    generate_random,
    parse_instance,
    write_instance,
    write_solution,
)
from .lazy import run_colgen_lazy
from .lp import NumericalBreakdownError
from .oracle import OracleBudgetError, brute_force_solve
from .solution import BREAKDOWN, OPTIMAL, REFUSED, TIME_LIMIT, Solution

METHODS = ("reduced", "reduced-tight", "revised", "colgen", "colgen-lazy", "oracle")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_TIME_LIMIT = 2
EXIT_NO_SOLUTION = 3
EXIT_USAGE = 64

MISMATCH_TOL = 1e-6


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def run_method(
    instance: Instance,
    method: str,
    time_limit: float | None = None,
    oracle_budget: int = 10**6,
    log=None,
) -> Solution:
    """Dispatch one solve; statuses are normalized into the Solution."""
    try:
        if method == "oracle":
            try:
                return brute_force_solve(instance, budget=oracle_budget)
            except OracleBudgetError as exc:
                sol = Solution(method="oracle", status=REFUSED)
                sol.meta["refusal"] = str(exc)
                return sol
        if method in ("reduced", "reduced-tight", "revised"):
            return solve_arcflow(instance, method, time_limit=time_limit)
        if method == "colgen":
            return run_column_generation(instance, time_limit, log)
        if method == "colgen-lazy":
            return run_colgen_lazy(instance, time_limit, log)
    except NumericalBreakdownError as exc:
        sol = Solution(method=method, status=BREAKDOWN)
        sol.meta["refusal"] = f"numerical breakdown in the embedded solver: {exc}"
        return sol
    raise _CliError(f"unknown method {method!r}")


def _exit_code_for(solution: Solution) -> int:
    if solution.status == OPTIMAL:
        return EXIT_OK
    if solution.status == TIME_LIMIT and solution.objective is not None:
        return EXIT_TIME_LIMIT  # incumbent available
    return EXIT_NO_SOLUTION


def _load_instance(path: str, empty_revenue: int | None) -> Instance:
    try:
        with open(path, "rb") as fh:
            instance = parse_instance(fh.read())
    except OSError as exc:
        raise _CliError(f"cannot read instance: {exc}")
    except ParseError as exc:
        raise _CliError(f"bad instance file: {exc}")
    if empty_revenue is not None:
        instance = instance.with_empty_revenue({"dc": empty_revenue, "rf": empty_revenue})
    return instance


def _emit(data: bytes, path: str | None) -> None:
    """Write data to the file at path, or to stdout without one; a file
    that cannot be written is a usage error naming it."""
    if not path:
        sys.stdout.write(data.decode("utf-8"))
        return
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}")


# -- solve -------------------------------------------------------------------------


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance, args.empty_revenue)
    log = (lambda line: print(line, file=sys.stderr)) if args.verbose else None
    try:
        sol = run_method(instance, args.method, args.time_limit, args.oracle_budget, log)
    except UnsupportedInstanceError as exc:
        raise _CliError(str(exc))
    sol.meta.update(
        {
            "instance": args.instance,
            "flags": {
                "method": args.method,
                "empty_revenue": args.empty_revenue,
                "time_limit": args.time_limit,
                "seed": args.seed,
            },
        }
    )
    _emit(write_solution(sol), args.out)
    if sol.status == OPTIMAL:
        print(f"{args.method}: objective {sol.objective:.6g} (optimal)", file=sys.stderr)
    else:
        detail = sol.meta.get("refusal", sol.status)
        print(f"{args.method}: {detail}", file=sys.stderr)
    return _exit_code_for(sol)


# -- compare ------------------------------------------------------------------------


@dataclass
class ReportRow:
    label: str
    method: str
    status: str
    objective: float | None
    wall_time_sec: float
    columns: int
    bnb_nodes: int
    cuts_dc: int
    cuts_rf: int
    rows: int
    cols: int
    nonzeros: int
    mismatch: bool = False


CSV_COLUMNS = [f.name for f in fields(ReportRow)]


def _report_row(label: str, method: str, sol: Solution, elapsed: float) -> ReportRow:
    d = sol.diagnostics
    return ReportRow(
        label=label,
        method=method,
        status=sol.status,
        objective=sol.objective,
        wall_time_sec=round(elapsed, 4),
        columns=d.columns_generated,
        bnb_nodes=d.bnb_nodes,
        cuts_dc=d.total_cuts_dc,
        cuts_rf=d.total_cuts_rf,
        rows=d.model_rows,
        cols=d.model_cols,
        nonzeros=d.model_nonzeros,
    )


def _render_text(rows: list[ReportRow]) -> str:
    headers = ["method", "status", "objective", "time(s)", "cols", "nodes",
               "cuts_dc", "cuts_rf", "rows", "vars", "nnz", ""]
    table = []
    for r in rows:
        table.append([
            r.label, r.status,
            "-" if r.objective is None else f"{r.objective:.4f}",
            f"{r.wall_time_sec:.3f}", str(r.columns), str(r.bnb_nodes),
            str(r.cuts_dc), str(r.cuts_rf), str(r.rows), str(r.cols),
            str(r.nonzeros), "MISMATCH" if r.mismatch else "",
        ])
    widths = [max(len(headers[c]), *(len(t[c]) for t in table)) if table else len(headers[c])
              for c in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for t in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(t, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(rows: list[ReportRow]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.label, r.method, r.status,
            "" if r.objective is None else f"{r.objective:.9g}",
            f"{r.wall_time_sec:.4f}", r.columns, r.bnb_nodes, r.cuts_dc,
            r.cuts_rf, r.rows, r.cols, r.nonzeros, int(r.mismatch),
        ])
    return buf.getvalue()


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise _CliError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    if args.oracle and "oracle" not in methods:
        methods.append("oracle")
    if not methods:
        raise _CliError("no methods given")
    revenues = args.empty_revenue if args.empty_revenue else [None]

    rows: list[ReportRow] = []
    mismatch = False
    for rev in revenues:
        instance = _load_instance(args.instance, rev)
        group: list[ReportRow] = []
        for m in methods:
            label = m if rev is None else f"{m}@rev={rev:g}"
            t0 = time.monotonic()
            try:
                sol = run_method(instance, m, args.time_limit, args.oracle_budget)
            except UnsupportedInstanceError as exc:
                raise _CliError(f"{m}: {exc}")
            group.append(_report_row(label, m, sol, time.monotonic() - t0))
        solved = [r for r in group if r.status == OPTIMAL and r.objective is not None]
        if len(solved) > 1:
            ref = solved[0].objective
            for r in solved[1:]:
                if abs(r.objective - ref) > MISMATCH_TOL * (1 + abs(ref)):
                    r.mismatch = True
                    mismatch = True
        rows.extend(group)

    text = _render_text(rows)
    sys.stdout.write(text)
    _emit(_render_csv(rows).encode("utf-8"), args.csv)
    if mismatch:
        print("objective MISMATCH across methods", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# -- generate -----------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(","))
    except ValueError:
        raise _CliError(f"expected 'low,high' range, got {text!r}")
    return lo, hi


def cmd_generate(args) -> int:
    params = GeneratorParams(
        ships=args.ships,
        ship_types=args.ship_types,
        visits=args.visits,
        arc_density=args.density,
        demands=args.demands,
        reefer_fraction=args.reefer_fraction,
        empty_points=args.empty_points,
        seed=args.seed,
        sail_cost_range=_parse_range(args.sail_cost_range),
        port_fee_range=_parse_range(args.port_fee_range),
        move_cost_range=_parse_range(args.move_cost_range),
        revenue_range=_parse_range(args.revenue_range),
        amount_range=_parse_range(args.amount_range),
        capacity_dc_range=_parse_range(args.capacity_range),
        empty_amount_range=_parse_range(args.empty_amount_range),
        empty_revenue=args.empty_revenue,
        dest_count_max=args.dest_count_max,
    )
    try:
        params.check()
        instance = generate_random(params)
    except ValueError as exc:
        raise _CliError(f"infeasible generator parameters: {exc}")
    _emit(write_instance(instance), args.out)
    print(
        f"|S|={len(instance.ships)} |V|={len(instance.visits)} "
        f"|A|={len(instance.arcs)} |M|={len(instance.demands)} "
        f"seed={params.seed}",
        file=sys.stderr,
    )
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def _at_least_zero(kind):
    """argparse type for a limit or money flag: a kind that is at least 0
    (not nan)."""

    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"{text!r} is not a number >= 0")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <name> value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsfrp",
        description="Exact solvers for liner ship fleet repositioning with cargo flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance with one method")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--method", required=True, choices=METHODS)
    p_solve.add_argument("--empty-revenue", type=_at_least_zero(int), default=None,
                         help="override empty-equipment revenue (cents per TEU, both types)")
    p_solve.add_argument("--time-limit", type=_at_least_zero(float), default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--seed", type=int, default=0, help="echoed into solution metadata")
    p_solve.add_argument("--oracle-budget", type=_at_least_zero(int), default=10**6)
    p_solve.add_argument("--verbose", action="store_true",
                         help="print column-generation progress lines to stderr")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="run several methods and report a table")
    p_cmp.add_argument("--instance", required=True)
    p_cmp.add_argument("--methods", default="reduced,reduced-tight,revised,colgen,colgen-lazy")
    p_cmp.add_argument("--oracle", action="store_true", help="include the brute-force oracle")
    p_cmp.add_argument("--empty-revenue", type=_at_least_zero(int), action="append", default=None,
                       help="repeat to get a with/without empty-cargo pair")
    p_cmp.add_argument("--time-limit", type=_at_least_zero(float), default=None)
    p_cmp.add_argument("--csv", default=None, help="write the CSV report here")
    p_cmp.add_argument("--oracle-budget", type=_at_least_zero(int), default=10**6)
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("generate", help="generate a random instance")
    p_gen.add_argument("--ships", type=int, default=3)
    p_gen.add_argument("--ship-types", type=int, default=1, choices=(1, 2))
    p_gen.add_argument("--visits", type=int, default=12)
    p_gen.add_argument("--demands", type=int, default=8)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--reefer-fraction", type=float, default=0.25)
    p_gen.add_argument("--empty-points", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--sail-cost-range", default="5,40")
    p_gen.add_argument("--port-fee-range", default="0,10")
    p_gen.add_argument("--move-cost-range", default="1,8")
    p_gen.add_argument("--revenue-range", default="20,90")
    p_gen.add_argument("--amount-range", default="5,60")
    p_gen.add_argument("--capacity-range", default="60,160")
    p_gen.add_argument("--empty-amount-range", default="5,40")
    p_gen.add_argument("--empty-revenue", type=int, default=150)
    p_gen.add_argument("--dest-count-max", type=int, default=3)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
