"""Command-line interface: solve one instance, compare methods, generate
random instances.

Exit codes: 0 proven optimum, 1 compare mismatch, 2 time limit hit with an
incumbent, 3 every other status (no disjoint routing, a time limit without
an incumbent, an oracle refusal, a numerical breakdown), 64 usage or input
errors.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import math
import sys
import time
from dataclasses import fields

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
from .oracle import DEFAULT_BUDGET, OracleBudgetError, brute_force_solve
from .solution import BREAKDOWN, NO_DISJOINT_ROUTING, OPTIMAL, REFUSED, TIME_LIMIT, Diagnostics, Solution

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
    oracle_budget: int = DEFAULT_BUDGET,
    log=None,
) -> Solution:
    """Dispatch one solve; an oracle refusal or a numerical breakdown
    becomes the Solution's status, and its diagnostics.wall_time_sec is the
    time of this call."""
    t0 = time.monotonic()
    try:
        if method == "oracle":
            try:
                sol = brute_force_solve(instance, budget=oracle_budget)
            except OracleBudgetError as exc:
                sol = Solution(method="oracle", status=REFUSED)
                sol.meta["refusal"] = str(exc)
        elif method in ("reduced", "reduced-tight", "revised"):
            sol = solve_arcflow(instance, method, time_limit=time_limit)
        elif method == "colgen":
            sol = run_column_generation(instance, time_limit, log)
        elif method == "colgen-lazy":
            sol = run_colgen_lazy(instance, time_limit, log)
        else:
            raise _CliError(f"unknown method {method!r}")
    except NumericalBreakdownError as exc:
        sol = Solution(method=method, status=BREAKDOWN)
        sol.meta["refusal"] = f"numerical breakdown in the embedded solver: {exc}"
    sol.diagnostics.wall_time_sec = time.monotonic() - t0
    return sol


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


DIAGNOSTICS = [f.name for f in fields(Diagnostics)]
CSV_COLUMNS = ["label", "method", "status", "objective", *DIAGNOSTICS, "mismatch"]


def _cells(label: str, method: str, sol: Solution) -> list[str]:
    """A compare row but its mismatch cell: the run, then every Diagnostics
    field in declaration order, a per-ship count as its total."""
    cells = [label, method, sol.status, "" if sol.objective is None else f"{sol.objective:.9g}"]
    for name in DIAGNOSTICS:
        value = getattr(sol.diagnostics, name)
        if isinstance(value, dict):
            value = sum(value.values())
        cells.append(f"{value:.4f}" if isinstance(value, float) else str(value))
    return cells


def _render_text(rows: list[tuple[list[str], bool]]) -> str:
    table = [CSV_COLUMNS] + [cells + ["MISMATCH" if bad else ""] for cells, bad in rows]
    widths = [max(len(t[c]) for t in table) for c in range(len(CSV_COLUMNS))]
    return "".join("  ".join(v.ljust(w) for v, w in zip(t, widths)).rstrip() + "\n" for t in table)


def _render_csv(rows: list[tuple[list[str], bool]]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(cells + [int(bad)] for cells, bad in rows)
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

    rows: list[tuple[list[str], bool]] = []  # (cells, mismatch)
    for rev in revenues:
        instance = _load_instance(args.instance, rev)
        ref = None  # the answer of the group's first run with one
        for m in methods:
            label = m if rev is None else f"{m}@rev={rev:g}"
            try:
                sol = run_method(instance, m, args.time_limit, args.oracle_budget)
            except UnsupportedInstanceError as exc:
                raise _CliError(f"{m}: {exc}")
            # the run's answer, if it has one: its optimum, or that no disjoint routing exists
            answer = {OPTIMAL: sol.objective, NO_DISJOINT_ROUTING: NO_DISJOINT_ROUTING}.get(sol.status)
            bad = False
            if ref is None:
                ref = answer
            elif answer is not None and NO_DISJOINT_ROUTING in (ref, answer):
                bad = ref != answer
            elif answer is not None:
                bad = abs(answer - ref) > MISMATCH_TOL * (1 + abs(ref))
            rows.append((_cells(label, m, sol), bad))

    sys.stdout.write(_render_text(rows))
    _emit(_render_csv(rows).encode("utf-8"), args.csv)
    if any(bad for _, bad in rows):
        print("answer MISMATCH across methods", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# -- generate -----------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'low,high' range, got {text!r}")
    return lo, hi


def cmd_generate(args) -> int:
    params = GeneratorParams(**{f.name: getattr(args, f.name) for f in fields(GeneratorParams)})
    try:
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
    """argparse type for a limit or money flag: a kind that is finite and
    at least 0."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= 0):
            raise argparse.ArgumentTypeError(f"{text!r} is not a number >= 0")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <name> value" message
    return parse


# generate takes one flag per GeneratorParams field, named after it but for these
_GENERATE_FLAGS = {"arc_density": "density", "capacity_dc_range": "capacity_range"}


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
    p_solve.add_argument("--oracle-budget", type=_at_least_zero(int), default=DEFAULT_BUDGET)
    p_solve.add_argument("--verbose", action="store_true",
                         help="print column-generation progress lines to stderr")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="run several methods and report a table")
    p_cmp.add_argument("--instance", required=True)
    p_cmp.add_argument("--methods", default=",".join(m for m in METHODS if m != "oracle"))
    p_cmp.add_argument("--oracle", action="store_true", help="include the brute-force oracle")
    p_cmp.add_argument("--empty-revenue", type=_at_least_zero(int), action="append", default=None,
                       help="repeat to get a with/without empty-cargo pair")
    p_cmp.add_argument("--time-limit", type=_at_least_zero(float), default=None)
    p_cmp.add_argument("--csv", default=None, help="write the CSV report here")
    p_cmp.add_argument("--oracle-budget", type=_at_least_zero(int), default=DEFAULT_BUDGET)
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser(
        "generate", help="generate a random instance",
        description="One flag per field of lsfrp.io.GeneratorParams; ranges are 'low,high'.",
    )
    for f in fields(GeneratorParams):
        flag = "--" + _GENERATE_FLAGS.get(f.name, f.name).replace("_", "-")
        kind = _parse_range if isinstance(f.default, tuple) else type(f.default)
        p_gen.add_argument(flag, dest=f.name, type=kind, default=f.default)
    p_gen.add_argument("--out", default=None)
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
