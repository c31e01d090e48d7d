"""The seeded workloads: how each instance follows from the seed, which
solves run on it, and how one solve is timed.

Instance ``k`` of a workload run with seed ``s`` takes its generator seed
from ``random.Random(f"{workload}/{s}/{k}")``.  Its other ``GeneratorParams``
fields depend on ``k`` alone and rotate, so every run covers the same mix
of shapes and only the random content differs between seeds.  The recipe
per workload is written out in README.md next to this file.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

ALL_METHODS = ("oracle", "reduced", "reduced-tight", "revised", "colgen", "colgen-lazy")
ROOT_LP_MODELS = ("revised", "reduced-tight")
DENSITIES = (0.35, 0.43, 0.51, 0.59, 0.67)
REEFER_SHARES = (0.0, 0.25, 0.5, 0.75)


@dataclass(frozen=True)
class Workload:
    name: str
    # instances generated during set-up; a timed window that gets through
    # all of them starts over at the first
    schedule: int
    # per-solve time limit passed to run_method, or per-LP deadline
    limit_s: float
    # the traced run makes and solves the first ceil(seconds * rate) instances
    trace_rate: float
    params: Callable[[object, int, int], object]
    methods: Callable[[object], tuple[str, ...]]
    root_lp: bool = False


def _seed(workload: str, seed: int, k: int) -> int:
    return random.Random(f"{workload}/{seed}/{k}").randrange(2**31)


def _capacity(tight: bool) -> dict:
    if tight:
        return {"capacity_dc_range": (25, 60), "amount_range": (10, 45)}
    return {"capacity_dc_range": (60, 160), "amount_range": (5, 60)}


def _suite_small(io, seed: int, k: int):
    """Acceptance-suite shapes: 1-3 ships, 6-12 visits, 0-12 demands."""
    ships = 1 + k % 3
    tight = (k // 3) % 2 == 1
    mixed = ships > 1 and (k // 6) % 2 == 1
    return io.GeneratorParams(
        ships=ships,
        ship_types=2 if mixed else 1,
        visits=6 + (k * 3) % 7,
        demands=(k * 5) % 13,
        arc_density=DENSITIES[k % 5],
        reefer_fraction=REEFER_SHARES[k % 4],
        seed=_seed("suite-small", seed, k),
        **_capacity(tight),
    )


def _cg_medium(io, seed: int, k: int):
    """3 ships, 12-15 visits, 8-14 demands; kinds rotate with k % 4:
    single/loose, mixed/tight, single/tight with empty points, mixed/loose."""
    kind = k % 4
    return io.GeneratorParams(
        ships=3,
        ship_types=2 if kind in (1, 3) else 1,
        visits=12 + (k // 4) % 4,
        demands=8 + (k * 5) % 7,
        arc_density=0.35,
        reefer_fraction=0.25,
        empty_points=4 if kind == 2 else 0,
        seed=_seed("cg-medium", seed, k),
        **_capacity(kind in (1, 2)),
    )


def _root_lp(io, seed: int, k: int):
    """3 ships, 16-20 visits, 12-18 demands, one ship type."""
    return io.GeneratorParams(
        ships=3,
        visits=16 + (k * 3) % 5,
        demands=12 + (k * 5) % 7,
        arc_density=0.35,
        reefer_fraction=0.25,
        seed=_seed("root-lp", seed, k),
        **_capacity(False),
    )


def _cg_methods(instance) -> tuple[str, ...]:
    # arc-flow pricing does not model empty equipment
    return ("colgen-lazy",) if instance.empty_points else ("colgen", "colgen-lazy")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite-small", 560, 10.0, 4.5, _suite_small, lambda ins: ALL_METHODS),
        Workload("cg-medium", 300, 20.0, 3.0, _cg_medium, _cg_methods),
        Workload("root-lp", 200, 3.0, 1.8, _root_lp, lambda ins: ROOT_LP_MODELS, root_lp=True),
    )
}


@dataclass
class Case:
    """One generated instance, after its JSON round trip."""

    index: int
    params: object
    instance: object
    methods: tuple[str, ...]

    def shape(self) -> dict:
        ins = self.instance
        return {"S": len(ins.ships), "V": len(ins.visits), "A": len(ins.arcs),
                "M": len(ins.demands), "E": len(ins.empty_points)}


def make_case(lsfrp, workload: Workload, seed: int, k: int) -> Case:
    """Generate instance ``k``, serialize it and parse it back."""
    io = lsfrp.io
    params = workload.params(io, seed, k)
    instance = io.parse_instance(io.write_instance(io.generate_random(params)))
    return Case(k, params, instance, workload.methods(instance))


def make_cases(lsfrp, workload: Workload, seed: int, count: int) -> list[Case]:
    return [make_case(lsfrp, workload, seed, k) for k in range(count)]


@dataclass
class Result:
    case: int
    method: str
    status: str
    objective: float | None
    seconds: float
    bnb_nodes: int = 0
    ok: bool = False  # optimal and matching the reference; set after the window


def build_root_model(lsfrp, instance, method: str):
    if method == "revised":
        return lsfrp.formulations.build_revised(instance)[0]
    return lsfrp.formulations.build_reduced(instance, tighten=True)[0]


def solve(lsfrp, workload: Workload, case: Case, method: str) -> Result:
    """Time one solve through the public entry points.  Every name is
    looked up at call time, so tracer wrappers see the call."""
    t0 = time.perf_counter()
    try:
        if workload.root_lp:
            model = build_root_model(lsfrp, case.instance, method)
            sol = lsfrp.lp.solve_lp(model, deadline=time.monotonic() + workload.limit_s)
            seconds = time.perf_counter() - t0
            obj = sol.objective if sol.status == "optimal" else None
            return Result(case.index, method, sol.status, obj, seconds)
        sol = lsfrp.cli.run_method(case.instance, method, time_limit=workload.limit_s)
        lsfrp.io.write_solution(sol)
        seconds = time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed solve, not a benchmark error
        return Result(case.index, method, f"error:{type(exc).__name__}", None,
                      time.perf_counter() - t0)
    return Result(case.index, method, sol.status, sol.objective, seconds,
                  sol.diagnostics.bnb_nodes)
