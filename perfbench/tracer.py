"""Spans and counts at the public boundaries of each lsfrp module.

The tracer patches every traced name where the program looks it up, keeps
the spans in memory while the traced pass runs, and puts the original
functions back afterwards.  Nothing inside ``src/`` is changed: all
wrappers live here and are installed only for the traced pass.

A span is ``[id, parent, solve, name, t0, t1, attrs]``.  Spans opened
while a benchmark solve is running share that solve's id; the benchmark
opens the root span of each solve itself through :meth:`Tracer.span`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

_ORIGINAL = "__perfbench_original__"

# statuses a solve_lp call may legitimately end in; anything else, or an
# exception, counts in lp.solve_lp.failed (infeasible B&B nodes are normal)
_LP_OK = ("optimal", "infeasible")


def _lp_attrs(result):
    return {"status": result.status, "pivots": result.iterations}


def _mip_attrs(result):
    return {"status": result.status, "nodes": result.nodes, "cuts": result.cuts_added}


def _build_attrs(result):
    model, _ = result
    return {"nnz": model.num_nonzeros}


def _count_attrs(result):
    return {"n": len(result)}


def _found_attrs(result):
    return {"n": int(result is not None)}


def trace_sites(lsfrp):
    """Every (owner, attribute, span name, result reader) the tracer patches.

    Names imported with ``from .x import f`` are patched in each importing
    module as well, so that calls made through either name are caught.
    """
    cli, colgen, formulations = lsfrp.cli, lsfrp.colgen, lsfrp.formulations
    instance, io, lazy, lp, oracle = lsfrp.instance, lsfrp.io, lsfrp.lazy, lsfrp.lp, lsfrp.oracle
    return [
        (lp, "solve_lp", "lp.solve_lp", _lp_attrs),
        (lp, "solve_mip", "lp.solve_mip", _mip_attrs),
        (formulations, "build_reduced", "formulations.build", _build_attrs),
        (formulations, "build_revised", "formulations.build", _build_attrs),
        (formulations, "solve_arcflow", "formulations.solve_arcflow", None),
        (cli, "solve_arcflow", "formulations.solve_arcflow", None),
        (instance, "build_reach_index", "instance.build_reach_index", None),
        (formulations, "build_reach_index", "instance.build_reach_index", None),
        (colgen, "build_reach_index", "instance.build_reach_index", None),
        (lazy, "build_reach_index", "instance.build_reach_index", None),
        (colgen, "solve_rmp", "colgen.solve_rmp", None),
        (colgen, "price_ship", "colgen.price_ship", _found_attrs),
        (colgen.ArcFlowPricing, "price", "colgen.ArcFlowPricing.price", None),
        (lazy.CompactPricing, "price", "lazy.CompactPricing.price", None),
        (lazy, "build_compact_pricing", "lazy.build_compact_pricing", None),
        (lazy, "separate_cuts", "lazy.separate_cuts", _count_attrs),
        (oracle, "brute_force_solve", "oracle.brute_force_solve", None),
        (cli, "brute_force_solve", "oracle.brute_force_solve", None),
        (io, "generate_random", "io.generate_random", None),
        (io, "parse_instance", "io.parse_instance", None),
        (io, "write_solution", "io.write_solution", None),
    ]


def installed_wrappers(lsfrp) -> list[str]:
    """Names of traced sites that currently hold a tracer wrapper."""
    out = []
    for owner, attr, _, _ in trace_sites(lsfrp):
        if hasattr(vars(owner).get(attr), _ORIGINAL):
            out.append(f"{owner.__name__}.{attr}")
    return out


class Tracer:
    def __init__(self, lsfrp):
        self.lsfrp = lsfrp
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        solve = parent[2] if parent is not None else None
        span = [len(self.spans), parent[0] if parent is not None else None, solve, name,
                time.perf_counter(), None, attrs or {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[3]} closed out of order")

    @contextmanager
    def span(self, name: str, solve: int | None = None, **attrs):
        """Open a span around benchmark code; a span given a solve id
        becomes the root that every span below it is charged to."""
        s = self._open(name, attrs)
        if solve is not None:
            s[2] = solve
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name: str, reader):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6]["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if reader is not None:
                span[6].update(reader(result))
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved or installed_wrappers(self.lsfrp):
            raise RuntimeError("tracer wrappers are already installed")
        wrappers: dict[int, object] = {}
        for owner, attr, name, reader in trace_sites(self.lsfrp):
            fn = vars(owner)[attr]
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name, reader)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for sid, parent, solve, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "solve": solve, "name": name,
                     "t0": t0, "t1": t1, **attrs}, sort_keys=True) + "\n")


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(spans: list[list], solves: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass: ``name -> (value, unit)``.

    Self time is a span's duration minus the durations of its direct child
    spans; children of one span never overlap in this single-threaded run.
    """
    dur = [s[5] - s[4] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += dur[s[0]]

    def named(name):
        return [s for s in spans if s[3] == name]

    def total(name):
        return sum(dur[s[0]] for s in named(name))

    def self_time(name):
        return sum(dur[s[0]] - child_time[s[0]] for s in named(name))

    def attr_sum(name, key):
        return sum(s[6].get(key, 0) for s in named(name))

    def under(span, names):
        p = span[1]
        while p is not None:
            if spans[p][3] in names:
                return True
            p = spans[p][1]
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    lp_calls = len(named("lp.solve_lp"))
    lp_s = total("lp.solve_lp")
    pivots = attr_sum("lp.solve_lp", "pivots")
    lp_failed = sum(
        1 for s in named("lp.solve_lp") if "error" in s[6] or s[6].get("status") not in _LP_OK
    )
    nodes = attr_sum("lp.solve_mip", "nodes")
    lp_in_mip = sum(1 for s in named("lp.solve_lp") if spans[s[1]][3] == "lp.solve_mip")
    pricing = ("colgen.ArcFlowPricing.price", "lazy.CompactPricing.price")
    pricing_nodes = sum(s[6].get("nodes", 0) for s in named("lp.solve_mip") if under(s, pricing))
    oracle_lp = sum(1 for s in named("lp.solve_lp") if under(s, ("oracle.brute_force_solve",)))
    builds = named("formulations.build")
    price_calls = len(named("colgen.price_ship"))
    columns = attr_sum("colgen.price_ship", "n")
    sep = named("lazy.separate_cuts")
    reach_calls = len(named("instance.build_reach_index"))

    return {
        "lp.solve_lp.calls": (lp_calls, "count"),
        "lp.solve_lp.s": (lp_s, "s"),
        "lp.solve_lp.failed": (lp_failed, "count"),
        "lp.pivots": (pivots, "count"),
        "lp.pivots_per_call": (ratio(pivots, lp_calls), "ratio"),
        "lp.us_per_pivot": (ratio(lp_s * 1e6, pivots), "us"),
        "lp.solve_mip.calls": (len(named("lp.solve_mip")), "count"),
        "lp.solve_mip.self_s": (self_time("lp.solve_mip"), "s"),
        "lp.bnb_nodes": (nodes, "count"),
        "lp.cuts_added": (attr_sum("lp.solve_mip", "cuts"), "count"),
        "lp.lp_per_node": (ratio(lp_in_mip, nodes), "ratio"),
        "formulations.build.calls": (len(builds), "count"),
        "formulations.build.s": (total("formulations.build"), "s"),
        "formulations.model_nnz": (ratio(attr_sum("formulations.build", "nnz"), len(builds)), "count"),
        "formulations.solve_arcflow.self_s": (self_time("formulations.solve_arcflow"), "s"),
        "instance.build_reach_index.calls": (reach_calls, "count"),
        "instance.build_reach_index.calls_per_solve": (ratio(reach_calls, solves), "ratio"),
        "instance.build_reach_index.s": (total("instance.build_reach_index"), "s"),
        "colgen.solve_rmp.calls": (len(named("colgen.solve_rmp")), "count"),
        "colgen.solve_rmp.self_s": (self_time("colgen.solve_rmp"), "s"),
        "colgen.price_ship.calls": (price_calls, "count"),
        "colgen.price_ship.s": (total("colgen.price_ship"), "s"),
        "colgen.columns": (columns, "count"),
        "colgen.column_yield": (ratio(columns, price_calls), "ratio"),
        "colgen.pricing_bnb_nodes": (pricing_nodes, "count"),
        "colgen.ArcFlowPricing.price.self_s": (self_time("colgen.ArcFlowPricing.price"), "s"),
        "lazy.build_compact_pricing.calls": (len(named("lazy.build_compact_pricing")), "count"),
        "lazy.build_compact_pricing.s": (total("lazy.build_compact_pricing"), "s"),
        "lazy.separate_cuts.calls": (len(sep), "count"),
        "lazy.separate_cuts.s": (total("lazy.separate_cuts"), "s"),
        "lazy.cuts": (attr_sum("lazy.separate_cuts", "n"), "count"),
        "lazy.cut_yield": (ratio(sum(1 for s in sep if s[6].get("n", 0) > 0), len(sep)), "ratio"),
        "lazy.CompactPricing.price.self_s": (self_time("lazy.CompactPricing.price"), "s"),
        "oracle.brute_force_solve.self_s": (self_time("oracle.brute_force_solve"), "s"),
        "oracle.lp_calls": (oracle_lp, "count"),
        "io.generate_random.s": (total("io.generate_random"), "s"),
        "io.parse_instance.s": (total("io.parse_instance"), "s"),
        "io.write_solution.s": (total("io.write_solution"), "s"),
    }
