"""lsfrp benchmark: seeded workloads through the public entry points.

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout and nowhere else; without it the benchmark exits with
code 2 and prints no result.

``--trace 0`` generates the workload's instances (timed several times as
set-up), solves them one after another for ``--seconds`` seconds in one
single-threaded process with BLAS pinned to one thread, checks every
objective against an independent reference and prints the end-to-end
metrics.  Its timings are scaled to a nominal host speed by the kernel
runs of ``hostspeed.py``; the unscaled figures are printed too.  ``--trace 1`` makes and solves a fixed prefix of the same
instances twice, untraced and with the tracer's wrappers installed, prints
the per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

# pin BLAS before numpy is first imported, here or in a child process;
# none of the imports above pulls it in
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (imports numpy, so only after the pin)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MODULES = ("cli", "colgen", "formulations", "instance", "io", "lazy", "lp", "oracle")
EXIT_NO_PROGRAM = 2


def load_program():
    """Import lsfrp from this checkout's ``src/``, refusing any other copy."""
    if not (SRC / "lsfrp" / "__init__.py").is_file():
        print(f"perfbench: no lsfrp sources under {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    lsfrp = importlib.import_module("lsfrp")
    for name in MODULES:
        importlib.import_module(f"lsfrp.{name}")
    if not Path(lsfrp.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: lsfrp imported from {lsfrp.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    return lsfrp


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy links, if any."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    # scipy is only imported after the timed window, so its version is read
    # from the package metadata to keep it out of peak_rss_mb
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def fresh_import() -> None:
    """Import the program in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    imports = "; ".join(f"import lsfrp.{m}" for m in MODULES)
    subprocess.run([sys.executable, "-c", imports], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


def timed_setup(lsfrp, workload, seed: int, clock):
    """Set up SETUP_REPEATS times: import in a fresh interpreter, then
    generate, write and re-parse every instance, with ``clock`` timing its
    kernel around and between them.  Each set-up is scaled by the median of
    the kernel runs taken through it; returns the median scaled and the
    median unscaled set-up time, and the cases."""
    raw, scaled = [], []
    cases = None
    for _ in range(SETUP_REPEATS):
        first = len(clock.seconds)
        for _ in range(hostspeed.NEIGHBOURS + 1):
            clock.calibrate()
        t0 = time.perf_counter()
        fresh_import()
        spent = time.perf_counter() - t0
        made = []
        for k in range(workload.schedule):
            clock.tick()
            t0 = time.perf_counter()
            made.append(workloads.make_case(lsfrp, workload, seed, k))
            spent += time.perf_counter() - t0
        for _ in range(hostspeed.NEIGHBOURS):
            clock.calibrate()
        factor = statistics.median(clock.seconds[first:]) / hostspeed.NOMINAL_S
        raw.append(spent)
        scaled.append(spent / factor)
        cases = cases or made
    return statistics.median(scaled), statistics.median(raw), cases


def solve_window(lsfrp, workload, cases, seconds: float, clock):
    """Closed loop, one client: solve (instance, method) pairs in schedule
    order, starting over at the first instance when the schedule runs out,
    until the window closes.  ``clock`` times its kernel between solves.
    Returns the results and each solve's start time."""
    jobs = [(case, method) for case in cases for method in case.methods]
    results, starts = [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        clock.tick()
        case, method = jobs[len(results) % len(jobs)]
        starts.append(time.perf_counter())
        results.append(workloads.solve(lsfrp, workload, case, method))
    for _ in range(hostspeed.NEIGHBOURS + 1):
        clock.calibrate()
    return results, starts


def verify(lsfrp, workload, cases, results, refs=None) -> list[str]:
    """Mark each optimal result that matches its reference; return problems
    that make the run incorrect (a wrong objective, or no reference).
    ``refs`` caches reference values across calls."""
    import reference

    by_index = {c.index: c for c in cases}
    refs = {} if refs is None else refs
    problems = []
    for r in results:
        if r.status != "optimal":
            continue
        case = by_index[r.case]
        key = (r.case, r.method) if workload.root_lp else (r.case,)
        if key not in refs:
            try:
                if workload.root_lp:
                    refs[key] = reference.lp_value(workloads.build_root_model(lsfrp, case.instance, r.method))
                else:
                    refs[key] = reference.instance_value(lsfrp, case.instance)
            except reference.NoReference as exc:
                refs[key] = exc
        ref = refs[key]
        if isinstance(ref, Exception):
            problems.append(f"instance {r.case} {r.method}: no reference ({ref})")
        elif reference.matches(r.objective, ref):
            r.ok = True
        else:
            problems.append(f"instance {r.case} {r.method}: objective {r.objective!r} "
                            f"!= reference {ref!r}")
    return problems


def describe_failures(results) -> list[str]:
    return [f"instance {r.case} {r.method}: {r.status} after {r.seconds:.3f} s"
            for r in results if r.status != "optimal"]


def metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    """The final JSON line; ``metrics`` maps name -> (value, unit)."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def report_cases(workload, seed: int, cases, used: int) -> None:
    """Write every used instance's parameters and |S| |V| |A| |M| |E|."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{seed}-instances.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for case in cases[:used]:
            fh.write(json.dumps({"index": case.index, **case.shape(),
                                 "params": vars(case.params)}, sort_keys=True) + "\n")
    shapes = [c.shape() for c in cases[:used]]
    span = " ".join(f"{k}={min(s[k] for s in shapes)}-{max(s[k] for s in shapes)}"
                    for k in ("S", "V", "A", "M", "E"))
    print(f"instances {used} {span} (each listed in {path.relative_to(ROOT)})")


def per_method(results) -> None:
    methods = sorted({r.method for r in results})
    for m in methods:
        rs = [r for r in results if r.method == m]
        print(f"method {m} solves={len(rs)} p50_s={statistics.median(r.seconds for r in rs):.4f} "
              f"failed={sum(not r.ok for r in rs)}")


def run_untraced(lsfrp, workload, seed: int, seconds: float) -> dict:
    if tracer.installed_wrappers(lsfrp):
        raise RuntimeError("tracer wrappers present in an untraced run")
    clock = hostspeed.HostClock()
    setup_s, raw_setup_s, cases = timed_setup(lsfrp, workload, seed, clock)
    results, starts = solve_window(lsfrp, workload, cases, seconds, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer.installed_wrappers(lsfrp):
        raise RuntimeError("tracer wrappers appeared during an untraced run")
    problems = verify(lsfrp, workload, cases, results)
    report_cases(workload, seed, cases, min(len(cases), 1 + max(r.case for r in results)))
    per_method(results)
    for line in problems + describe_failures(results):
        print(f"issue {line}")

    raw = [r.seconds for r in results]
    times = [clock.scaled(r.seconds, t0) for r, t0 in zip(results, starts)]
    ok = sum(r.ok for r in results)
    failed = len(results) - ok
    factors = clock.seconds
    print(f"# {len(results)} solves attempted, {ok} verified; setup_s is the median of "
          f"{SETUP_REPEATS} set-ups; times are in nominal-host seconds (hostspeed.py)")
    print(f"# host factor over {len(factors)} kernel runs: median "
          f"{statistics.median(factors) / hostspeed.NOMINAL_S:.3f}, "
          f"min {min(factors) / hostspeed.NOMINAL_S:.3f}, max {max(factors) / hostspeed.NOMINAL_S:.3f}")
    print(f"# unscaled: setup {raw_setup_s:.4f} s, {ok / sum(raw):.4f} solves/s, "
          f"p50 {statistics.median(raw):.5f} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (ok / sum(times), "1/s"),
        "solve_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        metric(name, value, unit)
    # printed for reading, not gated: p90 needs 10 samples beyond it, and a
    # failure share is 0 on a clean run
    if len(times) >= 2:
        p90 = statistics.quantiles(times, n=10)[8]
        beyond = sum(t > p90 for t in times)
        if beyond >= 10:
            metric("solve_s_p90", p90, "s", f"{beyond} samples beyond")
        else:
            print(f"# solve_s_p90 not reported: {beyond} of {len(times)} samples beyond p90")
    metric("failed_share", failed / len(results), "ratio", f"{failed}/{len(results)}")
    return result(not problems, len(results), failed, metrics)


def run_traced(lsfrp, workload, seed: int, seconds: float) -> dict:
    """Make and solve the first ceil(seconds * trace_rate) instances once
    untraced and once traced.  The two sides of each step run back to back,
    in alternating order, so that the host's speed drifts alike over both."""
    count = min(workload.schedule, max(1, math.ceil(seconds * workload.trace_rate)))
    recorder = tracer.Tracer(lsfrp)
    spent = [0.0, 0.0]  # untraced, traced seconds
    steps = 0

    def twice(step, name, **attrs):
        """Run ``step()`` untraced and traced; return both results."""
        nonlocal steps
        out = [None, None]
        for side in ((0, 1) if steps % 2 == 0 else (1, 0)):
            if tracer.installed_wrappers(lsfrp):
                raise RuntimeError("tracer wrappers present on the untraced side")
            t0 = time.perf_counter()
            if side:
                with recorder.installed(), recorder.span(name, **attrs):
                    out[1] = step()
            else:
                out[0] = step()
            spent[side] += time.perf_counter() - t0
        steps += 1
        return out

    cases = [twice(lambda k=k: workloads.make_case(lsfrp, workload, seed, k), "setup")[1]
             for k in range(count)]
    plain, traced = [], []
    for case in cases:
        for method in case.methods:
            one, other = twice(lambda: workloads.solve(lsfrp, workload, case, method), "solve",
                               solve=len(traced), case=case.index, method=method)
            plain.append(one)
            traced.append(other)
    plain_s, traced_s = spent
    left = tracer.installed_wrappers(lsfrp)
    if left:
        raise RuntimeError(f"tracer left wrappers installed: {left}")

    refs: dict = {}
    problems = (verify(lsfrp, workload, cases, plain, refs)
                + verify(lsfrp, workload, cases, traced, refs))
    report_cases(workload, seed, cases, count)
    per_method(traced)
    for line in problems + describe_failures(plain + traced):
        print(f"issue {line}")

    layers = tracer.layer_metrics(recorder.spans, len(traced))
    layers["solution.diagnostics.bnb_nodes"] = (sum(r.bnb_nodes for r in traced), "count")
    layers["trace.solves"] = (len(traced), "count")
    layers["trace.untraced_s"] = (plain_s, "s")
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    layers["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    for name, (value, unit) in layers.items():
        metric(name, value, unit)
    for m in sorted({r.method for r in traced}):
        reach = [s for s in recorder.spans if s[3] == "instance.build_reach_index"]
        solves = [s for s in recorder.spans if s[3] == "solve" and s[6]["method"] == m]
        ids = {s[2] for s in solves}
        print(f"# {m}: build_reach_index calls per solve "
              f"{sum(s[2] in ids for s in reach) / len(solves):.3f}")

    path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    recorder.write_jsonl(path, {"workload": workload.name, "seed": seed, "seconds": seconds,
                              "instances": count, "env": environment()})
    print(f"spans {len(recorder.spans)} written to {path.relative_to(ROOT)}")
    everything = plain + traced
    return result(not problems, len(everything), sum(not r.ok for r in everything), layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    lsfrp = load_program()
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace} "
          f"limit_s {workload.limit_s}")
    run = run_traced if args.trace else run_untraced
    outcome = run(lsfrp, workload, args.seed, args.seconds)
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
