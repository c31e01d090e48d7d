"""Self-check for the benchmark itself; run from the root of a checkout:

    python3 perfbench/selfcheck.py

It runs a smoke size (``--seconds 1``) of every workload, those listed in
BENCHMARK.json and the ungated ``root-lp``, and checks that

* the untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, and the traced run every per-layer metric;
* the untraced run carries no tracer wrappers, and the traced run puts
  back the original function at every patched site;
* the per-layer counts (and ratios of counts) of two traced runs of one
  seed repeat exactly;
* the output records nproc, the Python/numpy/scipy versions and the BLAS
  thread count;
* without ``src/`` the benchmark exits non-zero and prints no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = ["--seed", "1", "--seconds", "1"]


def run(args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"smoke run not correct: {lines}")
    return result, lines


def check_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{what}: metrics {got} differ from BENCHMARK.json {want}")


def check_env(lines):
    env = next((ln for ln in lines if ln.startswith("env ")), "")
    for key in ("nproc=", "python=", "numpy=", "scipy=", "blas_threads="):
        if key not in env:
            raise AssertionError(f"environment line lacks {key}: {env!r}")


def check_wrappers():
    sys.path.insert(0, str(ROOT / "src"))
    import lsfrp.cli  # noqa: F401  (loads every module the tracer patches)
    import tracer

    lsfrp = sys.modules["lsfrp"]
    sites = tracer.trace_sites(lsfrp)
    before = [vars(owner)[attr] for owner, attr, _, _ in sites]
    if tracer.installed_wrappers(lsfrp):
        raise AssertionError("wrappers present before tracing")
    recorder = tracer.Tracer(lsfrp)
    with recorder.installed():
        if len(tracer.installed_wrappers(lsfrp)) != len(sites):
            raise AssertionError("not every site is wrapped while tracing")
    after = [vars(owner)[attr] for owner, attr, _, _ in sites]
    if any(a is not b for a, b in zip(before, after)) or tracer.installed_wrappers(lsfrp):
        raise AssertionError("tracing did not restore the original functions")


def check_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "suite-small", *SMOKE], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS)
    missing = {w["name"] for w in spec["workloads"]} - set(names)
    if missing:
        raise AssertionError(f"BENCHMARK.json names unknown workloads {sorted(missing)}")
    check_wrappers()
    print("ok   tracer wrappers installed only while tracing, originals restored")
    check_bare_directory()
    print("ok   without src/ the benchmark exits non-zero and prints nothing")
    for name in names:
        plain, lines = result_of(run(["--workload", name, *SMOKE, "--trace", "0"]))
        check_metrics(plain, spec["end_to_end"], f"{name} --trace 0")
        check_env(lines)
        first, lines = result_of(run(["--workload", name, *SMOKE, "--trace", "1"]))
        check_metrics(first, spec["per_layer"], f"{name} --trace 1")
        check_env(lines)
        second, _ = result_of(run(["--workload", name, *SMOKE, "--trace", "1"]))
        # counts, and ratios of counts; trace.* holds timings of the two passes
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if v["unit"] in ("count", "ratio") and not k.startswith("trace.")}
        again = {k: second["metrics"][k]["value"] for k in counts}
        if counts != again:
            diff = {k: (counts[k], again[k]) for k in counts if counts[k] != again[k]}
            raise AssertionError(f"{name}: per-layer counts differ between runs: {diff}")
        print(f"ok   {name}: metrics and units match, {len(counts)} counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
