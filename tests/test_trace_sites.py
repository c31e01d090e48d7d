"""The benchmark's tracer patches named functions in their owners' own
namespaces; a refactor that moves one of them (into a base class, say) or
drops it would make a traced benchmark run fail, so this checks that every
site it names is still there.  The tracer file is loaded by path, as is."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_site_is_its_owners_own_attribute():
    if not TRACER.is_file():
        pytest.skip("no perfbench/ beside tests/")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    lsfrp = importlib.import_module("lsfrp")
    for name in ("cli", "colgen", "formulations", "instance", "io", "lazy", "lp", "oracle"):
        importlib.import_module(f"lsfrp.{name}")
    sites = tracer.trace_sites(lsfrp)
    assert sites
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        for owner, attr, _, _ in sites
        if attr not in vars(owner)
    ]
    assert missing == []
