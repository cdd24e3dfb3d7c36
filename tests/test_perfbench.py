"""The benchmark's modules, loaded from ``perfbench/`` by path, never
installed, and with no bytecode written next to them.

The span recorder (``perfbench/tracer.py``) patches engine attributes by
name: a renamed engine method must fail here, not first in a traced
benchmark run.  Each workload of ``perfbench/workloads.py`` runs once at
the ``smoke`` size through the gates the benchmark applies: no failed
operation, and every fixed digest equal to the recorded one."""

import importlib.util
import pathlib
import random
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _load_tracer():
    return _load(TRACER)


def test_traced_names_resolve():
    # the lookup ``Tracer.install`` makes: a class attribute must be the
    # class's own, a module attribute may be any name bound in the module
    missing = []
    for name, targets, _ in _load_tracer().PATCHES:
        for owner, attr in targets:
            found = (attr in owner.__dict__ if isinstance(owner, type)
                     else hasattr(owner, attr))
            if not found:
                missing.append(f"{name}: {owner.__name__}.{attr}")
    assert not missing


@pytest.fixture(scope="module")
def workloads():
    return _load(PERFBENCH / "workloads.py")


@pytest.mark.parametrize("name", ["freeness", "trig", "partitions", "rewrite"])
def test_smoke_workload_passes_the_benchmark_gates(workloads, name):
    """One pass as ``perfbench/one_pass.py`` runs it, seeded as ``run.py
    --seed 1`` seeds it."""
    assert set(workloads.WORKLOADS) == {"freeness", "trig", "partitions", "rewrite"}
    setup, run = workloads.WORKLOADS[name]
    out = workloads.Outcome("smoke", name)
    run(setup(random.Random(f"{name}:1"), "smoke"), out)
    result = out.to_json()
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]
    assert result["digests"] == workloads.EXPECTED["smoke"][name]
