"""The benchmark's span recorder (``perfbench/tracer.py``) patches engine
attributes by name.  A renamed engine method must fail here, not first in a
traced benchmark run.  The recorder module is loaded, never installed, and
no bytecode is written next to it."""

import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


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
