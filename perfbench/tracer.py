"""Span recorder for the traced benchmark run.

``Tracer.install()`` replaces public engine functions with wrappers that
record one span per call: name, start, end, parent span and, for some
layers, the size of the result.  Spans stay in a list until the pass ends;
``write`` stores them as JSON lines and ``layer_metrics`` folds them into
the per-layer metrics.

Names are patched where they are looked up: ``freeword`` binds
``enumerate_nc`` and ``kreweras`` by name, ``TrigPoly.__mul__`` looks up
``trigalg.mul``, and ``Normalizer._log`` and the table builders look up the
module-level ``freedim.fdim``, ``freedim.expr_text`` and
``freedim.normalize``.

A call made while a span of the same name is open (recursion, or a
``PiValue`` operation built on another one) records no span of its own; its
time is part of the outer span's self time.  Counts are therefore calls
from outside the layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from freeprod import freedim, freeword, matmodel, ncpart, trigalg


def _nterms(nc) -> int:
    return nc.nterms()


def _steps(result) -> int:
    return len(result[1])


# (span name, [(owner, attribute), ...], result size or None).  All
# attributes listed together record spans of one name.
PATCHES = [
    ("trigalg.pivalue", [(trigalg.PiValue, op) for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__")], None),
    ("trigalg.trigpoly_mul", [(trigalg, "mul")], None),
    ("trigalg.trace", [(trigalg, "trace")], None),
    ("freeword.normalize", [(freeword.FreeProduct, "normalize")], _nterms),
    ("freeword.mul", [(freeword.FreeProduct, "mul")], _nterms),
    ("freeword.trace", [(freeword.FreeProduct, "trace")], None),
    ("freeword.trace_word", [(freeword.FreeProduct, "trace_word")], None),
    ("freeword.trace_bipartite", [(freeword.FreeProduct, "trace_bipartite")], None),
    ("freeword.leg_cumulant", [(freeword.FreeProduct, "leg_cumulant")], None),
    ("ncpart.enumerate_nc", [(ncpart, "enumerate_nc"), (freeword, "enumerate_nc")], len),
    ("ncpart.kreweras", [(ncpart, "kreweras"), (freeword, "kreweras")], None),
    ("matmodel.matmul", [(matmodel.Mat2, "__matmul__")], None),
    ("matmodel.check_freeness", [(matmodel.MatrixModel, "check_freeness")], None),
    ("freedim.parse", [(freedim, "parse")], None),
    ("freedim.normalize", [(freedim, "normalize")], _steps),
    ("freedim.fdim", [(freedim, "fdim")], None),
    ("freedim.expr_text", [(freedim, "expr_text")], None),
    ("freedim.table", [(freedim, "example_61_sequence"), (freedim, "prop_62_table")], None),
]


class Tracer:
    def __init__(self):
        # one (name, start, end, parent index or -1, result size or None) per span
        self.spans: list = []
        self._stack = [-1]
        self._open: dict = defaultdict(bool)

    def install(self) -> None:
        for name, targets, size in PATCHES:
            for owner, attr in targets:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, fn, size))

    def _wrap(self, name, fn, size):
        spans, stack, is_open, clock = self.spans, self._stack, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            if is_open[name]:
                return fn(*args, **kwargs)
            is_open[name] = True
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            out = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    out = size(result)
                return result
            finally:
                spans[idx] = (name, start, clock(), parent, out)
                stack.pop()
                is_open[name] = False

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, out) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, out]) + "\n")

    def layer_metrics(self) -> dict:
        """Calls, self seconds and result sizes per span name, plus the
        ratios and splits that need a span's parent."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        out_total: dict = defaultdict(int)
        kreweras_bip = partitions_bip = entries_traced = 0
        deep_s = shallow_s = 0.0
        for idx, (name, start, end, parent, out) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[idx]
            if out is not None:
                out_total[name] += out
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name == "freeword.trace_bipartite":
                if name == "ncpart.kreweras":
                    kreweras_bip += 1
                elif name == "ncpart.enumerate_nc":
                    partitions_bip += out
            elif parent_name == "matmodel.check_freeness" and name == "freeword.trace":
                entries_traced += 1
            if name == "freedim.normalize":
                if parent_name == "freedim.table":
                    deep_s += end - start
                else:
                    shallow_s += end - start
        return {
            "trigalg.pivalue.ops": calls["trigalg.pivalue"],
            "trigalg.pivalue.self_s": self_s["trigalg.pivalue"],
            "trigalg.trigpoly_mul.calls": calls["trigalg.trigpoly_mul"],
            "trigalg.trigpoly_mul.self_s": self_s["trigalg.trigpoly_mul"],
            "trigalg.trace.calls": calls["trigalg.trace"],
            "trigalg.trace.self_s": self_s["trigalg.trace"],
            "freeword.normalize.calls": calls["freeword.normalize"],
            "freeword.normalize.self_s": self_s["freeword.normalize"],
            "freeword.normalize.terms_out": out_total["freeword.normalize"],
            "freeword.mul.calls": calls["freeword.mul"],
            "freeword.mul.self_s": self_s["freeword.mul"],
            "freeword.mul.terms_out": out_total["freeword.mul"],
            "freeword.trace.calls": calls["freeword.trace"],
            "freeword.trace.self_s": self_s["freeword.trace"],
            "freeword.trace_word.self_s": self_s["freeword.trace_word"],
            "freeword.trace_bipartite.calls": calls["freeword.trace_bipartite"],
            "freeword.trace_bipartite.self_s": self_s["freeword.trace_bipartite"],
            "freeword.leg_cumulant.calls": calls["freeword.leg_cumulant"],
            "freeword.leg_cumulant.self_s": self_s["freeword.leg_cumulant"],
            "freeword.kreweras_miss_ratio": (kreweras_bip / partitions_bip
                                             if partitions_bip else 0.0),
            "ncpart.enumerate_nc.calls": calls["ncpart.enumerate_nc"],
            "ncpart.enumerate_nc.self_s": self_s["ncpart.enumerate_nc"],
            "ncpart.enumerate_nc.partitions_out": out_total["ncpart.enumerate_nc"],
            "ncpart.kreweras.calls": calls["ncpart.kreweras"],
            "ncpart.kreweras.self_s": self_s["ncpart.kreweras"],
            "matmodel.matmul.calls": calls["matmodel.matmul"],
            "matmodel.matmul.self_s": self_s["matmodel.matmul"],
            "matmodel.check_freeness.self_s": self_s["matmodel.check_freeness"],
            "matmodel.entries_traced": entries_traced,
            "freedim.parse.self_s": self_s["freedim.parse"],
            "freedim.normalize.calls": calls["freedim.normalize"],
            "freedim.rewrite_steps": out_total["freedim.normalize"],
            "freedim.fdim.calls": calls["freedim.fdim"],
            "freedim.fdim.self_s": self_s["freedim.fdim"],
            "freedim.expr_text.self_s": self_s["freedim.expr_text"],
            "freedim.normalize.deep_s": deep_s,
            "freedim.normalize.shallow_s": shallow_s,
        }
