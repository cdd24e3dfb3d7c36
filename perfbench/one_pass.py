"""One benchmark pass in a fresh interpreter, started by run.py.

    python3 perfbench/one_pass.py WORKLOAD SEED SIZE TRACED SPANS_PATH

Imports freeprod from the checkout's ``src``, builds the workload's inputs
from the seed, runs the workload once (traced when TRACED is 1, writing the
spans to SPANS_PATH if it is not empty) between two timings of a
calibration loop, and prints one JSON line.  A fresh
interpreter per pass means the per-instance memos and the module-global
Kreweras cache start empty on every pass.
"""

import gc
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


CALIBRATION_LOOPS = 40000


def calibrate() -> float:
    """Seconds taken by a fixed loop of the operations the engines spend
    most of their time on: Fraction arithmetic and tuple-keyed dict
    updates.  It does not touch freeprod, so no change to the program moves
    it; the cyclic collector is paused so that the size of the heap the
    pass left behind does not either."""
    acc: dict = {}
    q, zero = Fraction(1, 3), Fraction(0)
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(CALIBRATION_LOOPS):
            key = ("c", i % 97, i % 13)
            acc[key] = acc.get(key, zero) + q * (i % 7)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv) -> None:
    workload, seed, size, traced, spans_path = argv[1:6]
    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(random.Random(f"{workload}:{seed}"), size)
    recorder = None
    if traced == "1":
        recorder = tracer.Tracer()
        recorder.install()
    out = workloads.Outcome(size, workload)
    ready = time.monotonic()
    before = calibrate()
    start = time.perf_counter()
    run(inputs, out)
    run_s = time.perf_counter() - start
    result = {
        "ready": ready,
        "run_s": run_s,
        "calibration_s": (before + calibrate()) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcome": out.to_json(),
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        if spans_path:
            recorder.write(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
