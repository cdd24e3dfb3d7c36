"""Benchmark runner for freeprod (standard library only).

    python3 perfbench/run.py --workload freeness --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all``) as repeated passes, each in a fresh
interpreter, for about ``--seconds`` seconds, checks every exact result,
and prints one line per pass, a summary line per workload and, last, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
passes: ``run_s`` (one timed pass), ``setup_s`` (interpreter start to the
first timed call) and ``peak_rss_mb`` (``ru_maxrss`` of the pass process).
With ``--trace 1`` one untraced pass is followed by at least two traced
passes, and the metrics are the per-layer ones of ``tracer.py``; their
counts must agree between the traced passes.

Every time reported as a metric is wall seconds scaled to a reference
machine speed.  The pass process times a fixed calibration loop just
before and just after its timed call, and each of its wall times is
multiplied by ``REFERENCE_S`` over the loop's mean time.  On a shared
machine the speed of a core can change by a third for tens of seconds at a
time; the scaling takes that out of the figures.  The raw wall times stay
in the pass lines and the result file.  ``--size smoke`` runs tiny
inputs through the same checks in a few seconds.

Spans and a full result file are written to ``.bench_out/``.  See
README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("freeness", "trig", "partitions", "rewrite")
DEADLINE_S = 170  # every run ends well within three minutes
REFERENCE_S = 0.2  # one_pass.calibrate() at the reference machine speed

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics that are exact work counts; the rest are seconds or ratios.
COUNT_SUFFIXES = (".calls", ".ops", ".terms_out", ".partitions_out", "entries_traced",
                  "words_checked", "rewrite_steps")


PASS_FIELDS = ("run_s", "setup_s", "peak_rss_mb", "wall_run_s", "wall_setup_s", "scale",
               "wall_s")


class PassError(RuntimeError):
    """A pass process failed before it could report."""


def layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def spawn(workload: str, seed: int, size: str, traced: bool, spans: str,
          timeout: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "one_pass.py"), workload, str(seed),
           size, "1" if traced else "0", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise PassError(f"{workload} pass exited {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    scale = REFERENCE_S / result.pop("calibration_s")
    result["wall_run_s"] = result.pop("run_s")
    result["wall_setup_s"] = result.pop("ready") - spawned
    result["run_s"] = result["wall_run_s"] * scale
    result["setup_s"] = result["wall_setup_s"] * scale
    result["scale"] = scale
    for name, value in result.get("layers", {}).items():
        if layer_unit(name) == "s":
            result["layers"][name] = value * scale
    result["wall_s"] = time.monotonic() - spawned
    return result


def measure(workload: str, args, started: float) -> dict:
    """Run passes until the next one would overrun ``--seconds``."""
    t0 = time.monotonic()

    def left() -> float:
        return args.seconds - (time.monotonic() - t0)

    def one(traced: bool, index: int) -> dict:
        spans = ""
        if traced:
            spans = str(OUT_DIR / f"spans-{workload}-{args.seed}-{index}.jsonl")
        return spawn(workload, args.seed, args.size, traced, spans,
                     DEADLINE_S - (time.monotonic() - started))

    plain: list = [one(False, 0)]
    traced: list = []
    if args.trace:
        while len(traced) < 2 or left() > traced[-1]["wall_s"]:
            traced.append(one(True, len(traced)))
    else:
        while left() > statistics.median(p["wall_s"] for p in plain):
            plain.append(one(False, 0))
    return summarize(workload, plain, traced)


def summarize(workload: str, plain: list, traced: list) -> dict:
    passes = plain + traced
    problems = []
    first = passes[0]["outcome"]
    for p in passes[1:]:
        o = p["outcome"]
        for key in ("counts", "digests", "seeded_digest"):
            if o[key] != first[key]:
                problems.append(f"{key} differ between passes of one seed")
    for p in passes:
        problems.extend(p["outcome"]["errors"])
    e2e = {
        "run_s": statistics.median(p["run_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    layers = {}
    if traced:
        names = traced[0]["layers"]
        for name in names:
            values = [p["layers"][name] for p in traced]
            if layer_unit(name) == "count":
                if len(set(values)) > 1:
                    problems.append(f"count {name} drifts between traced runs: {values}")
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        layers["matmodel.words_checked"] = sum(
            v for k, v in first["counts"].items() if k.startswith(("words.", "identities.")))
        layers["trace_overhead"] = statistics.median(p["run_s"] for p in traced) / e2e["run_s"]
    attempted = sum(p["outcome"]["attempted"] for p in passes)
    failed = sum(p["outcome"]["failed"] for p in passes)
    return {
        "workload": workload,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": sorted(set(problems)),
        "end_to_end": e2e,
        "layers": layers,
        "counts": first["counts"],
        "digests": first["digests"],
        "seeded_digest": first["seeded_digest"],
        "wall_run_s": statistics.median(p["wall_run_s"] for p in plain),
        "scale": statistics.median(p["scale"] for p in plain),
        "passes": [{k: p[k] for k in PASS_FIELDS} | {"traced": "layers" in p}
                   for p in passes],
    }


def loadavg() -> list:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so subprocess.run kills a running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.monotonic()
    src = ROOT / "src" / "freeprod"
    if not (src / "__init__.py").is_file():
        print(f"run.py: no freeprod sources under {src.parent}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(src), quiet=1)
    OUT_DIR.mkdir(exist_ok=True)
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(measure(name, args, started))
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()
    print("env " + json.dumps(env))

    metrics = {}
    for r in results:
        for p in r["passes"]:
            print(f"pass {r['workload']}" + "".join(
                f" {k} {v:.4f}" for k, v in p.items() if k != "traced")
                + (" traced" if p["traced"] else ""))
        for problem in r["problems"]:
            print(f"problem {r['workload']}: {problem}")
        e2e = r["end_to_end"]
        print(f"{r['workload']:<11}"
              + "".join(f" {k} {v:.4f} {END_TO_END_UNITS[k]}" for k, v in e2e.items())
              + f"  fail_ratio {r['fail_ratio']:.4g} ({r['failed']}/{r['attempted']})"
              + f"  wall run_s {r['wall_run_s']:.4f} s  scale {r['scale']:.4f}"
              + f"  seeded_digest {r['seeded_digest']}")
        if args.trace:
            for k, v in r["layers"].items():
                print(f"  {k} {v:.6g} {layer_unit(k)}")
        prefix = f"{r['workload']}." if args.workload == "all" else ""
        for k, v in (r["layers"] if args.trace else e2e).items():
            unit = layer_unit(k) if args.trace else END_TO_END_UNITS[k]
            metrics[prefix + k] = {"value": v, "unit": unit}

    tag = f"{args.workload}-{args.seed}-trace{args.trace}-{args.size}"
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "args": vars(args), "results": results}, indent=1))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
