"""The copoisson benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one process each

A run sets the workload up SETUP_REPEATS times, asks a sympy child
process for the predictions its checks need, then runs whole passes over
the operation list, in an order fixed by the seed, until at least
MIN_PASSES passes and MIN_OPS operations have run and the timed operations
add up to --seconds.  Each operation is one call into copoisson from a
single client, timed alone; its output is checked after the clock stops.

Times are reported at a fixed reference speed.  The machine this was
sized on switches between speeds up to a factor of two apart, on a scale
of seconds to minutes, and every Python loop slows alike.  So a short
fixed loop, the probe, is timed right before and right after each timed
call, and the call's time is scaled by PROBE_REF_S over the probe's time:
a time is what the call takes when the probe takes PROBE_REF_S.  The
measured wall times are printed beside the scaled ones.

With --trace 1 the run times one untraced pass, then one traced pass, and
reports the per-layer metrics of the traced pass and the tracing overhead.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import harness
import oracle
import tracer

WORKLOADS = {
    "cobracket-certify": "wl_cobracket",
    "bracket-correspondence": "wl_bracket",
    "cli-files": "wl_cli",
    "finite-classify": "wl_finite",
}
SETUP_REPEATS = 5
MIN_PASSES = 2
MIN_OPS = 100
PROBE_REF_S = 0.001
RESULTS = Path(__file__).resolve().parent / "results"


def _probe_loop():
    """Exact arithmetic and dict updates, the program's own mix of work."""
    s = Fraction(0)
    d = {}
    for i in range(1, 300):
        s += Fraction(i % 7, i % 5 + 1)
        key = (i % 13, i % 11)
        d[key] = d.get(key, 0) + i
    return s


def probe():
    """Seconds the probe loop takes now: the median of three timings."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _probe_loop()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def timed(fn):
    """(result, wall seconds, seconds at the reference speed) of fn()."""
    before = probe()
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    after = probe()
    return result, wall, wall * PROBE_REF_S * 2 / (before + after)


def setup(module, seed, workdir):
    """Import the program and build the operations SETUP_REPEATS times.

    Returns the operations in their seeded order and the median set-up
    time as measured and at the reference speed."""

    def build():
        return module.build(harness.import_program(), random.Random(seed), workdir)

    times = []
    for _ in range(SETUP_REPEATS):
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        ops, wall, scaled = timed(build)
        times.append((scaled, wall))
    order = random.Random(seed ^ 0x5EED).sample(ops, len(ops))
    scaled, wall = sorted(times)[SETUP_REPEATS // 2]
    return order, wall, scaled


def ask_oracle(ops):
    requests = [op.requests() for op in ops]
    flat = [r for rs in requests for r in rs]
    answers = iter(oracle.ask(flat))
    for op, rs in zip(ops, requests):
        op.answers = [next(answers) for _ in rs]


class Tally:
    def __init__(self):
        self.wall = []         # measured seconds of each timed call
        self.scaled = []       # the same at the reference speed
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.previous = {}

    def run_pass(self, ops, call=lambda op: op.run()):
        for op in ops:
            self.attempted += 1
            try:
                result, wall, scaled = timed(lambda: call(op))
            except Exception:
                self.failed += 1
                print(f"operation {op.name} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
                continue
            self.wall.append(wall)
            self.scaled.append(scaled)
            try:
                fp = op.check(result, op.answers)
                if op.name in self.previous and self.previous[op.name] != fp:
                    raise harness.Wrong("output differs from the previous pass")
                self.previous[op.name] = fp
            except Exception as e:
                self.failed += 1
                self.wrong += 1
                print(f"operation {op.name} gave a wrong output: {e}", file=sys.stderr)
        self.passes += 1
        gc.collect()


def measure(ops, seconds, tally):
    while not (tally.passes >= MIN_PASSES and len(tally.scaled) >= MIN_OPS
               and sum(tally.wall) >= seconds):
        tally.run_pass(ops)


def latency_metrics(samples):
    return {
        "ops_per_s": {"value": len(samples) / sum(samples), "unit": "op/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(samples), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * statistics.quantiles(samples, n=10)[8], "unit": "ms"},
    }


def end_to_end(tally, setup_s):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        **latency_metrics(tally.scaled),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"},
    }


def traced(ops, tally, workload, seed):
    """One untraced pass, then one traced pass; per-layer metrics."""
    tally.run_pass(ops)
    untraced = sum(tally.scaled)
    tr = tracer.Tracer()
    tr.install()
    try:
        tally.run_pass(ops, lambda op: tr.run_op(op.name, op.run)[0])
    finally:
        tr.uninstall()
    traced_s = sum(tally.scaled) - untraced
    metrics = tr.metrics()
    metrics["trace.untraced_ops_per_s"] = {"value": len(ops) / untraced, "unit": "op/s"}
    metrics["trace.traced_ops_per_s"] = {"value": len(ops) / traced_s, "unit": "op/s"}
    metrics["trace.overhead_x"] = {"value": traced_s / untraced, "unit": "ratio"}
    RESULTS.mkdir(exist_ok=True)
    tr.write(RESULTS / f"trace-{workload}-seed{seed}.json",
             {"workload": workload, "seed": seed,
              "traced_wall_s": sum(tally.wall[len(ops):]),
              "self_sum_s": tr.total_self_s()})
    return metrics


def run_workload(args):
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = RESULTS / f"work-{args.workload}"
    try:
        ops, setup_wall, setup_s = setup(module, args.seed, workdir)
        ask_oracle(ops)
        tally = Tally()
        if args.trace:
            metrics = traced(ops, tally, args.workload, args.seed)
        else:
            measure(ops, args.seconds, tally)
            metrics = end_to_end(tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{args.workload:24} {name:44} {m['value']:>14.6g} {m['unit']}")
    wall = latency_metrics(tally.wall)
    print(f"{args.workload:24} as measured: setup_s {setup_wall:.6g} s, "
          + ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in wall.items()))
    print(f"{args.workload:24} {tally.passes} passes, attempted {tally.attempted}, "
          f"failed {tally.failed}")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    return merged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
