"""Benchmark of the robustness-envelope verifier: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs whole rounds of its
operations for about ``--seconds`` seconds, every round on emptied
caches.  The outputs are checked after the timed phase.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the rounds alternate between untraced
and traced, the metrics are per-layer counts and self times from the
traced rounds, and the spans go to ``bench/out/``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported


@dataclass
class Op:
    key: tuple
    round: int
    seconds: float
    output: object
    error: str | None


def import_program() -> None:
    package = SRC / "robustness_envelope"
    if not (package / "__init__.py").is_file():
        print(f"bench: program sources not found at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import robustness_envelope
    if Path(robustness_envelope.__file__).resolve().parent != package:
        print(f"bench: imported {robustness_envelope.__file__}, "
              f"not the sources at {package}", file=sys.stderr)
        sys.exit(2)


def lazy_caches() -> list:
    """Every ``functools`` cache in the program; emptied before each round
    so a round pays what a fresh process pays."""
    found = []
    for name, module in list(sys.modules.items()):
        if name.startswith("robustness_envelope."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and value not in found:
                    found.append(value)
    return found


def run_round(workload, state, caches, number,
              wrap=None) -> tuple[float, list]:
    for cache in caches:
        cache.cache_clear()
    workload.reset(state)
    gc.collect()
    clock = time.perf_counter
    ops = []
    start = clock()
    for key, fn in workload.ops(state):
        if wrap is not None:
            fn = wrap(fn)
        t0 = clock()
        try:
            output, error = fn(), None
        except Exception as e:  # the operation failed; counted, not fatal
            output, error = None, f"{type(e).__name__}: {e}"
        ops.append(Op(key, number, clock() - t0, output, error))
    return clock() - start, ops


def check(workload, state, ops) -> int:
    """Number of failed operations: raised, or an output check failed."""
    failed = [op for op in ops if op.error is not None]
    good = [op for op in ops if op.error is None]
    bad = workload.check(state, good)
    for op in failed:
        print(f"bench: {op.key} raised {op.error}", file=sys.stderr)
    for index, reason in sorted(bad.items()):
        print(f"bench: {good[index].key} wrong: {reason}", file=sys.stderr)
    return len(failed) + len(bad)


def setup_seconds(args) -> float:
    """Median wall time from starting a fresh interpreter to the end of the
    workload's set-up: interpreter start, imports, inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-probe"],
                stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if ready.strip() != "ready" or child.returncode != 0:
            sys.exit("bench: set-up probe failed")
        times.append(elapsed)
    return statistics.median(times)


def p90(values) -> float:
    """90th percentile; one value is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload, state, args) -> dict:
    caches = lazy_caches()
    walls, ops = [], []
    start = time.perf_counter()
    while True:
        wall, round_ops = run_round(workload, state, caches, len(walls))
        walls.append(wall)
        ops += round_ops
        if time.perf_counter() - start + wall > args.seconds:
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check(workload, state, ops)
    latencies = [op.seconds for op in ops]
    metrics = {
        "setup_s": (setup_seconds(args), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (peak_mib, "MiB"),
        "ops_per_s": (len(ops) / len(walls) / statistics.median(walls), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * p90(latencies), "ms"),
    }
    return {"attempted": len(ops), "failed": failed, "rounds": len(walls),
            "metrics": metrics}


def measure_traced(workload, state, args) -> dict:
    from tracing import Tracer, unit_of

    caches = lazy_caches()
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    traced_state = workload.build(args.seed)
    setup_build_s = tracer.layers["classifiers.build"][1]
    tracer.uninstall()
    plain_walls, traced_walls, per_round, rounds, ops = [], [], [], [], []
    while True:
        wall, round_ops = run_round(workload, state, caches,
                                    2 * len(plain_walls))
        plain_walls.append(wall)
        ops += round_ops
        tracer.reset()
        tracer.install()
        try:
            wall, round_ops = run_round(workload, traced_state, caches,
                                        2 * len(traced_walls) + 1,
                                        wrap=tracer.op)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        ops += round_ops
        layers = tracer.metrics()
        layers["classifiers.build_s"] += setup_build_s
        per_round.append(layers)
        rounds.append({"wall_s": wall, "layers": layers,
                       "spans": [list(s) for s in tracer.spans]})
        if time.perf_counter() - start + wall + plain_walls[-1] > args.seconds:
            break
    failed = check(workload, state, ops)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["id", "parent", "layer", "start", "end",
                                   "self_s"],
                   "rounds": rounds}, f)
    # median_low keeps counts whole; they repeat exactly round to round
    metrics = {name: (statistics.median_low(r[name] for r in per_round),
                      unit_of(name))
               for name in per_round[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls), "s")
    return {"attempted": len(ops), "failed": failed, "rounds": len(per_round),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    state = workload.build(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    result = (measure_traced if args.trace else measure)(workload, state, args)
    print(f"bench: {args.workload} seed {args.seed}: {result['rounds']} rounds,"
          f" {result['attempted']} operations, {result['failed']} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
