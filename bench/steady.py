"""Steadiness check: two sets of runs of every workload, compared.

    python3 bench/steady.py

Runs every workload of BENCHMARK.json ten times in each of two sets, at
its ``run_seconds``, one process at a time, alternating which set goes
first; every run gets its own seed (set A 1..10, set B 101..110).  For
each (workload, end-to-end metric) it prints each set's median and
quartiles, the spread (quartile distance over the median) and whether the
two medians agree within the bound in BENCHMARK.json.  The benchmark is
steady when every run is correct with no failed operation, every spread
is within its bound and every pair of medians differs by no more than its
bound, in either direction.  Every result line is saved to
``bench/out/steady-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = {"A": 1, "B": 101}  # first seed of each set
RUNS = 10  # runs per workload in each set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    results = {(w, s): [] for w in workloads for s in SETS}
    for i in range(RUNS):
        order = list(SETS) if i % 2 == 0 else list(SETS)[::-1]
        for workload in workloads:
            for name in order:
                seed = SETS[name] + i
                result = run_once(workload, seed, spec["run_seconds"])
                results[workload, name].append(result)
                print(f"run {i} set {name} {workload} seed {seed}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr,
                      flush=True)

    ok = True
    print(f"{'workload':22s} {'metric':13s} {'set':3s} {'q1':>11s} "
          f"{'median':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s} verdict")
    for workload in workloads:
        wrong = [r for name in SETS for r in results[workload, name]
                 if not r["correct"] or r["failed"] != 0]
        if wrong:
            ok = False
            print(f"{workload}: {len(wrong)} runs not correct or with failed "
                  f"operations")
        for metric in spec["end_to_end"]:
            medians = {}
            for name in SETS:
                values = [r["metrics"][metric["name"]]["value"]
                          for r in results[workload, name]]
                q1, median, q3 = summary(values)
                medians[name] = median
                spread = (q3 - q1) / median
                steady = spread <= metric["bound"]
                ok &= steady
                print(f"{workload:22s} {metric['name']:13s} {name:3s} "
                      f"{q1:11.5g} {median:11.5g} {q3:11.5g} {spread:7.3f} "
                      f"{metric['bound']:6.2f} "
                      f"{'steady' if steady else 'SPREAD ABOVE BOUND'}"
                      f"{'' if spread <= metric['bound'] / 3 else ' (above a third)'}")
            change = medians["B"] / medians["A"] - 1
            agree = abs(change) <= metric["bound"]
            ok &= agree
            print(f"{workload:22s} {metric['name']:13s} B vs A: "
                  f"{100 * change:+.1f}%, "
                  f"{'agree' if agree else 'DISAGREE'}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(
        {f"{w} {s}": runs for (w, s), runs in results.items()}, indent=1))
    print(f"{'all agree within bounds' if ok else 'NOT STEADY'}; runs in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
