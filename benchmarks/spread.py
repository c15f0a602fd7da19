"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 benchmarks/spread.py [--workloads a,b] [--seeds 10] [--first-seed 0]
                                 [--trace 0|1] [--out FILE]

runs ``run.py`` once per workload and seed, one run at a time, with the run
length from BENCHMARK.json.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, and marks end-to-end spreads above a third of the
metric's bound.  ``--out`` writes every run's result, environment and
per-command medians as JSON, the format of ``results/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    run = {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1])}
    commands, command_layers = {}, {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "detail"):
            run[tag] = json.loads(rest)
        elif tag == "cmd":
            wall, _, repeats, label = rest.split(None, 3)
            commands[label] = float(wall)
        elif tag == "layers":
            entry = json.loads(rest)
            command_layers[entry["label"]] = entry["layers"]
    run["commands"] = commands
    if command_layers:
        run["command_layers"] = command_layers
    return run


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        batch = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            result = run["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            batch.append(run)
        runs += batch
        summary[workload] = {}
        for name in batch[0]["result"]["metrics"]:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in batch])
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER BOUND" if stats["spread"] > bound else (
                    "over bound/3" if stats["spread"] > bound / 3 else "ok")
            print(f"  {name:36} median {stats['median']:14.6f}  q1 {stats['q1']:14.6f}  "
                  f"q3 {stats['q3']:14.6f}  spread {stats['spread']:8.4f}  {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
