#!/usr/bin/env python3
"""Run each workload on several seeds and report the spread of every metric.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --out perfbench/history/BENCH_baseline.json

Every workload in BENCHMARK.json runs on seeds 1..10 for its
``run_seconds``, each run ``perfbench/run.py --trace 0`` in its own process,
one at a time.  The spread of a metric is (Q3 - Q1) / median over the runs,
with quartiles from ``statistics.quantiles(values, n=4)``; a metric is
steady when its spread is below a third of its bound in BENCHMARK.json.
``--out`` writes every run's values and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing: {proc.stderr[-2000:]}")
    info = json.loads(lines[0])
    return info, json.loads(lines[-1])


def summarize(values: list, bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write runs and summary to this JSON file")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    all_steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            info, result = run_once(workload, seed, seconds)
            report.setdefault("env", info["env"])
            runs.append({"seed": seed, "drops": info["env"]["drops"],
                         "sha256_fixed_csv": info["sha256_fixed_csv"],
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={result['correct']} drops={info['env']['drops']}",
                  file=sys.stderr, flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs], bound)
                   for name, bound in bounds.items()}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            all_steady &= s["steady"]
            print(f"{workload:14s} {name:14s} median={s['median']:.6g} spread={s['spread']:.4f}"
                  f" bound={s['bound']} {'ok' if s['steady'] else 'UNSTEADY'}")
        all_steady &= all(r["correct"] for r in runs)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
