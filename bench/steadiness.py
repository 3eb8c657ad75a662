"""Run-to-run spread of every metric, and one input digest per seed.

    python3 bench/steadiness.py

Runs bench/run.py once per (workload, seed, trace) for every workload of
BENCHMARK.json, seeds 1 to 10 and --trace 0 and 1, one process at a time.
For each metric it reports the distance between the first and third
quartile of its ten values as a share of their median (null where the
median is 0), next to the bound of the end-to-end metrics. It also checks
that both runs of a seed, separate processes, report the same input
digest. Writes bench/steadiness.json; exits 1 if a run fails, is not
correct, or a seed's digests differ.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = range(1, 11)


def spread(values) -> float | None:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def run(spec, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result line, report line)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(report)


def summarize(runs, names, bounds) -> dict:
    summary = {}
    for name in names:
        values = [r[name] for r in runs]
        s = spread(values)
        summary[name] = {"median": statistics.median(values), "spread": s}
        if name in bounds:
            summary[name]["bound"] = bounds[name]
            summary[name]["within_third_of_bound"] = s is not None and s < bounds[name] / 3
    return summary


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec["per_layer"]]
    result = {"seeds": list(SEEDS), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        by_trace = {0: [], 1: []}
        for seed in SEEDS:
            digests = set()
            for trace in (0, 1):
                line, report = run(spec, workload, seed, trace)
                digests.add(report["input_digest"])
                ok &= line["correct"] and report["inputs_identical_across_processes"]
                by_trace[trace].append({"seed": seed, "correct": line["correct"],
                                        **{k: v["value"] for k, v in line["metrics"].items()}})
                print(workload, seed, trace, json.dumps(by_trace[trace][-1]), flush=True)
            if len(digests) != 1:
                print(f"{workload} seed {seed}: input digests differ: {sorted(digests)}", file=sys.stderr)
                ok = False
        result["workloads"][workload] = {
            "end_to_end": summarize(by_trace[0], bounds, bounds),
            "per_layer": summarize(by_trace[1], layers, bounds),
            "runs_trace0": by_trace[0],
            "runs_trace1": by_trace[1],
        }
        print(workload, json.dumps(result["workloads"][workload]["end_to_end"]), flush=True)
    with open(os.path.join(BENCH_DIR, "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
