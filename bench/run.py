"""Benchmark for the chainlogic CLI: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports chainlogic from this checkout's src/ and writes the seeded
inputs. It is timed cold, in fresh processes (see coldstart.py), several
times, and the median is reported; this process imports chainlogic once and
writes the inputs it uses untimed. Then one
closed-loop client calls ``chainlogic.cli.run_cli`` in-process (or a library
function where no verb exists) for round(S / nominal pass time) passes over
the query list, with no threads or worker pools and falsify's workers at 1,
so the numbers measure the program, not the scheduler. Every output is
checked against the oracles in ``workloads`` and ``oracle`` after timing.

The machine shares its cores and caches with other tenants, and the
program's speed follows their load by a quarter or more within seconds.
End-to-end times are therefore reported at the nominal speed of a fixed
integer loop timed between queries (see SpeedProbe); the raw times stay in
the report next to them.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
one untraced pass is followed by a traced pass and the last line carries
the per-layer metrics. Reports and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import oracle
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
COLDSTART = os.path.join(BENCH_DIR, "coldstart.py")
SETUPS = 9
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class PackageMissing(RuntimeError):
    pass


def load_package():
    """Import chainlogic from this checkout's src/ and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("chainlogic")
        importlib.import_module("chainlogic.cli")
    except ImportError as exc:
        raise PackageMissing(f"cannot import chainlogic from {SRC}: {exc}") from exc
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise PackageMissing(f"chainlogic was imported from {pkg.__file__}, not {SRC}")
    return pkg


class SpeedProbe:
    """Samples the machine's speed with a fixed integer loop.

    The machine shares its cores and caches with other tenants, and their
    load changes how fast it runs Python by a quarter or more within
    seconds. The loop touches no program state, so its time tracks only
    that speed. Samples are taken between queries, at most one per
    SAMPLE_GAP_S; a time measured over [start, end] is reported at nominal
    speed, scaled by NOMINAL_S over the median sample within WINDOW_S of
    the interval.
    """

    NOMINAL_S = 0.0012
    SAMPLE_GAP_S = 0.15
    WINDOW_S = 1.0

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, force: bool = False) -> None:
        if not force and self.times and perf_counter() - self.times[-1] < self.SAMPLE_GAP_S:
            return
        self._loop()  # untimed, so the timed loop does not inherit the query's cache state
        start = perf_counter()
        self._loop()
        self.samples.append(perf_counter() - start)
        self.times.append(start)

    @staticmethod
    def _loop() -> None:
        x = 0
        for i in range(20_000):
            x += i * i

    def scale(self, seconds: float, start: float) -> float:
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + self.WINDOW_S)
        window = self.samples[lo:hi]
        if len(window) < 3:
            i = bisect.bisect_left(self.times, start)
            window = self.samples[max(0, i - 2):i + 2]
        return seconds * self.NOMINAL_S / statistics.median(window)


Setup = collections.namedtuple("Setup", "start seconds digest")
Record = collections.namedtuple("Record", "spec start seconds rc stdout error")


def cold_setup(workload: str, seed: int, directory: str, hash_seed: int, probe: SpeedProbe) -> Setup:
    """One set-up in a fresh process (coldstart.py). Each process gets its
    own PYTHONHASHSEED, so inputs that depended on set or dict order would
    show as differing digests."""
    probe.sample(force=True)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, COLDSTART, workload, str(seed), directory],
        capture_output=True, text=True, env=env, timeout=120,
    )
    probe.sample(force=True)
    if proc.returncode == 2:
        raise PackageMissing(proc.stderr.strip())
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return Setup(line["start"], line["seconds"], line["digest"])


def sweep_bounds(pkg, spec):
    return pkg.SearchBounds(3, 2, 2, mode=pkg.RandomMode(spec["seed"], spec["trials"]))


def run_query(pkg, spec, resolve):
    """One timed query: (seconds, exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        if "argv" in spec:
            argv = resolve(spec["argv"])
            start = perf_counter()
            rc = pkg.cli.run_cli(argv, stdout=out, stderr=err)
            return perf_counter() - start, rc, out.getvalue(), err.getvalue()
        bounds = sweep_bounds(pkg, spec)
        start = perf_counter()
        rep = pkg.soundness_sweep(spec["schema"], bounds, spec["trials"])
        elapsed = perf_counter() - start
        return elapsed, None, json.dumps({"trials": rep.trials, "violations": rep.violations}), ""
    except Exception as exc:  # a crash is a failed query, not a crashed run
        return math.nan, "exception", "", repr(exc)


def timed_pass(pkg, queries, resolve, probe: SpeedProbe) -> list[Record]:
    records = []
    for spec in queries:
        probe.sample()
        records.append(Record(spec, perf_counter(), *run_query(pkg, spec, resolve)))
        # A CLI process exits after one query and never collects its
        # garbage; collecting here, untimed, starts every query from the
        # same heap, so neither time nor memory depends on earlier queries.
        gc.collect()
    probe.sample(force=True)
    return records


class Checker:
    """Checks outputs against the oracles, once per distinct output."""

    def __init__(self, workload: str):
        self.workload = workload
        self._verdicts: dict = {}
        self._countermodels: dict = {}

    def _first_countermodel(self, spec):
        if spec["id"] not in self._countermodels:
            self._countermodels[spec["id"]] = oracle.first_countermodel(
                spec["formula"], spec["channels"], 2, ("p",)
            )
        return self._countermodels[spec["id"]]

    def problem(self, spec, rc, stdout, error="") -> str | None:
        key = (spec["id"], rc, stdout)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(spec, rc, stdout, error)
        return self._verdicts[key]

    def _check(self, spec, rc, stdout, error) -> str | None:
        if rc == "exception":
            return "exception: " + error
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"unparsable output (exit {rc}): {stdout[:200]!r} {error[:200]!r}"
        if rc is None:
            return workloads.check_sweep(spec, payload)
        if self.workload == "telephone-eval":
            return workloads.check_telephone_eval(spec, rc, payload)
        if self.workload == "chain-valid":
            return workloads.check_chain_valid(spec, rc, payload)
        if self.workload == "falsify-exhaustive":
            return workloads.check_falsify(spec, rc, payload, self._first_countermodel)
        return workloads.check_prove(spec, rc, payload)


def tail_percentile(n: int) -> float:
    """Highest grid percentile with at least ten samples beyond it."""
    for p in TAIL_GRID:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return TAIL_GRID[-1]


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def provenance(workload: str, seed: int, seconds: int, trace_on: bool) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace_on,
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(),
        "note": "one process, one closed-loop client, no threads; falsify runs with workers=1",
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read, not executed)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        pkg = load_package()
        probe = SpeedProbe()
        setups = [
            cold_setup(args.workload, args.seed, os.path.join(work, f"cold{i}"), i + 1, probe)
            for i in range(SETUPS)
        ]
        inputs = os.path.join(work, "inputs")
        queries = workloads.write_inputs(args.workload, random.Random(args.seed), inputs)
        digests = [st.digest for st in setups] + [workloads.digest_inputs(inputs)]
        gc.collect()
        resolve = lambda argv: [a.replace("{inputs}", inputs) for a in argv]
        report = measure(args, pkg, queries, resolve, setups, digests, probe)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report.pop("tracer").write(os.path.join(OUT, stem + ".spans.json.gz"), report["metrics"])
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({k: v for k, v in report.items() if k not in ("metrics", "timeline")}))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def measure(args, pkg, queries, resolve, setups, digests, probe) -> dict:
    checker = Checker(args.workload)
    identical = len(set(digests)) == 1
    report = {
        "provenance": provenance(args.workload, args.seed, args.seconds, bool(args.trace)),
        "input_digest": digests[-1],
        "inputs_identical_across_processes": identical,
        "setup_s_each_raw": [st.seconds for st in setups],
        "queries_per_pass": len(queries),
    }
    failures: list[str] = []

    def check_all(records):
        bad = 0
        for r in records:
            problem = checker.problem(r.spec, r.rc, r.stdout, r.error)
            if problem:
                bad += 1
                failures.append(f"{r.spec['id']} ({r.spec['group']}): {problem}")
        return bad

    if not args.trace:
        passes = max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
        by_pass = [timed_pass(pkg, queries, resolve, probe) for _ in range(passes)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records = [r for recs in by_pass for r in recs]
        failed = check_all(records)
        scaled = lambda r: probe.scale(r.seconds, r.start)
        timed = [r for r in records if not math.isnan(r.seconds)]
        latencies = sorted(scaled(r) * 1e3 for r in timed)
        raw = sorted(r.seconds * 1e3 for r in timed)
        p = tail_percentile(len(latencies))
        walls = [sum(scaled(r) for r in recs) for recs in by_pass]
        raw_walls = [sum(r.seconds for r in recs) for recs in by_pass]
        setup_s = [probe.scale(st.seconds, st.start) for st in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "query_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
            "query_tail_ms": {"value": nearest_rank(latencies, p), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report.update({
            "passes": passes,
            "raw": {
                "setup_s": statistics.median(st.seconds for st in setups),
                "wall_s": statistics.median(raw_walls),
                "query_p50_ms": statistics.median(raw),
                "query_tail_ms": nearest_rank(raw, p),
            },
            "speed_factor_median": statistics.median(scaled(r) / r.seconds for r in timed if r.seconds),
            "speed_samples": len(probe.samples),
            "wall_s_each": walls,
            "wall_s_each_raw": raw_walls,
            "query_tail_percentile": p,
            "query_count": len(latencies),
            "failed_frac": {"value": failed / len(records), "unit": "ratio"},
            "by_group_p50_ms": group_medians(timed, scaled),
            "timeline": {
                "queries": [(r.start, r.seconds, r.spec["id"]) for r in records],
                "probe": list(zip(probe.times, probe.samples)),
            },
        })
    else:
        records = timed_pass(pkg, queries, resolve, probe)
        tracer, outputs = tracing.traced_pass(
            pkg, args.workload, queries, resolve, lambda spec: sweep_bounds(pkg, spec), probe
        )
        probe.sample(force=True)
        wall = sum(probe.scale(r.seconds, r.start) for r in records)
        records += [Record(spec, 0.0, 0.0, rc, stdout, error) for spec, rc, stdout, error in outputs]
        failed = check_all(records)
        layers = tracing.layer_metrics(tracer, queries, wall, probe.scale)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.LAYERS}
        report.update({
            "untraced_wall_s": wall,
            "span_count": len(tracer.spans),
            "self_ms": tracer.self_ms(),
            "failed_frac": {"value": failed / len(records), "unit": "ratio"},
            "tracer": tracer,
        })
    report.update({
        "correct": failed == 0 and identical,
        "attempted": len(records),
        "failed": failed,
        "failures": failures[:20],
        "metrics": metrics,
    })
    return report


def group_medians(records, scaled) -> dict[str, float]:
    """Median scaled latency (ms) per query class."""
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r.spec["group"], []).append(scaled(r) * 1e3)
    return {g: statistics.median(v) for g, v in sorted(groups.items())}


if __name__ == "__main__":
    sys.exit(main())
