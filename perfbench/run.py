"""relevance-kit CLI benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one CLI command in a fresh interpreter (``child.py``),
started only after the previous one exits: a closed loop with one
client.  Operations repeat until ``--seconds`` have passed.  Every
report is checked (``checks.py``).  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` untraced and
traced operations alternate and it carries the per-layer metrics.
Workload and metric definitions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import checks
import tracing
from workloads import REFERENCE_SEED, WORKLOADS, command_argv, write_csv

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3  # import-only children per run, so setup_s has enough samples
MIN_OPS = 2  # a run makes at least this many operations (one traced pair), even past --seconds
RUN_LIMIT_S = 170.0  # a run, set-up included, must end well inside 180 s
CHILD_ENV = {
    "RELEVANCE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def reference_path(name):
    return os.path.join(BENCH_DIR, "reference", f"{name}.json")


class Failure(Exception):
    """An operation that did not produce a checked report."""


class Runner:
    def __init__(self, root, workload, seed, work_dir, reference=None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.src = os.path.join(root, "src")
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=self.src, **CHILD_ENV)
        self.validator = checks.load_schema(
            os.path.join(self.src, "relevance_kit", "schemas", "report.schema.json"))
        self.csv_path, self.raw_labels, self.csv_bytes = None, None, 0
        if workload.csv is not None:
            self.csv_path = os.path.join(work_dir, "input.csv")
            self.raw_labels, self.csv_bytes = write_csv(workload.csv, seed, self.csv_path)
        self.reference = reference
        self.trials = None
        if "--trials" in workload.command:
            self.trials = int(workload.command[workload.command.index("--trials") + 1])

    def child(self, argv, trace=False):
        """Run one child; returns its timings with ``setup_s`` added."""
        spec = os.path.join(self.work_dir, "spec.json")
        result = os.path.join(self.work_dir, "child.json")
        with open(spec, "w") as fh:
            json.dump({"argv": argv, "trace": trace, "src": self.src, "result": result}, fh)
        if os.path.exists(result):
            os.remove(result)
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise Failure("run time limit reached")
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec],
                                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Failure("timed out") from None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0 or not os.path.exists(result):
            raise Failure(f"child exited {proc.returncode}: {stderr.decode(errors='replace')[-2000:]}")
        with open(result) as fh:
            timings = json.load(fh)
        timings["setup_s"] = timings["ready"] - spawned
        if argv is not None and timings["rc"] != 0:
            raise Failure(f"cli exited {timings['rc']}: {stderr.decode(errors='replace')[-2000:]}")
        return timings

    def operation(self, trace=False):
        """One checked CLI command; returns (timings, report bytes)."""
        out = os.path.join(self.work_dir, "report.json")
        argv = command_argv(self.workload, self.seed, self.csv_path, out)
        timings = self.child(argv, trace)
        with open(out, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        problems = checks.check_report(report, self.validator, self.raw_labels, self.trials)
        if not problems and self.reference is not None:
            problems = checks.compare_reference(report, self.reference)
        if problems:
            raise Failure("; ".join(problems[:5]))
        return timings, raw


def metadata(args):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "threads": CHILD_ENV,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _summary(name, values, unit):
    return (f"{name:34s} median {_median(values):.6g} {unit}  "
            f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")


def run(args, root):
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(BENCH_DIR, ".work", f"{workload.name}-{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    reference = None
    if args.seed == REFERENCE_SEED:
        with open(reference_path(workload.name)) as fh:
            reference = json.load(fh)
    runner = Runner(root, workload, args.seed, work_dir, reference)

    setups = [runner.child(None)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced, spans = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        plain_raw = None
        for trace in ((False, True) if args.trace else (False,)):
            attempted += 1
            try:
                timings, raw = runner.operation(trace)
            except Failure as exc:
                failed += 1
                print(f"operation {attempted} failed: {exc}", file=sys.stderr)
                continue
            setups.append(timings["setup_s"])
            if not trace:
                plain.append(timings)
                plain_raw = raw
                continue
            if plain_raw is not None and raw != plain_raw:
                failed += 1
                print(f"operation {attempted}: traced report differs from the untraced one", file=sys.stderr)
                continue
            timings["layers"] = tracing.layer_metrics(timings["spans"], timings["shp_rank_fracs"],
                                                      runner.csv_bytes)
            spans += [[len(traced)] + span for span in timings.pop("spans")]
            traced.append(timings)
        if time.monotonic() - start >= args.seconds and attempted >= MIN_OPS:
            break
        if failed and not (plain or traced):
            break
    if not plain or (args.trace and not traced):
        raise SystemExit(f"no operation of {workload.name} succeeded")
    if runner.csv_path:
        os.remove(runner.csv_path)  # up to 20 MB per run; the seed regenerates it

    wall = [t["wall_s"] for t in plain]
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {name: _median([t["layers"][name] for t in traced]) for name in names}
        metrics["proc.cpu_s"] = _median([t["cpu_s"] for t in traced])
        metrics["trace.overhead_s"] = _median([t["wall_s"] for t in traced]) - _median(wall)
        units = {name: _unit(name) for name in metrics}
        with open(os.path.join(work_dir, "spans.jsonl"), "w") as fh:
            fh.write(json.dumps(["op", "id", "parent", "name", "start", "end", "work", "error"]) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = {
            "wall_s": _median(wall),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([t["maxrss_kb"] / 1024.0 for t in plain]),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
        print(_summary("wall_s", wall, "s"))
        print(_summary("setup_s", setups, "s"))
        print(_summary("peak_rss_mb", [t["maxrss_kb"] / 1024.0 for t in plain], "MiB"))
    error_rate = failed / attempted
    print(f"{'error_rate':34s} {error_rate:.6g} ratio  ({failed} of {attempted} operations failed)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:34s} {value:.6g} {units[name]}")
        gap = max(abs(sum(t["layers"][n] for n in tracing.SELF_TIME.values()) - t["layers"]["trace.wall_s"])
                  for t in traced)
        print(f"layer self times plus cli.self_s equal trace.wall_s to {gap:.3g} s on every traced operation")
    meta = metadata(args)
    meta["csv_bytes"] = runner.csv_bytes
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({"meta": meta, "error_rate": error_rate, "metrics": metrics,
                   "wall_s": wall, "setup_s": setups}, fh, indent=1)
    print("meta " + json.dumps(meta))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def _unit(name):
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("calls") or name.endswith("errors"):
        return "count"
    return "ratio"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "relevance_kit", "cli.py")):
        sys.exit(f"{root}/src/relevance_kit is missing: run from the root of a relevance-kit checkout")
    run(args, root)


if __name__ == "__main__":
    main()
