"""diffreg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; the
script exits with code 2, printing no result, when that source is missing.

Every run strips inherited BLAS thread caps (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) so the library's default threading
is what gets measured, and records the thread settings it saw.  Inputs are
made from ``--seed`` before anything is timed.  Then:

* ``--trace 0`` times ``SETUP_SAMPLES`` fresh interpreters importing
  ``diffreg.cli`` and building the workload's basis and kernels, then one
  fresh interpreter running whole cycles of CLI commands for S seconds.
  Metrics: ``setup_s`` (median set-up), ``throughput_per_s`` (units
  completed per second of the command loop), ``latency_s_p50`` (median
  wall time of one CLI command) and ``peak_rss_mb`` (peak resident memory
  of the command process).
* ``--trace 1`` runs a warm-up cycle, then a fixed number of cycles plain
  and traced in one fresh interpreter, and reports the per-layer metrics of
  ``tracer.LAYER_METRICS`` plus ``trace.overhead_pct``.

After the commands, every output is checked (see ``workloads``); a unit
fails when its command exits non-zero, its replication is skipped or an
output check fails.  ``fail_ratio`` = failed / attempted is printed with
the other metrics.  The last stdout line is the JSON result; a record with
the environment and every sample goes to ``.perfbench_results/``.
``--workload all`` runs every workload in turn and ends with one JSON line
whose metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
#: a set-up probe or the command loop is killed after these many seconds
#: (past its budget, for the loop), so a run ends inside three minutes even
#: if the program hangs
SETUP_TIMEOUT_S = 10.0
WORKER_GRACE_S = 90.0


def child_env() -> dict:
    from worker import THREAD_VARS

    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def setup_samples(spec: dict, env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "setup", json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_worker(plan_path: str, result_path: str, seconds: float, trace: int, env: dict):
    """Run the command loop in a fresh interpreter; None if it did not finish."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "run", plan_path, result_path,
             str(seconds), str(trace)],
            env=env, timeout=seconds + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        print("command loop timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"command loop exited with code {proc.returncode}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_records(workload, plan, records: list) -> tuple[int, int, list]:
    """Attempted and failed units over all command records, with problems."""
    attempted = failed = 0
    problems: list = []
    cache: dict = {}
    plain = {}
    for rec in records:
        attempted += rec["units"]
        if rec.get("variant") == "plain":
            plain[(rec["cycle"], rec["name"])] = rec["out"]
        if rec["rc"] != 0:
            failed += rec["units"]
            problems.append(f"{rec['name']} in cycle {rec['cycle']} exited {rec['rc']}")
            continue
        bad, msgs = workload.check(plan, rec, cache)
        failed += bad
        problems += [f"{rec['name']} cycle {rec['cycle']}: {m}" for m in msgs]
    for rec in records:
        if rec.get("variant") == "traced":
            twin = plain.get((rec["cycle"], rec["name"]))
            if twin is None or not same_files(twin, rec["out"]):
                failed += rec["units"]
                problems.append(f"{rec['name']} cycle {rec['cycle']}: traced outputs differ")
    return attempted, failed, problems


def same_files(a: str, b: str) -> bool:
    """True when two output directories hold the same files byte for byte."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def end_to_end(records: list, elapsed: float, failed: int, peak_rss_mb: float,
               setup: list[float]) -> dict:
    attempted = sum(r["units"] for r in records)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "throughput_per_s": {"value": (attempted - failed) / elapsed, "unit": "1/s"},
        "latency_s_p50": {"value": statistics.median(r["seconds"] for r in records), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def workload_why(name: str) -> str:
    """The reason BENCHMARK.json gives for a workload, if the file is there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            entries = json.load(fh)["workloads"]
    except (OSError, ValueError, KeyError):
        return ""
    return next((w["why"] for w in entries if w["name"] == name), "")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One run of one workload; prints its report and returns the result doc."""
    from tracer import LAYER_METRICS
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    env = child_env()
    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        plan = workload.build(seed, work)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"cycles": plan.cycles}, fh)
        setup = [] if trace else setup_samples(plan.setup, env)
        result = run_worker(plan_path, os.path.join(work, "result.json"), seconds, trace, env)
        if result is None:
            return None
        records = result["records"]
        attempted, failed, problems = check_records(workload, plan, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in problems[:20]:
        print(f"check failed: {msg}")
    print(f"workload {name}: {workload_why(name)}")
    print(f"environment {json.dumps(result['environment'], sort_keys=True)}")
    if trace:
        layers = result["layers"]
        metrics = {metric: {"value": layers[metric], "unit": unit}
                   for metric, unit, *_ in LAYER_METRICS}
        for metric, unit, _better, _source, moves in LAYER_METRICS:
            print(f"  {metric:<30} {layers[metric]:>12.6g} {unit:<6} moves: {moves}")
    else:
        metrics = end_to_end(records, result["elapsed_s"], failed, result["peak_rss_mb"], setup)
        print(f"  {'setup_s':<18} {metrics['setup_s']['value']:.4f} s "
              f"(median of {len(setup)} fresh interpreters)")
        rate = metrics["throughput_per_s"]["value"]
        print(f"  {'throughput_per_s':<18} {rate:.4f} 1/s ({plan.unit})")
        print(f"  {'latency_s_p50':<18} {metrics['latency_s_p50']['value']:.4f} s "
              f"(median of {len(records)} commands)")
        print(f"  {'peak_rss_mb':<18} {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  {'fail_ratio':<18} {failed / attempted:.4f} ({failed}/{attempted} {plan.unit})")

    doc = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    results_dir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, f"{name}-seed{seed}-trace{trace}-{stamp}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**doc, "environment": result["environment"], "setup_samples": setup,
                   "records": records, "problems": problems}, fh, indent=1)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diffreg", "cli.py")):
        print(f"no diffreg source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    docs = {}
    for name in names:
        docs[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if docs[name] is None:
            return 1
    if len(names) == 1:
        print(json.dumps(docs[names[0]]))
        return 0
    combined = {
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": {f"{name}.{metric}": value for name, d in docs.items()
                    for metric, value in d["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
