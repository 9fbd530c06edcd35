"""One fresh interpreter of a benchmark run.

    python3 worker.py setup '<setup json>'
        Times importing ``diffreg.cli`` and building the workload's basis and
        kernels; prints ``{"setup_s": ...}``.

    python3 worker.py run PLAN.json RESULT.json SECONDS TRACE
        Runs the plan's cycles of CLI commands through ``diffreg.cli.main``, in
        process as the ``diffreg`` script does.  With TRACE 0 it runs whole
        cycles until SECONDS have passed.  With TRACE 1 it runs one untimed
        warm-up cycle, then TRACE_CYCLES cycles twice each, once plain and once
        under the tracer, in alternating order, so the layer counts repeat
        exactly and the two timings give the tracing overhead.  Writes timings
        to RESULT.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: plain/traced pairs of a traced run, an even number so each order runs equally often
TRACE_CYCLES = 2


def measure_setup(spec: dict) -> float:
    start = time.perf_counter()
    import diffreg.cli  # noqa: F401  (the import is what is timed)
    from diffreg import KernelSpec, assemble, identity_op, make_cosine_basis, neg_laplacian

    basis = make_cosine_basis(spec["p"], spec["n_quad"])
    assemble(basis, neg_laplacian(), identity_op(), neg_laplacian(), KernelSpec(h=0.01))
    return time.perf_counter() - start


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Facts about this interpreter that the timings depend on."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def run_command(main, command: dict, out: str, tracer=None) -> dict:
    """One CLI command; a crash counts as exit code 1."""
    argv = [*command["argv"], "--out", out]
    start = time.perf_counter()
    try:
        rc = tracer.span("cli.main", main, argv) if tracer else main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed unit, not a failed benchmark
        print(f"{command['name']} raised {exc!r}", file=sys.stderr)
        rc = 1
    seconds = time.perf_counter() - start
    bytes_out = _dir_bytes(out) if os.path.isdir(out) else 0
    if tracer is not None:
        tracer.count("cli.bytes_out", bytes_out)
    return {**command, "out": out, "rc": rc, "seconds": seconds, "bytes_out": bytes_out}


def _clear(cycle: dict) -> None:
    for path in cycle["clear"]:
        if os.path.exists(path):
            os.remove(path)


def run_timed(main, plan: dict, seconds: float) -> tuple[list, float]:
    records = []
    start = time.perf_counter()
    for index, cycle in enumerate(plan["cycles"]):
        _clear(cycle)
        for command in cycle["commands"]:
            records.append({"cycle": index, **run_command(main, command, command["out"])})
        if time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start


def run_traced(main, plan: dict) -> tuple[list, dict]:
    from tracer import Tracer

    tracer = Tracer()
    first = plan["cycles"][0]
    _clear(first)  # warm-up: first-call costs of the process land on neither side
    records = [{"cycle": 0, "variant": "warmup", **run_command(main, c, f"{c['out']}_warmup")}
               for c in first["commands"]]
    plain_s = traced_s = 0.0
    for index, cycle in enumerate(plan["cycles"][:TRACE_CYCLES]):
        order = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        for variant in order:
            _clear(cycle)
            for command in cycle["commands"]:
                out = f"{command['out']}_{variant}"
                if variant == "traced":
                    with tracer:
                        rec = run_command(main, command, out, tracer)
                    traced_s += rec["seconds"]
                else:
                    rec = run_command(main, command, out)
                    plain_s += rec["seconds"]
                records.append({"cycle": index, "variant": variant, **rec})
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return records, metrics


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        print(json.dumps({"setup_s": measure_setup(json.loads(argv[1]))}))
        return 0
    plan_path, result_path, seconds, trace = argv[1], argv[2], float(argv[3]), argv[4] == "1"
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import diffreg.cli

    result = {"environment": environment()}
    if trace:
        result["records"], result["layers"] = run_traced(diffreg.cli.main, plan)
    else:
        result["records"], result["elapsed_s"] = run_timed(diffreg.cli.main, plan, seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
