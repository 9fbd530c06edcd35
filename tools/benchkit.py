"""Timing helpers shared by the layer harnesses in ``tools/``.

Each harness pins the BLAS thread variables to 1 before it imports numpy,
times its routes with :func:`best_ms` and writes a ``BENCH_<label>.json``
with :func:`write_bench`, which adds :func:`environment`.  A harness that
times a baseline checkout beside this tree imports it with
:func:`load_package`.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import sys
import time

import numpy as np


def best_ms(fns, repeats: int, number) -> list[float]:
    """Per function, the minimum over ``repeats`` of the mean time of ``number`` calls, in ms.

    ``number`` is one count for every function or a list with one per
    function.  The functions take turns within each repeat, so a change in
    machine load reaches all of them alike.
    """
    numbers = [number] * len(fns) if isinstance(number, int) else number
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, (fn, count) in enumerate(zip(fns, numbers)):
            start = time.perf_counter()
            for _ in range(count):
                fn()
            best[i] = min(best[i], (time.perf_counter() - start) / count)
    return [seconds * 1e3 for seconds in best]


def calls_per_block(fn, seconds: float = 0.05) -> int:
    """How many calls of ``fn`` fill about ``seconds``, from the time of one call."""
    start = time.perf_counter()
    fn()
    return max(1, math.ceil(seconds / (time.perf_counter() - start)))


def load_package(root: str, name: str):
    """The diffreg package under ``root``/src, imported as module ``name``."""
    folder = os.path.join(os.path.abspath(root), "src", "diffreg")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(folder, "__init__.py"), submodule_search_locations=[folder]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def write_bench(path: str, header: dict, cases: list) -> None:
    """Write ``header``, the environment and ``cases`` as one indented JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, "environment": environment(), "cases": cases}, fh, indent=2)
        fh.write("\n")
