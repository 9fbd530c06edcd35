"""Time reading and writing a dataset's U.csv and F.csv, with and without .npz sidecars.

    python tools/bench_dataset_io.py [--baseline ROOT] [--repeats K] [--out FILE]

For each (p, n) in CASES it draws a dataset from the simulation design with
numpy alone and times four routes of this tree:

- ``sidecar_ms``: ``load_dataset`` on files ``save_dataset`` wrote, which
  reads the matrices from the sidecars;
- ``foreign_ms``: ``load_dataset`` on the same CSV bytes with no sidecar,
  as for a CSV another tool wrote; it parses;
- ``stale_ms``: ``load_dataset`` on CSVs whose sidecars were written for
  other CSVs, so their digests do not match; it hashes, then parses;
- ``save_ms``: ``save_dataset``, sidecars included.

ROOT, when given, is another diffreg checkout (the directory holding
``src/``, for example ``git archive`` of the parent commit, named after its
directory); its ``load_dataset`` and ``save_dataset`` are timed beside on
the same CSV bytes.  The figure is the minimum over K repeats of the mean
time of enough calls to fill about 50 ms, the routes taking turns within
each repeat, with BLAS pinned to one thread.

Each case also checks that the sidecar route returns U and F bit for bit
equal to the parse, and to the matrices written (``identical``).  The
figures go to FILE (default BENCH_dataset_io.json).
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import diffreg  # noqa: E402
from benchkit import best_ms, calls_per_block, load_package, write_bench  # noqa: E402
from diffreg.ingest import SIDECAR_SUFFIX, load_dataset, save_dataset  # noqa: E402

CASES = tuple((p, n) for p in (10, 20, 30) for n in (200, 2000))
N_QUAD = 201
SEED = 20250101


def draw(p: int, n: int, seed: int) -> diffreg.DataSet:
    rng = np.random.default_rng([seed, p, n])
    ks = np.arange(1, p + 1)
    U = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (n, p)) * ks**-3.0
    F = U * (ks * np.pi) ** 2 + 0.5 * rng.standard_normal((n, p))
    return diffreg.DataSet(U=U, F=F, basis=diffreg.make_cosine_basis(p, N_QUAD))


def write_pair(folder: str, data) -> tuple[str, str]:
    os.makedirs(folder)
    paths = os.path.join(folder, "U.csv"), os.path.join(folder, "F.csv")
    save_dataset(data, *paths)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="root of another diffreg checkout to time beside")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default="BENCH_dataset_io.json")
    args = parser.parse_args(argv)
    base = load_package(args.baseline, "diffreg_baseline") if args.baseline else None
    base_io = importlib.import_module("diffreg_baseline.ingest") if base is not None else None
    label = os.path.basename(os.path.abspath(args.baseline)) if base is not None else None

    cases = []
    with tempfile.TemporaryDirectory() as work:
        for p, n in CASES:
            data = draw(p, n, SEED)
            case_dir = os.path.join(work, f"p{p}_n{n}")
            sidecar = write_pair(os.path.join(case_dir, "sidecar"), data)
            foreign = write_pair(os.path.join(case_dir, "foreign"), data)
            stale = write_pair(os.path.join(case_dir, "stale"), draw(p, n, SEED + 1))
            for fresh, bare, old in zip(sidecar, foreign, stale):
                os.remove(bare + SIDECAR_SUFFIX)
                shutil.copyfile(fresh, old)  # the CSV changed, its sidecar did not
            basis = data.basis
            routes = {
                "sidecar": lambda: load_dataset(*sidecar, basis),
                "foreign": lambda: load_dataset(*foreign, basis),
                "stale": lambda: load_dataset(*stale, basis),
                "save": lambda: save_dataset(data, *sidecar),
            }
            if base is not None:
                base_basis = base.make_cosine_basis(p, N_QUAD)
                base_data = base.DataSet(U=data.U, F=data.F, basis=base_basis)
                saved = write_pair(os.path.join(case_dir, "baseline"), data)
                routes["baseline_load"] = lambda: base_io.load_dataset(*foreign, base_basis)
                routes["baseline_save"] = lambda: base_io.save_dataset(base_data, *saved)

            fast, parsed, old = routes["sidecar"](), routes["foreign"](), routes["stale"]()
            identical = all(
                a.tobytes() == b.tobytes()
                for got in (fast, parsed, old)
                for a, b in ((got.U, data.U), (got.F, data.F))
            )
            fns = list(routes.values())
            times = dict(
                zip(routes, best_ms(fns, args.repeats, [calls_per_block(fn) for fn in fns]))
            )
            case = {"p": p, "n": n, **{f"{name}_ms": round(ms, 4) for name, ms in times.items()}}
            if base is not None:
                case["sidecar_speedup"] = round(times["baseline_load"] / times["sidecar"], 2)
                case["foreign_speedup"] = round(times["baseline_load"] / times["foreign"], 2)
                case["save_speedup"] = round(times["baseline_save"] / times["save"], 2)
            case["identical"] = identical
            cases.append(case)
            line = ", ".join(f"{name} {ms:7.3f} ms" for name, ms in times.items())
            print(f"p={p:2d} n={n:4d}: {line}; identical {identical}", flush=True)

    header = {
        "label": "dataset_io",
        "what": "load_dataset from .npz sidecars (sidecar_ms), from CSVs with no sidecar "
        "(foreign_ms) and with stale sidecars (stale_ms), and save_dataset with sidecars "
        "(save_ms)",
        "protocol": f"min of {args.repeats} alternating repeats of the mean of a ~50 ms block of "
        f"calls; seed {SEED}",
        "baseline": label,
        "check": "U and F from every route equal the matrices written, bit for bit",
    }
    write_bench(args.out, header, cases)
    return 0 if all(case["identical"] for case in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
