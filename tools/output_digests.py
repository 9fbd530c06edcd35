"""Run a fixed set of CLI commands from one source tree and print a sha256 per output.

    python tools/output_digests.py SRC OUT

SRC is the root of a diffreg checkout (the directory holding ``src/``);
OUT is a work directory, emptied first.  Every command runs in a fresh
interpreter with one BLAS thread and relative paths, so the outputs, and
the configs they embed, depend only on the code under SRC.  A refactor
that claims no numerical change must leave the printed list unchanged:

    python tools/output_digests.py PARENT_TREE OUT > before.txt
    python tools/output_digests.py . OUT > after.txt
    diff before.txt after.txt

The set covers simulate (a small table4 study under --threads 1 and 2, the
same study with its lambda grid reversed, a gcv_min/parametric cell with
refine_rounds 3, and a small cell with run_test false, the only records file
whose four test columns are empty; --threads is accepted and ignored, so the
``simulate_table4_t2`` cell checks that the flag changes nothing: its
digests must equal those of ``simulate_table4_t1``); fit and test on the
dataset ``simulate_table4_t1`` dumps, which diffreg wrote with its .npz
sidecars, so these cells read the sidecars, while every other dataset here
is written with numpy alone and parsed (a tree that writes no sidecars
parses this one too, to the same digests); sweep, fit, test and
spectrum on (p, n) = (10, 200), (20, 2000) and (10, 6) with no kernel
cache, a cache written and a cache read; sweep at (10, 200) with its grid
reversed; test at (10, 200) under the nonparametric and the parametric
strategy, whose replicates all resample the fit or the null residuals, and on
the basis interval [0.5, 2.0], whose test family's multipliers are not those
of the unit interval; fit under four L kinds and under P in {identity,
first_derivative} crossed with B in {neg_laplacian, first_derivative}; sweep
and fit at (10, 200) with bandwidth h = 0.001, where the kernel is exactly 0
on most of the quadrature grid; fit at (20, 2000) with bandwidth
h = 0.2, where K is singular and the jitter alone fixes c_hat on its null
space; and ``ingest --preset era5`` on a small
trajectory CSV with repeated ordinates, a subject split across the file
and a subject that fails the end gate, once as preset and once with a
roughness penalty of 1e-6 on the projection.
The dataset sidecars U.csv.npz and F.csv.npz are listed with the CSVs.
Kernel caches are not listed, because they sit at the top of OUT, beside
the configs, and not below a command folder; their bytes are as
deterministic as the sidecars', since every zip member is dated 1980-01-01.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np

DATASETS = {"p10_n200": (10, 200), "p20_n2000": (20, 2000), "p10_n6": (10, 6)}
FIT_L_KINDS = {
    "identity": {"kind": "identity"},
    "first_derivative": {"kind": "first_derivative"},
    "minus_const": {"kind": "neg_laplacian_minus_const", "param": 2.0},
    "scaled": {"kind": "scaled_neg_laplacian", "param": 0.5},
}
FIT_P_KINDS = ("identity", "first_derivative")
FIT_B_KINDS = ("neg_laplacian", "first_derivative")
SIM_SMALL_TABLE4 = {"reps": 8, "keep_bootstrap": 2, "dump_dataset": True}
# simulate sorts its grid, so this cell's records and bootstrap files match
# simulate_table4_t1's; only the config embedded in summary.json differs
SIM_REVERSED_GRID = {**SIM_SMALL_TABLE4, "lambda_grid": [1e5, 1e4, 1e3, 1e2, 1e1, 1e0]}
SIM_GCV_CELL = {
    "n": 100,
    "snr": 3.0,
    "omegas": [0.5],
    "reps": 4,
    "B": 100,
    "seed": 3,
    "strategy": "parametric",
    "test_lambda": "gcv_min",
    "refine_rounds": 3,
    "keep_bootstrap": 1,
}
SIM_NO_TEST_CELL = {
    "n": 30,
    "p": 4,
    "n_quad": 41,
    "snr": 3.0,
    "omegas": [0.84],
    "reps": 3,
    "seed": 5,
    "run_test": False,
    "refine_rounds": 1,
}


def write_dataset(out: str, folder: str, p: int, n: int, seed: int) -> dict:
    """U and F drawn from the simulation design with numpy alone, as headed CSVs.

    Returns the dataset section of a config, with paths relative to ``out``.
    """
    rng = np.random.default_rng(seed)
    ks = np.arange(1, p + 1)
    U = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (n, p)) * ks**-3.0
    F = U * (ks * np.pi) ** 2 + 0.5 * rng.standard_normal((n, p))
    os.makedirs(os.path.join(out, folder))
    paths = {}
    for name, mat in (("u_csv", U), ("f_csv", F)):
        path = os.path.join(folder, f"{name[0].upper()}.csv")
        header = ",".join(f"{name[0]}_{k}" for k in ks)
        np.savetxt(os.path.join(out, path), mat, fmt="%.17g", delimiter=",", header=header,
                   comments="")
        paths[name] = path
    return paths


def write_trajectories(out: str, folder: str, seed: int) -> str:
    """An era5-shaped trajectory CSV written with numpy alone; returns its path relative to ``out``.

    Twelve subjects sample a constant plus a cosine series with k^-3
    coefficients, plus noise, at 30 jittered ordinates spanning the
    preset's gates.  Subject s00 repeats ordinates, with other values, in
    shuffled rows; s01's rows come in two blocks with the other subjects
    between them; s02 ends above the end gate.
    """
    rng = np.random.default_rng(seed)
    a, length, m = 6.3, 0.6, 30
    ks = np.arange(1, 11)
    blocks = []
    for s in range(12):
        x = np.linspace(6.2975, 6.93 if s == 2 else 6.905, m)
        x[1:-1] += rng.uniform(-0.2, 0.2, m - 2) * (x[1] - x[0])
        if s == 0:
            x[[6, 13, 14]] = x[[5, 12, 12]]
        phi = np.sqrt(2.0 / length) * np.cos(np.outer(x - a, ks) * np.pi / length)
        values = [
            offset + phi @ (5.0 * ks**-3.0 * rng.uniform(-1.7, 1.7, ks.size))
            + 0.01 * rng.standard_normal(m)
            for offset in (280.0, 300.0)
        ]
        block = np.column_stack([np.full(m, s), x, *values])
        blocks.append(block[rng.permutation(m)] if s == 0 else block)
    rows = np.concatenate([blocks[1][: m // 2], *blocks[2:], blocks[0], blocks[1][m // 2 :]])
    os.makedirs(os.path.join(out, folder))
    path = os.path.join(folder, "tracks.csv")
    np.savetxt(os.path.join(out, path), rows, fmt="s%02d,%.17g,%.17g,%.17g",
               header="subject,log_p,T_real,T_pot", comments="")
    return path


def output_files(out: str) -> list[str]:
    """Paths relative to ``out`` of the outputs the digest list covers, in its order.

    Every file below a command folder; not the configs at the top, nor the
    ``data_*`` inputs.
    """
    found = []
    for root, _, files in sorted(os.walk(out)):
        rel = os.path.relpath(root, out)
        if rel == "." or rel.startswith("data_"):
            continue
        found += [os.path.join(rel, name) for name in sorted(files)]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = (os.path.abspath(arg) for arg in argv)
    if os.path.exists(out):
        shutil.rmtree(out)
    os.makedirs(out)
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(src, "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }

    def run(command: str, name: str, config: dict, *extra: str) -> None:
        with open(os.path.join(out, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
        args = [sys.executable, "-m", "diffreg.cli", command, "--config", f"{name}.json"]
        subprocess.run([*args, "--out", name, *extra], cwd=out, env=env, check=True)

    for threads in ("1", "2"):
        run("simulate", f"simulate_table4_t{threads}", SIM_SMALL_TABLE4,
            "--preset", "table4", "--threads", threads)
    run("simulate", "simulate_table4_reversed_grid", SIM_REVERSED_GRID, "--preset", "table4")
    run("simulate", "simulate_gcv_parametric", SIM_GCV_CELL)
    run("simulate", "simulate_no_test", SIM_NO_TEST_CELL)
    # a dataset diffreg wrote, so it loads from its sidecars where the tree writes them
    dumped = {
        "dataset": {"u_csv": "simulate_table4_t1/U.csv", "f_csv": "simulate_table4_t1/F.csv"},
        "basis": {"p": 10, "n_quad": 201},
        "kernel": {},
    }
    run("fit", "fit_table4_dataset", {**dumped, "lambda": 10.0})
    run("test", "test_table4_dataset", {**dumped, "lambda": 10.0, "B": 200, "seed": 7})

    for seed, (label, (p, n)) in enumerate(DATASETS.items()):
        base = {
            "dataset": write_dataset(out, f"data_{label}", p, n, seed),
            "basis": {"p": p},
        }
        commands = {
            "sweep": {"lambda_grid": [1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4]},
            "fit": {"lambda": 10.0},
            "test": {"lambda": 10.0, "B": 200, "seed": 7},
            "spectrum": {"top_m": p * p},
        }
        cache = f"kernels_{label}.npz"
        # no cache, then a cache written, then the same cache read
        for mode, kernel in (("nocache", {}), ("write", {"cache": cache}), ("read", {"cache": cache})):
            for command, settings in commands.items():
                run(command, f"{command}_{label}_{mode}", {**base, **settings, "kernel": kernel})
        if label == "p10_n200":
            # the strategies whose replicate blocks are all fit (n_para = 0) or all null (n_para = B)
            for strategy in ("nonparametric", "parametric"):
                settings = {**base, **commands["test"], "strategy": strategy, "kernel": {}}
                run("test", f"test_{label}_{strategy}", settings)
            # sweep sorts its grid, so this sweep.csv matches sweep_p10_n200_nocache's;
            # only the config embedded in sweep.json differs
            reversed_sweep = {"lambda_grid": commands["sweep"]["lambda_grid"][::-1], "kernel": {}}
            run("sweep", f"sweep_{label}_reversed", {**base, **reversed_sweep})
            interval = {"basis": {"p": p, "interval": [0.5, 2.0]}, "kernel": {}}
            run("test", f"test_{label}_interval", {**base, **commands["test"], **interval})
            for kind, L in FIT_L_KINDS.items():
                run("fit", f"fit_{label}_L_{kind}", {**base, "lambda": 10.0, "kernel": {"L": L}})
            for P in FIT_P_KINDS:
                for B in FIT_B_KINDS:
                    kernel = {"P": {"kind": P}, "B": {"kind": B}}
                    run("fit", f"fit_{label}_P_{P}_B_{B}", {**base, "lambda": 10.0, "kernel": kernel})
            # h = 0.001: 92% of the Gaussian grid's exponents lie below the kernel's cutoff
            for command in ("sweep", "fit"):
                narrow = {**base, **commands[command], "kernel": {"h": 0.001}}
                run(command, f"{command}_{label}_h0.001", narrow)
        if label == "p20_n2000":
            run("fit", f"fit_{label}_h0.2", {**base, "lambda": 10.0, "kernel": {"h": 0.2}})

    tracks = write_trajectories(out, "data_era5", len(DATASETS))
    run("ingest", "ingest_era5", {"input": tracks}, "--preset", "era5")
    penalized = {"input": tracks, "recipe": {"penalty": 1e-6}}
    run("ingest", "ingest_era5_penalty", penalized, "--preset", "era5")

    for rel in output_files(out):
        with open(os.path.join(out, rel), "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
