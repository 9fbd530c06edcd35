"""Time diffreg's layers, on this tree and beside another checkout, under one protocol.

    python tools/bench_layers.py [--baseline ROOT] [--layer NAME]... [--repeats K] [--out FILE]

LAYERS maps each layer to the timed routes of one tree on one case, a check
of this tree on that case, and its cases:

- ``streams`` (n in {200, 2000}, B = 200): the (B, n) wild-multiplier block
  of one bootstrap test, by a loop over ``SeedSequence(seed).spawn(B)``
  (``spawn_loop``) and by ``gof.bootstrap_multipliers`` (``derived``).
  ``blocks_equal``: the two blocks are equal bit for bit.
- ``ridge`` (p in {10, 20, 30} x n in {200, 2000}): ``RidgeSystem(data, km)``
  on kernels whose whitening is cached (``factor``), and ``smoothed_sq_norms``
  for NORMS_ROWS multiplier rows (``norms``).  ``agrees``: within ORACLE_TOL
  of a dense LU oracle, the p^2 x p^2 normal equations (see ridge_check).
- ``dataset_io`` (the same sweep): ``load_dataset`` from .npz sidecars
  (``sidecar``), from bare CSVs (``foreign``) and from CSVs whose sidecars
  were written for other CSVs (``stale``), and ``save_dataset`` (``save``).
  ``identical``: all three loads return the matrices written, bit for bit.
- ``ingest`` (an era5-shaped CSV of SUBJECTS x LEVELS 17-digit samples,
  grouped by subject, ``presorted``, or ``shuffled``): ``load_trajectories``
  (``load``), ``curves_to_basis`` (``gate``), ``build_thermo_dataset``
  (``build``), ``save_dataset`` (``save``) and the whole ``ingest --preset
  era5`` command in process (``command``).  ``identical``: both trees'
  commands write the same bytes; ``layouts_agree``: U.csv, F.csv and their
  sidecars equal the presorted layout's.
- ``simulate`` (n = 200, p = 10, B = 200, 4 replications, as ``mc_power``
  runs it; and n = 2000, p = 20, B = 200, 1 replication, where the products
  of the bootstrap dominate): one ``simulate --preset table4`` command in
  process, the five omega cells of the preset (``command``).  ``identical``:
  both trees' commands write the same bytes.

ROOT, when given, is another diffreg checkout (the directory holding
``src/``, such as ``git archive`` of the parent commit), timed beside this
tree under its directory's name.  A route's figure is the minimum over K
repeats of the mean of a ~BLOCK_S s block of calls, the routes taking turns
within each repeat, with BLAS pinned to one thread.  Each case gets
``<route>_ms``, ``<route>_spread`` (the median over the K repeats over the
minimum, minus 1), ``<route>_speedup`` (baseline over this tree, by the
minimum) and its checks, and goes to FILE (default BENCH_layers.json) with
the environment; baseline routes are ``baseline_<route>``.  A speed-up
smaller than its routes' spreads is within the noise.  Exit status 1 when
any boolean check is false.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # pin BLAS before numpy loads it, and import this tree's package
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

import diffreg  # noqa: E402

SEED = 20250101
SWEEP = tuple({"p": p, "n": n} for p in (10, 20, 30) for n in (200, 2000))
BLOCK_S = 0.05
N_QUAD, H = 201, 0.01
ORACLE_LAMBDAS, ORACLE_TOL = (1e-1, 1e1, 1e3), 1e-9
NORMS_LAMBDA, NORMS_ROWS = 10.0, 200
SUBJECTS, LEVELS = 2000, 40


def module(pkg, name: str):
    """Submodule ``name`` of a diffreg tree; routes look functions up on it at each call."""
    return importlib.import_module(f"{pkg.__name__}.{name}")


def draw(pkg, p: int, n: int, seed: int = SEED):
    """A dataset of the simulation design drawn with numpy alone, the same for every tree."""
    rng = np.random.default_rng([seed, p, n])
    ks = np.arange(1, p + 1)
    U = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (n, p)) * ks**-3.0
    F = U * (ks * np.pi) ** 2 + 0.5 * rng.standard_normal((n, p))
    return pkg.DataSet(U=U, F=F, basis=pkg.make_cosine_basis(p, N_QUAD))


def streams_routes(pkg, case: dict, work: str) -> dict:
    gof, n, B = module(pkg, "gof"), case["n"], case["B"]
    return {
        "spawn_loop": lambda: np.stack([gof.wild_multipliers(n, np.random.default_rng(s))
                                        for s in np.random.SeedSequence(SEED).spawn(B)]),
        "derived": lambda: gof.bootstrap_multipliers(n, B, SEED),
    }


def streams_check(case: dict, work: str, routes: dict) -> dict:
    return {"blocks_equal": bool(np.array_equal(routes["spawn_loop"](), routes["derived"]()))}


def multipliers(n: int) -> np.ndarray:
    """The (NORMS_ROWS, n) block W of the norms, the same for both trees."""
    return np.random.default_rng([SEED, n]).standard_normal((NORMS_ROWS, n))


def ridge_routes(pkg, case: dict, work: str) -> dict:
    data, W = draw(pkg, case["p"], case["n"]), multipliers(case["n"])
    # the default kernels: P = L = -laplacian, B = identity
    ops = pkg.neg_laplacian(), pkg.identity_op(), pkg.neg_laplacian()
    km = pkg.assemble(data.basis, *ops, pkg.KernelSpec(h=H))
    system = pkg.RidgeSystem(data, km)  # also computes and caches the kernels' whitening
    return {
        "factor": lambda: pkg.RidgeSystem(data, km),
        "norms": lambda: system.smoothed_sq_norms(NORMS_LAMBDA, data.F, W),
    }


def ridge_check(case: dict, work: str, routes: dict) -> dict:
    """The largest gaps from the dense LU oracle, and whether all are within ORACLE_TOL.

    Fitted values and traces tr(S) are compared at ORACLE_LAMBDAS, as a share
    of max |F| and of n p; the norms ||S vec(diag(w) F)||^2 as a share of
    their largest.
    """
    system = routes["factor"]()
    U, F, km = system.data.U, system.data.F, system.km
    n, p = U.shape
    # T[j', k', :] c is output coefficient j' of the operator applied to basis function k'
    T = km.K_L.reshape(p, p, p * p, order="F")
    gram = np.einsum("jkc,kl,jld->cd", T, U.T @ U, T, optimize=True)
    rhs = np.einsum("jkc,kj->c", T, U.T @ F)
    fitted_gap = trace_gap = 0.0
    for lam in ORACLE_LAMBDAS:
        normal = gram + n * lam * km.K_eps
        fitted = np.einsum("ik,jkc,c->ij", U, T, np.linalg.solve(normal, rhs), optimize=True)
        got = system.fitted(system.solve(lam))
        fitted_gap = max(fitted_gap, float(np.abs(got - fitted).max() / np.abs(F).max()))
        trace = float(np.trace(np.linalg.solve(normal, gram)))
        trace_gap = max(trace_gap, abs(float(system.trace(lam)) - trace) / (n * p))
    # ||S y||^2 = c' A'A c for c = (A'A + n lambda K_eps)^{-1} A' y, y = vec(diag(w) F);
    # row b of W @ products is vec(U' diag(w_b) F), entry (k, j) at k*p + j
    W = multipliers(n)
    products = (U[:, :, None] * F[:, None, :]).reshape(n, p * p)
    rhs_w = np.einsum("jkc,bkj->cb", T, (W @ products).reshape(-1, p, p), optimize=True)
    c_w = np.linalg.solve(gram + n * NORMS_LAMBDA * km.K_eps, rhs_w)
    norms = np.einsum("cb,cd,db->b", c_w, gram, c_w)
    norms_gap = float(np.abs(routes["norms"]() - norms).max() / norms.max())
    gaps = {"oracle_fitted_gap": fitted_gap, "oracle_trace_gap": trace_gap,
            "oracle_norms_gap": norms_gap}
    return {**{k: float(f"{v:.3g}") for k, v in gaps.items()},
            "agrees": max(gaps.values()) <= ORACLE_TOL}


DATASET_KINDS = ("sidecar", "foreign", "stale")


def dataset_pair(work: str, kind: str) -> tuple[str, str]:
    return os.path.join(work, kind, "U.csv"), os.path.join(work, kind, "F.csv")


def dataset_io_routes(pkg, case: dict, work: str) -> dict:
    ingest, folder = module(pkg, "ingest"), os.path.join(work, pkg.__name__)
    data, other = (draw(pkg, case["p"], case["n"], seed) for seed in (SEED, SEED + 1))
    sidecar, foreign, stale = (dataset_pair(folder, kind) for kind in DATASET_KINDS)
    for kind, written in zip(DATASET_KINDS, (data, data, other)):
        os.makedirs(os.path.join(folder, kind))
        ingest.save_dataset(written, *dataset_pair(folder, kind))
    for fresh, bare, old in zip(sidecar, foreign, stale):
        os.remove(bare + ingest.SIDECAR_SUFFIX)
        shutil.copyfile(fresh, old)  # the CSV changed, its sidecar did not
    return {
        "sidecar": lambda: ingest.load_dataset(*sidecar, data.basis),
        "foreign": lambda: ingest.load_dataset(*foreign, data.basis),
        "stale": lambda: ingest.load_dataset(*stale, data.basis),
        "save": lambda: ingest.save_dataset(data, *sidecar),
    }


def dataset_io_check(case: dict, work: str, routes: dict) -> dict:
    data, loaded = draw(diffreg, case["p"], case["n"]), [routes[kind]() for kind in DATASET_KINDS]
    return {"identical": all(a.tobytes() == b.tobytes() for got in loaded
                             for a, b in ((got.U, data.U), (got.F, data.F)))}


def trajectory_rows(layout: str) -> np.ndarray:
    """(SUBJECTS * LEVELS, 4) rows of subject number, log_p, T_real and T_pot.

    Each traced variable is a constant plus a cosine series over the era5
    interval with k^-3 coefficients, at jittered ordinates that span the
    start gate and, for all but a tenth of the subjects, the end gate.  The
    rows come subject by subject, or shuffled.
    """
    rng = np.random.default_rng(SEED)
    a, b, p = 6.3, 6.9, 10
    ks = np.arange(1, p + 1)
    hi = np.full(SUBJECTS, 6.9025)
    hi[rng.permutation(SUBJECTS)[: SUBJECTS // 10]] = 6.93
    x = 6.2975 + np.linspace(0.0, 1.0, LEVELS) * (hi[:, None] - 6.2975)
    x[:, 1:-1] += rng.uniform(-0.2, 0.2, (SUBJECTS, LEVELS - 2)) * (x[:, 1:2] - x[:, :1])
    phi = np.sqrt(2.0 / (b - a)) * np.cos((x - a)[..., None] * ks * np.pi / (b - a))
    values = []
    for offset in (280.0, 300.0):
        coef = 5.0 * ks**-3.0 * rng.uniform(-np.sqrt(3), np.sqrt(3), (SUBJECTS, p))
        constant = offset + 10.0 * rng.standard_normal((SUBJECTS, 1))
        values.append(constant + np.einsum("slk,sk->sl", phi, coef))
    subject = np.repeat(np.arange(SUBJECTS), LEVELS)
    rows = np.column_stack([subject, x.ravel(), *(v.ravel() for v in values)])
    return rows if layout == "presorted" else np.random.default_rng(SEED).permutation(rows)


def ingest_routes(pkg, case: dict, work: str) -> dict:
    csv_path = os.path.join(work, "input.csv")
    if not os.path.exists(csv_path):
        np.savetxt(csv_path, trajectory_rows(case["layout"]), fmt="s%05d,%.17g,%.17g,%.17g",
                   header="subject,log_p,T_real,T_pot", comments="")
    cli, ingest = module(pkg, "cli"), module(pkg, "ingest")
    preset = module(pkg, "presets").get_preset("era5")
    names, spec = preset["schema"], preset["basis"]
    schema = ingest.TableSchema(names["subject"], names["ordinate"], tuple(names["variables"]))
    basis = pkg.make_cosine_basis(spec["p"], spec["n_quad"], tuple(spec["interval"]))
    recipe = cli._recipe_from_config(preset["recipe"], schema.variables, basis.p)
    table = ingest.load_trajectories(csv_path, schema)
    curves, _ = ingest.curves_to_basis(table, recipe, basis)
    data = ingest.build_thermo_dataset(curves, recipe, basis)
    out = os.path.join(work, pkg.__name__)
    os.makedirs(os.path.join(out, "layers"))
    config = os.path.join(out, "ingest_config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"input": csv_path}, fh)
    return {
        "load": lambda: ingest.load_trajectories(csv_path, schema),
        "gate": lambda: ingest.curves_to_basis(table, recipe, basis),
        "build": lambda: ingest.build_thermo_dataset(curves, recipe, basis),
        "save": lambda: ingest.save_dataset(data, *dataset_pair(out, "layers")),
        "command": command(cli, ["ingest", "--preset", "era5", "--config", config], out),
    }


def command(cli, argv: list, out: str):
    """A route running one CLI command in process into ``out``/command; raises unless it exits 0."""

    def route():
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([*argv, "--out", os.path.join(out, "command")])
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue()}")

    return route


def command_outputs(work: str, tree: str) -> dict:
    """Name to bytes of every file the ``command`` route of ``tree`` wrote."""
    folder = Path(work, tree, "command")
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


def trees_identical(work: str) -> bool:
    """Whether every tree's ``command`` route wrote what this tree's did."""
    ours = command_outputs(work, diffreg.__name__)
    trees = [name for name in os.listdir(work) if os.path.isdir(os.path.join(work, name))]
    return all(command_outputs(work, tree) == ours for tree in trees)


def ingest_check(case: dict, work: str, routes: dict) -> dict:
    """Compares what the trees' ``command`` routes wrote; ingest.json names its input CSV."""
    folders = (work, os.path.join(work, os.pardir, "presorted"))
    ours, presorted = (command_outputs(folder, diffreg.__name__) for folder in folders)
    del ours["ingest.json"], presorted["ingest.json"]
    return {"identical": trees_identical(work), "layouts_agree": ours == presorted}


def simulate_routes(pkg, case: dict, work: str) -> dict:
    config = os.path.join(work, "simulate_config.json")
    if not os.path.exists(config):
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({**case, "seed": SEED, "keep_bootstrap": 1}, fh)
    argv = ["simulate", "--preset", "table4", "--config", config]
    return {"command": command(module(pkg, "cli"), argv, os.path.join(work, pkg.__name__))}


def simulate_check(case: dict, work: str, routes: dict) -> dict:
    return {"identical": trees_identical(work)}


LAYERS = {
    "streams": (streams_routes, streams_check, tuple({"n": n, "B": 200} for n in (200, 2000))),
    "ridge": (ridge_routes, ridge_check, SWEEP),
    "dataset_io": (dataset_io_routes, dataset_io_check, SWEEP),
    "ingest": (ingest_routes, ingest_check, ({"layout": "presorted"}, {"layout": "shuffled"})),
    "simulate": (simulate_routes, simulate_check, ({"n": 200, "p": 10, "B": 200, "reps": 4},
                                                   {"n": 2000, "p": 20, "B": 200, "reps": 1})),
}


def best_ms(routes: dict, repeats: int) -> dict:
    """Per route, the minimum and the median over ``repeats`` of the mean time of a
    ~BLOCK_S block of calls, in ms.

    A first call of each route sizes its block and is not counted.  The
    routes take turns within each repeat, so a change in machine load
    reaches all of them alike.
    """
    number = {}
    for name, fn in routes.items():
        start = time.perf_counter()
        fn()
        number[name] = max(1, math.ceil(BLOCK_S / (time.perf_counter() - start)))
    seconds = {name: [] for name in routes}
    for _ in range(repeats):
        for name, fn in routes.items():
            start = time.perf_counter()
            for _ in range(number[name]):
                fn()
            seconds[name].append((time.perf_counter() - start) / number[name])
    return {name: (min(s) * 1e3, statistics.median(s) * 1e3) for name, s in seconds.items()}


def run_case(layer: str, case: dict, trees: list, repeats: int, work: str) -> dict:
    """Time the routes of every tree on one case, then check this tree on it."""
    routes_of, check, _ = LAYERS[layer]
    routes = {}
    for pkg in trees:
        prefix = "" if pkg is diffreg else "baseline_"
        routes.update({prefix + name: fn for name, fn in routes_of(pkg, case, work).items()})
    ms = best_ms(routes, repeats)
    result = {"layer": layer, **case}
    for name, (best, median) in ms.items():
        result.update({f"{name}_ms": round(best, 4), f"{name}_spread": round(median / best - 1, 3)})
    result.update({f"{name}_speedup": round(ms[f"baseline_{name}"][0] / best, 3)
                   for name, (best, _) in ms.items() if f"baseline_{name}" in ms})
    return {**result, **check(case, work, routes)}


def load_package(root: str, name: str):
    """The diffreg package under ``root``/src, imported as module ``name``."""
    folder = os.path.join(os.path.abspath(root), "src", "diffreg")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(folder, "__init__.py"), submodule_search_locations=[folder]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="root of another diffreg checkout to time beside")
    parser.add_argument("--layer", action="append", choices=LAYERS, help="default: every layer")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default="BENCH_layers.json")
    args = parser.parse_args(argv)
    trees = [diffreg]
    if args.baseline:
        trees.insert(0, load_package(args.baseline, "diffreg_baseline"))
    cases = []
    with tempfile.TemporaryDirectory() as work:
        for layer in dict.fromkeys(args.layer or LAYERS):
            for case in LAYERS[layer][2]:
                folder = os.path.join(work, layer, "_".join(map(str, case.values())))
                os.makedirs(folder)
                cases.append(run_case(layer, case, trees, args.repeats, folder))
                print(json.dumps(cases[-1]), flush=True)
    doc = {
        "label": "layers",
        "protocol": f"min of {args.repeats} alternating repeats of the mean of a ~{BLOCK_S:g} s "
        f"block of calls, spread = median / min - 1; seed {SEED}; "
        f"ingest {SUBJECTS} subjects x {LEVELS} levels",
        "baseline": os.path.basename(os.path.abspath(args.baseline)) if args.baseline else None,
        "environment": environment(),
        "cases": cases,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0 if all(v for case in cases for v in case.values() if isinstance(v, bool)) else 1


if __name__ == "__main__":
    sys.exit(main())
