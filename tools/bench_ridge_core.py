"""Time the ridge factorization and the bootstrap norms of this tree and of a baseline tree.

    python tools/bench_ridge_core.py [--baseline ROOT] [--repeats K] [--out FILE]

For each (p, n) in CASES it draws a dataset from the simulation design with
numpy alone and assembles the default kernels (P = L = -laplacian,
B = identity, h = 0.01, 201 quadrature nodes) once, so the kernel-only
whitening is cached, as in a Monte Carlo study.  Two layers are timed: the
per-dataset factorization ``RidgeSystem(data, km)``, and
``system.smoothed_sq_norms(lam, F, W)`` at lambda = NORMS_LAMBDA for a
(200, n) block W of multipliers, the bootstrap's use of the smoother, on a
system built beforehand.  ROOT, when given, is another diffreg checkout (the
directory holding ``src/``, for example ``git archive`` of the parent
commit, named after its directory); its package is loaded beside this
tree's and timed on its own kernels, the two routes taking turns within
each repeat.  The figure is the
minimum over K repeats of the mean time of enough calls to fill about 50 ms,
with BLAS pinned to one thread.

Each case also checks this tree against a dense LU oracle: the
p^2 x p^2 normal equations built from the dense K_L and K_eps, solved with
``np.linalg.solve``.  ``agrees`` is true when, at three lambdas, the fitted
values are within 1e-9 of max |F| and the traces tr(S) within 1e-9 of n p,
and when the norms at NORMS_LAMBDA are within 1e-9 of their largest.
The figures go to FILE (default BENCH_ridge_core.json).
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import diffreg  # noqa: E402
from benchkit import best_ms, calls_per_block, load_package, write_bench  # noqa: E402

CASES = tuple((p, n) for p in (10, 20, 30) for n in (200, 2000))
N_QUAD = 201
H = 0.01
ORACLE_LAMBDAS = (1e-1, 1e1, 1e3)
ORACLE_TOL = 1e-9
NORMS_LAMBDA = 10.0
NORMS_ROWS = 200
SEED = 20250101


def problem(pkg, p: int, n: int):
    """(data, km) for one case, built with the given package from the same numbers."""
    rng = np.random.default_rng([SEED, p, n])
    ks = np.arange(1, p + 1)
    U = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (n, p)) * ks**-3.0
    F = U * (ks * np.pi) ** 2 + 0.5 * rng.standard_normal((n, p))
    basis = pkg.make_cosine_basis(p, N_QUAD)
    km = pkg.assemble(
        basis, pkg.neg_laplacian(), pkg.identity_op(), pkg.neg_laplacian(), pkg.KernelSpec(h=H)
    )
    return pkg.DataSet(U=U, F=F, basis=basis), km


def multipliers(n: int) -> np.ndarray:
    """The (NORMS_ROWS, n) block W of the norms, the same for both trees."""
    return np.random.default_rng([SEED, n]).standard_normal((NORMS_ROWS, n))


def oracle_gaps(data, km) -> tuple[float, float, float]:
    """Largest gaps of this tree's fitted values, traces and norms from the dense LU oracle.

    Fitted values are compared as a share of max |F|, traces as a share of
    n p and the norms ||S vec(diag(w) F)||^2 as a share of their largest.
    """
    U, F = data.U, data.F
    n, p = U.shape
    # T[j', k', :] c is output coefficient j' of the operator applied to basis function k'
    T = km.K_L.reshape(p, p, p * p, order="F")
    gram = np.einsum("jkc,kl,jld->cd", T, U.T @ U, T, optimize=True)
    rhs = np.einsum("jkc,kj->c", T, U.T @ F)
    system = diffreg.RidgeSystem(data, km)
    fitted_gap = trace_gap = 0.0
    for lam in ORACLE_LAMBDAS:
        normal = gram + n * lam * km.K_eps
        c = np.linalg.solve(normal, rhs)
        fitted = np.einsum("ik,jkc,c->ij", U, T, c, optimize=True)
        got = system.fitted(system.solve(lam))
        fitted_gap = max(fitted_gap, float(np.abs(got - fitted).max() / np.abs(F).max()))
        trace = float(np.trace(np.linalg.solve(normal, gram)))
        trace_gap = max(trace_gap, abs(float(system.trace(lam)) - trace) / (n * p))
    # ||S y||^2 = c' A'A c for c = (A'A + n lambda K_eps)^{-1} A' y, y = vec(diag(w) F)
    W = multipliers(n)
    # row b of W @ products is vec(U' diag(w_b) F), entry (k, j) at k*p + j
    products = (U[:, :, None] * F[:, None, :]).reshape(n, p * p)
    rhs_w = np.einsum("jkc,bkj->cb", T, (W @ products).reshape(-1, p, p), optimize=True)
    c_w = np.linalg.solve(gram + n * NORMS_LAMBDA * km.K_eps, rhs_w)
    norms = np.einsum("cb,cd,db->b", c_w, gram, c_w)
    got = system.smoothed_sq_norms(NORMS_LAMBDA, F, W)
    return fitted_gap, trace_gap, float(np.abs(got - norms).max() / norms.max())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="root of another diffreg checkout to time beside")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default="BENCH_ridge_core.json")
    args = parser.parse_args(argv)
    base = load_package(args.baseline, "diffreg_baseline") if args.baseline else None
    label = os.path.basename(os.path.abspath(args.baseline)) if base is not None else None

    cases = []
    for p, n in CASES:
        data, km = problem(diffreg, p, n)
        trees = [(diffreg, data, km)]
        if base is not None:
            trees.insert(0, (base, *problem(base, p, n)))
        W = multipliers(n)
        # the first call also computes and caches each kernel's whitening
        factor = [lambda pkg=pkg, d=d, k=k: pkg.RidgeSystem(d, k) for pkg, d, k in trees]
        systems = [route() for route in factor]
        norms = [lambda s=s: s.smoothed_sq_norms(NORMS_LAMBDA, s.data.F, W) for s in systems]
        routes = factor + norms
        times = best_ms(routes, args.repeats, [calls_per_block(route) for route in routes])
        factor_ms, norms_ms = times[: len(trees)], times[len(trees) :]
        fitted_gap, trace_gap, norms_gap = oracle_gaps(data, km)
        case = {"p": p, "n": n}
        for layer, (*base_ms, ms) in (("", factor_ms), ("norms_", norms_ms)):
            case[f"{layer}ms"] = round(ms, 4)
            if base_ms:
                case[f"baseline_{layer}ms"] = round(base_ms[0], 4)
                case[f"{layer}speedup"] = round(base_ms[0] / ms, 2)
        case.update(
            oracle_fitted_gap=float(f"{fitted_gap:.3g}"),
            oracle_trace_gap=float(f"{trace_gap:.3g}"),
            oracle_norms_gap=float(f"{norms_gap:.3g}"),
            agrees=max(fitted_gap, trace_gap, norms_gap) <= ORACLE_TOL,
        )
        cases.append(case)
        line = f"p={p:2d} n={n:4d}: factor {factor_ms[-1]:8.3f} ms, norms {norms_ms[-1]:8.3f} ms"
        if base is not None:
            line += (
                f"; {label} {factor_ms[0]:8.3f} / {norms_ms[0]:8.3f} ms,"
                f" x{factor_ms[0] / factor_ms[-1]:.1f} / x{norms_ms[0] / norms_ms[-1]:.1f}"
            )
        gaps = f"{fitted_gap:.1e} / {trace_gap:.1e} / {norms_gap:.1e}"
        print(f"{line}; oracle gaps {gaps}", flush=True)

    header = {
        "label": "ridge_core",
        "what": "RidgeSystem(data, km) on kernels whose whitening is already cached (ms), and "
        f"smoothed_sq_norms at lambda {NORMS_LAMBDA:g} for {NORMS_ROWS} multiplier rows (norms_ms)",
        "protocol": f"min of {args.repeats} alternating repeats of the mean of a ~50 ms block of "
        f"calls; n_quad {N_QUAD}, h {H}, seed {SEED}",
        "baseline": label,
        "oracle": f"dense LU solve with K_eps at lambda {list(ORACLE_LAMBDAS)}, and for the "
        f"norms at {NORMS_LAMBDA:g}; agrees within {ORACLE_TOL:g}",
    }
    write_bench(args.out, header, cases)
    return 0 if all(case["agrees"] for case in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
