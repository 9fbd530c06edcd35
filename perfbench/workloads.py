"""The benchmark's workloads: seeded inputs, CLI command plans and output checks.

Each workload turns ``--seed`` into input files and a plan of CLI commands
grouped in cycles.  A cycle is the smallest repeatable piece of work: the
worker runs whole cycles until the run's time is used up.  The program sees
only the generated files and configs.  Checks run after the timed region and
compare every output with values computed here, mostly by a dense oracle: an
LU solve of the p^2 x p^2 normal equations over kernel matrices built by a
plain quadrature, with nothing of the package's kernels, solver or bootstrap.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh, lu_factor, lu_solve

from diffreg import SimConfig, gen_dataset, make_cosine_basis
from diffreg.ingest import save_dataset
from diffreg.presets import get_preset
from diffreg.sim import replication_dataset

#: relative tolerance of every oracle comparison.  Outputs are printed with
#: 12 significant digits and agree with the oracle to about 1e-12 today; a
#: jitter on the Kronecker factors of K instead of on K itself was measured to
#: shift traces by at most 2e-8 relative, and a wrong lambda, trace or solve
#: moves these figures by far more than 1e-6.
RTOL = 1e-6
#: absolute tolerance on ingested U coefficients, as a share of the largest
#: generating coefficient.  Cubic-spline resampling of 40 levels onto the
#: quadrature grid leaves errors near 1e-6 of it.
INGEST_TOL = 1e-4
LAMBDA_GRID = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5]
KERNEL_H = 0.01
MAX_CYCLES = 200
_SQRT5 = np.sqrt(5.0)


@dataclass
class Plan:
    """Commands for the worker plus what the checks expect of their outputs.

    ``setup`` holds the basis size (``p``, ``n_quad``) that a set-up probe
    builds, with its kernels, after importing the CLI.
    """

    setup: dict
    cycles: list
    unit: str
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str], Plan]
    check: Callable[..., tuple[int, list]]  # (plan, record, cache) -> (failed units, problems)


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def _cycle_seed(seed: int, cycle: int) -> int:
    return int(np.random.SeedSequence([seed, cycle]).generate_state(1)[0])


# -- dense oracle ------------------------------------------------------------


def oracle_kernels(p: int, n_quad: int, h: float = KERNEL_H) -> tuple[np.ndarray, np.ndarray]:
    """K and K_L of the CLI's default kernel, by plain quadrature.

    Cosine basis phi_k = sqrt(2) cos(k pi x) on [0, 1]; P = L = -d^2/dx^2,
    B = identity with the boundary term; Gaussian K1 of bandwidth h.  Then
    K = C kron M and K_L = C kron M_L with

        C   = int int K1 (P phi) (P phi)' + phi(0) phi(0)' + phi(1) phi(1)'
        M   = int int K1 phi phi'
        M_L = int int (L_y K1) phi phi'

    on the composite Gauss-Legendre rule of ``n_quad`` nodes in panels of
    about ten, which is the quadrature ``make_cosine_basis`` documents.
    """
    panels = -(-n_quad // 10)
    per, extra = divmod(n_quad, panels)
    edges = np.linspace(0.0, 1.0, panels + 1)
    x, w = [], []
    for i in range(panels):
        t, wt = np.polynomial.legendre.leggauss(per + (i < extra))
        half = (edges[i + 1] - edges[i]) / 2
        x.append(edges[i] + half * (t + 1))
        w.append(half * wt)
    x, w = np.concatenate(x), np.concatenate(w)
    ks = np.arange(1, p + 1) * np.pi
    wphi = np.sqrt(2.0) * np.cos(np.outer(x, ks)) * w[:, None]
    ends = np.sqrt(2.0) * np.cos(np.outer([0.0, 1.0], ks))
    d = x[:, None] - x[None, :]
    k1 = np.exp(-(d**2) / (2 * h * h)) / np.sqrt(2 * np.pi * h * h)
    M = wphi.T @ k1 @ wphi
    C = ks[:, None] ** 2 * M * ks[None, :] ** 2 + ends.T @ ends
    M_L = wphi.T @ ((h * h - d**2) / h**4 * k1) @ wphi
    return np.kron(C, M), np.kron(C, M_L)


def _kernels(p: int, n_quad: int, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    key = ("kernels", p, n_quad)
    if key not in cache:
        cache[key] = oracle_kernels(p, n_quad)
    return cache[key]


def wild_bootstrap(oracle: "DenseOracle", lam: float, eps_null: np.ndarray,
                   eps_fit: np.ndarray, seed: int, B: int) -> np.ndarray:
    """The B replicates of q_n that ``diffreg`` promises for a seed.

    Replicate b draws golden-ratio two-point multipliers from the b-th stream
    of ``SeedSequence(seed).spawn(B)``; the first round(B/3) replicates scale
    the null residuals, the rest the fit residuals (the mixed strategy).
    """
    plus, minus, prob = (1 + _SQRT5) / 2, (1 - _SQRT5) / 2, (_SQRT5 - 1) / (2 * _SQRT5)
    n_null = int(round(B / 3))
    cols = np.empty((oracle.n * oracle.p, B))
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(B)):
        delta = np.where(np.random.default_rng(stream).random(oracle.n) < prob, plus, minus)
        source = eps_null if b < n_null else eps_fit
        cols[:, b] = (delta[:, None] * source).flatten(order="F")
    smoothed = oracle.smooth(lam, cols)
    return np.einsum("ij,ij->j", smoothed, smoothed) / oracle.n


class DenseOracle:
    """Ridge fit through an LU solve of (A'A + n lam K_eff) c = A'y.

    A is the (n p) x p^2 design built from K_L and U, K_eff is the symmetrized
    K plus the 1e-10 tr(K)/p^2 jitter; nothing of the package's solver is used.
    """

    def __init__(self, U: np.ndarray, F: np.ndarray, K: np.ndarray, K_L: np.ndarray):
        n, p = U.shape
        T = K_L.reshape(p, p, p * p, order="F")
        self.A = np.einsum("ik,jkc->ijc", U, T).reshape(n * p, p * p, order="F")
        K = (K + K.T) / 2
        self.K_eff = K + 1e-10 * np.trace(K) / (p * p) * np.eye(p * p)
        self.y = F.flatten(order="F")
        self.G = self.A.T @ self.A
        self.b = self.A.T @ self.y
        self.U, self.F, self.n, self.p = U, F, n, p
        self._lu: dict = {}

    def lu(self, lam: float):
        if lam not in self._lu:
            self._lu[lam] = lu_factor(self.G + self.n * lam * self.K_eff)
        return self._lu[lam]

    def coef(self, lam: float) -> np.ndarray:
        return lu_solve(self.lu(lam), self.b)

    def fitted(self, lam: float) -> np.ndarray:
        return (self.A @ self.coef(lam)).reshape(self.n, self.p, order="F")

    def rss_of(self, c: np.ndarray) -> float:
        r = self.y - self.A @ c
        return float(r @ r)

    def row(self, lam: float) -> dict:
        rss = self.rss_of(self.coef(lam))
        trace = float(np.trace(lu_solve(self.lu(lam), self.G)))
        gcv = rss / self.n / (1.0 - trace / (self.n * self.p)) ** 2
        return {"rss": rss, "trace": trace, "gcv": gcv}

    def smooth(self, lam: float, cols: np.ndarray) -> np.ndarray:
        return self.A @ lu_solve(self.lu(lam), self.A.T @ cols)

    def ess(self, lam: float, mu: np.ndarray) -> float:
        return float(np.sum((self.fitted(lam) - self.U * mu) ** 2))

    def ess_min(self, mu: np.ndarray, grid: list, rounds: int) -> tuple[float, float]:
        """The ESS-minimizing lambda: the grid minimum, then ``rounds`` passes
        of five log-spaced candidates between its neighbours (a decade out
        past a grid end), skipping candidates already tried."""
        lams = [float(lam) for lam in grid]
        vals = [self.ess(lam, mu) for lam in lams]
        for _ in range(rounds):
            i = int(np.argmin(vals))
            lo = lams[i - 1] if i > 0 else lams[i] / 10
            hi = lams[i + 1] if i < len(lams) - 1 else lams[i] * 10
            for lam in np.exp(np.linspace(np.log(lo), np.log(hi), 7))[1:-1]:
                if any(abs(np.log(lam / old)) < 1e-12 for old in lams):
                    continue
                j = int(np.searchsorted(lams, lam))
                lams.insert(j, float(lam))
                vals.insert(j, self.ess(lam, mu))
        i = int(np.argmin(vals))
        return lams[i], vals[i]

    def gof(self, lam: float, seed: int, B: int) -> dict:
        """theta_hat, q_n and the bootstrap replicates of the -laplacian family."""
        base = self.U * (np.arange(1, self.p + 1) * np.pi) ** 2
        theta = max(float(np.sum(self.F * base) / np.sum(base**2)), 0.0)
        eps_null = self.F - theta * base
        smoothed = self.smooth(lam, eps_null.flatten(order="F"))
        boot = wild_bootstrap(self, lam, eps_null, self.F - self.fitted(lam), seed, B)
        return {"theta_hat": theta, "q_n": float(smoothed @ smoothed) / self.n, "boot": boot}

    def gammas(self, top_m: int) -> np.ndarray:
        vals = eigh(self.G / self.n, self.K_eff, eigvals_only=True)
        return np.sort(np.maximum(vals, 0.0))[::-1][:top_m]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * abs(want)


def check_sweep(want: dict, rows: list, best_lambda: float) -> list:
    """Problems with sweep rows (lambda, rss, gcv, trace) and the chosen lambda.

    ``want`` maps each grid lambda to the oracle's row for it.
    """
    problems = []
    for row in rows:
        lam = float(row["lambda"])
        if lam not in want:
            problems.append(f"lambda {lam:g} is not on the grid")
            continue
        for key in ("rss", "trace", "gcv"):
            if not _close(float(row[key]), want[lam][key]):
                problems.append(f"lambda {lam:g}: {key} {row[key]} vs oracle {want[lam][key]:.12g}")
    best_gcv = min(r["gcv"] for r in want.values())
    if len(rows) != len(want):
        problems.append(f"{len(rows)} sweep rows, expected {len(want)}")
    elif best_lambda not in want or want[best_lambda]["gcv"] > best_gcv * (1 + RTOL):
        problems.append(f"GCV chose lambda {best_lambda:g}, oracle minimum is elsewhere")
    return problems


def p_value_bounds(q_n: float, boot: np.ndarray) -> tuple[float, float]:
    """The range of 1 - #{b : q_n >= boot_b} / B left open by ties within RTOL."""
    below = np.count_nonzero(boot < q_n * (1 - RTOL))
    ties = np.count_nonzero(np.abs(boot - q_n) <= RTOL * q_n)
    return 1.0 - (below + ties) / boot.size, 1.0 - below / boot.size


def check_gof(want: dict, got: dict, boot: np.ndarray) -> list:
    """Problems with a test's theta_hat, q_n, p_value and bootstrap replicates.

    ``want`` comes from ``DenseOracle.gof``; ``got`` holds the program's
    scalars and ``boot`` its replicates in order.
    """
    problems = [f"{key} {got[key]!r} vs oracle {want[key]:.12g}"
                for key in ("theta_hat", "q_n") if not _close(float(got[key]), want[key])]
    if boot.shape != want["boot"].shape:
        return problems + [f"{boot.size} bootstrap values, expected {want['boot'].size}"]
    gap = np.abs(boot - want["boot"]) > RTOL * np.abs(want["boot"])
    if gap.any():
        problems.append(f"{np.count_nonzero(gap)} bootstrap values differ from the oracle")
    lo, hi = p_value_bounds(want["q_n"], want["boot"])
    if not lo - 1e-12 <= float(got["p_value"]) <= hi + 1e-12:
        problems.append(f"p_value {got['p_value']} outside the oracle's [{lo:g}, {hi:g}]")
    return problems


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- mc_power ------------------------------------------------------------------
# The Monte Carlo table path: `simulate` with the table4 preset's settings.
# Many small (p=10) factorizations, bootstraps and Python orchestration; this
# is where the library's default BLAS threads cost most (about 3x against one
# thread on 2 cores) and where a batched bootstrap must show its gain.  It does
# no ingest work.  Each cycle is one command of 4 replications per omega.

MC_SETTINGS = {
    "n": 200,
    "p": 10,
    "B": 200,
    "test_lambda": "ess_min",
    "run_test": True,
    "omegas": [0.0, 0.42, 0.84, 1.26, 1.68],
    "lambda_grid": LAMBDA_GRID,
    "reps": 4,
    "refine_rounds": 2,
    "keep_bootstrap": 1,  # replication 0's bootstrap values, for the check
}


def build_mc_power(seed: int, work: str) -> Plan:
    units = MC_SETTINGS["reps"] * len(MC_SETTINGS["omegas"])
    cycles = []
    for i in range(MAX_CYCLES):
        cfg = _write_json(
            os.path.join(work, f"simulate_{i}.json"), {**MC_SETTINGS, "seed": _cycle_seed(seed, i)}
        )
        argv = ["simulate", "--preset", "table4", "--config", cfg, "--threads", "1"]
        command = {"name": "simulate", "argv": argv, "out": os.path.join(work, f"out_{i}"),
                   "units": units}
        cycles.append({"clear": [], "commands": [command]})
    setup = {"p": MC_SETTINGS["p"], "n_quad": get_preset("table4")["n_quad"]}
    return Plan(setup, cycles, unit="replications")


def _rep0_expect(config: dict, cache: dict) -> dict:
    """What replication 0 of each omega cell of a simulate config must report."""
    key = ("rep0", config["seed"])
    if key not in cache:
        s = {**get_preset("table4"), **config}
        assert s["h"] == KERNEL_H and s["strategy"] == "mixed" and s["test_lambda"] == "ess_min"
        p, grid = s["p"], s["lambda_grid"]
        basis = make_cosine_basis(p, s["n_quad"])
        K, K_L = _kernels(p, s["n_quad"], cache)
        boot_stream = np.random.SeedSequence(s["seed"]).spawn(s["reps"])[0].spawn(2)[1]
        boot_seed = int(boot_stream.generate_state(1)[0])
        lap = (np.arange(1, p + 1) * np.pi) ** 2
        cells = {}
        for omega in s["omegas"]:
            sim_cfg = SimConfig(
                n=s["n"], p=p, omega=float(omega), snr=s["snr"], reps=s["reps"], seed=s["seed"],
                eigen_sign=s["eigen_sign"], n_quad=s["n_quad"], h=s["h"],
            )
            data, _ = replication_dataset(sim_cfg, rep=0, basis=basis)
            mu = lap + omega**2 if s["eigen_sign"] == "plus" else lap - omega**2
            oracle = DenseOracle(data.U, data.F, K, K_L)
            ess_lam, ess_val = oracle.ess_min(mu, grid, s["refine_rounds"])
            gof = oracle.gof(ess_lam, boot_seed, s["B"])
            base = data.U * lap
            columns = {f"ess_lam_{lam:g}": oracle.ess(lam, mu) for lam in grid}
            columns.update(
                ess_min_lambda=ess_lam, ess_min_value=ess_val, test_lambda=ess_lam,
                theta_hat=gof["theta_hat"], q_n=gof["q_n"],
                ess_theta=float(np.sum((gof["theta_hat"] * base - data.U * mu) ** 2)),
                tss=float(np.sum((data.U * mu) ** 2)),
            )
            cells[f"{omega:g}"] = {"sweep": {lam: oracle.row(lam) for lam in grid},
                                   "columns": columns, "gof": gof, "alpha": s["alpha"]}
        cache[key] = cells
    return cache[key]


def _check_rep0(want: dict, row: dict, boot: np.ndarray) -> list:
    sweep_rows = [{"lambda": lam, **{key: row[f"{key}_lam_{lam:g}"] for key in want["sweep"][lam]}}
                  for lam in want["sweep"]]
    problems = check_sweep(want["sweep"], sweep_rows, float(row["gcv_best_lambda"]))
    problems += [f"{col} {row[col]} vs oracle {value:.12g}"
                 for col, value in want["columns"].items() if not _close(float(row[col]), value)]
    problems += check_gof(want["gof"], row, boot)
    if row["reject"] != ("1" if float(row["p_value"]) < want["alpha"] else "0"):
        problems.append(f"reject {row['reject']} does not follow p_value {row['p_value']}")
    return problems


def check_mc_power(plan: Plan, record: dict, cache: dict | None = None) -> tuple[int, list]:
    """Failed replications of one simulate command and what was wrong.

    Replication 0 of every omega cell is checked column by column against the
    oracle, its bootstrap values included; the others must be present.
    """
    cache = {} if cache is None else cache
    out, units = record["out"], record["units"]
    config = _read_json(record["argv"][record["argv"].index("--config") + 1])
    problems, failed = [], 0
    try:
        summary = _read_json(os.path.join(out, "summary.json"))
        for omega, want in _rep0_expect(config, cache).items():
            rows = _read_csv(os.path.join(out, f"records_omega{omega}.csv"))
            cell = summary["cells"][f"omega={omega}"]
            if len(rows) != config["reps"] or cell["skipped"]:
                problems.append(f"omega {omega}: {len(rows)} records, {cell['skipped']} skipped")
                failed += max(config["reps"] - len(rows), cell["skipped"], 1)
            rep0 = [r for r in rows if r["rep"] == "0"]
            if not rep0:
                continue
            boot_csv = os.path.join(out, f"bootstrap_omega{omega}_rep0.csv")
            boot = np.array([float(r["q_n_boot"]) for r in _read_csv(boot_csv)])
            bad = _check_rep0(want, rep0[0], boot)
            if bad:
                problems += [f"omega {omega} rep 0: {msg}" for msg in bad]
                failed += 1
    except (OSError, KeyError, ValueError) as exc:
        return units, [f"unreadable outputs: {exc!r}"]
    return min(failed, units), problems


# -- ingest --------------------------------------------------------------------
# `ingest --preset era5` on a long-format trajectory CSV: CSV parsing, spline
# resampling and per-subject projection only; it bypasses kernels, regress and
# gof.  Alone, its timings swung by up to 1.7x between runs on a 2-vCPU VM, so
# it runs as the first command of each analysis_large cycle rather than as a
# workload of its own.

INGEST_SUBJECTS = 2000
INGEST_LEVELS = 40
INGEST_FAIL_SHARE = 0.1


def thermo_csv(seed: int, path: str, subjects: int, levels: int) -> dict:
    """Write an era5-shaped trajectory CSV; returns what ingest should report.

    Both traced variables are a constant plus a cosine series over the preset's
    interval with coefficients decaying like k^-3.  A seeded
    ``INGEST_FAIL_SHARE`` of the subjects end above the preset's end gate.
    """
    preset = get_preset("era5")
    recipe, p = preset["recipe"], preset["basis"]["p"]
    (a, b), start_gate, end_gate = recipe["interval"], recipe["start_gate"], recipe["end_gate"]
    length = b - a
    rng = np.random.default_rng(seed)
    failing = set(rng.permutation(subjects)[: int(round(INGEST_FAIL_SHARE * subjects))].tolist())
    ks = np.arange(1, p + 1)
    lo = a - 0.25 * (a - start_gate[0])
    kept, skipped = {}, []
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "log_p", "T_real", "T_pot"])
        for s in range(subjects):
            name = f"s{s:05d}"
            hi = end_gate[1] + 0.02 if s in failing else b + 0.25 * (end_gate[1] - b)
            x = np.linspace(lo, hi, levels)
            step = x[1] - x[0]
            x[1:-1] += rng.uniform(-0.2, 0.2, levels - 2) * step
            phi = np.sqrt(2.0 / length) * np.cos(np.outer(x - a, ks) * np.pi / length)
            coef = {var: 5.0 * ks**-3.0 * rng.uniform(-np.sqrt(3), np.sqrt(3), p)
                    for var in ("T_real", "T_pot")}
            offsets = {"T_real": 280.0 + 10.0 * rng.standard_normal(),
                       "T_pot": 300.0 + 10.0 * rng.standard_normal()}
            values = {var: offsets[var] + phi @ coef[var] for var in coef}
            for j in range(levels):
                writer.writerow([name, repr(float(x[j])), repr(float(values["T_real"][j])),
                                 repr(float(values["T_pot"][j]))])
            if s in failing:
                skipped.append((name, f"largest ordinate {float(x.max()):.6g} outside end gate"))
            else:
                kept[name] = coef[recipe["predictor"]]
    return {"subjects_in": subjects, "kept": kept, "skipped": skipped}


def check_ingest(expect: dict, out: str) -> tuple[int, list]:
    """Failed subjects of one ingest command and what was wrong."""
    try:
        report = _read_json(os.path.join(out, "ingest.json"))["report"]
        U = np.loadtxt(os.path.join(out, "U.csv"), delimiter=",", skiprows=1, ndmin=2)
    except (OSError, KeyError, ValueError) as exc:
        return expect["subjects_in"], [f"unreadable outputs: {exc!r}"]
    problems = []
    got_skipped = {(s["subject"], s["reason"]) for s in report["subjects_skipped"]}
    wrong = got_skipped ^ set(expect["skipped"])
    failed = len({name for name, _ in wrong})
    if wrong:
        problems.append(f"{len(wrong)} skipped entries differ from the expected set")
    counts = (report["subjects_in"], report["subjects_out"])
    if counts != (expect["subjects_in"], len(expect["kept"])):
        problems.append(f"subjects in/out {report['subjects_in']}/{report['subjects_out']}, "
                        f"expected {expect['subjects_in']}/{len(expect['kept'])}")
    names = sorted(expect["kept"])
    if U.shape[0] != len(names):
        problems.append(f"U.csv has {U.shape[0]} rows, expected {len(names)}")
        return max(failed, len(names)), problems
    want = np.stack([expect["kept"][s] for s in names])
    want = want - want.mean(axis=0)
    tol = INGEST_TOL * float(np.max(np.abs(want)))
    bad = int(np.count_nonzero(np.max(np.abs(U - want), axis=1) > tol))
    if bad:
        problems.append(f"{bad} subjects' U coefficients are off by more than {tol:.3g}")
    return min(failed + bad, expect["subjects_in"]), problems


# -- analysis_large ------------------------------------------------------------
# One stored dataset analysed at p=20, n=2000: the (n p) x p^2 design and its
# SVD are about 90% of each command and peak memory is about 0.8 GB, so this is
# where a Kronecker-factored ridge core must show its gain.  Same regress and
# BLAS layers as mc_power, but with large matrices, where more threads help.
# Each cycle ingests a trajectory CSV (see above), then clears the kernel
# cache, so `sweep` writes it and `fit`, `test` and `spectrum` read it.

ANALYSIS = {"n": 2000, "p": 20, "n_quad": 401, "omega": 0.84, "snr": 3.0, "lambda": 1e3,
            "B": 200, "top_m": 20}


def build_analysis_large(seed: int, work: str) -> Plan:
    a = ANALYSIS
    basis = make_cosine_basis(a["p"], a["n_quad"])
    sim_cfg = SimConfig(n=a["n"], p=a["p"], n_quad=a["n_quad"], omega=a["omega"], snr=a["snr"],
                        eigen_sign="plus", seed=seed)
    data, _ = gen_dataset(sim_cfg, np.random.default_rng(seed), basis)
    u_csv, f_csv = os.path.join(work, "U.csv"), os.path.join(work, "F.csv")
    save_dataset(data, u_csv, f_csv)
    cache = os.path.join(work, "kernel.cache")
    common = {
        "dataset": {"u_csv": u_csv, "f_csv": f_csv},
        "basis": {"p": a["p"], "n_quad": a["n_quad"]},
        "kernel": {"h": KERNEL_H, "cache": cache},
        "seed": seed,
    }
    extras = {
        "sweep": {"lambda_grid": LAMBDA_GRID},
        "fit": {"lambda": a["lambda"]},
        "test": {"lambda": a["lambda"], "B": a["B"]},
        "spectrum": {"top_m": a["top_m"]},
    }
    trajectories = os.path.join(work, "trajectories.csv")
    ingest_expect = thermo_csv(seed, trajectories, INGEST_SUBJECTS, INGEST_LEVELS)
    configs = {"ingest": {"input": trajectories}}
    configs.update((name, {**common, **extra}) for name, extra in extras.items())
    presets = {"ingest": ["--preset", "era5"]}
    commands = [  # sweep runs before fit, test and spectrum: it writes the kernel cache
        (name, [name, *presets.get(name, []), "--config",
                _write_json(os.path.join(work, f"{name}.json"), config)])
        for name, config in configs.items()
    ]
    cycles = [
        {
            "clear": [cache],
            "commands": [
                {"name": name, "argv": argv, "out": os.path.join(work, f"out_{i}_{name}"),
                 "units": 1}
                for name, argv in commands
            ],
        }
        for i in range(MAX_CYCLES)
    ]
    return Plan({"p": a["p"], "n_quad": a["n_quad"]}, cycles, unit="commands",
                expect={"u_csv": u_csv, "f_csv": f_csv, "seed": seed, "ingest": ingest_expect})


def _analysis_oracle(plan: Plan, cache: dict) -> DenseOracle:
    if "oracle" not in cache:
        a = ANALYSIS
        U = np.loadtxt(plan.expect["u_csv"], delimiter=",", skiprows=1)
        F = np.loadtxt(plan.expect["f_csv"], delimiter=",", skiprows=1)
        cache["oracle"] = DenseOracle(U, F, *_kernels(a["p"], a["n_quad"], cache))
    return cache["oracle"]


def check_analysis_large(plan: Plan, record: dict, cache: dict | None = None) -> tuple[int, list]:
    """Failed commands (0 or 1) of one analysis command and what was wrong."""
    cache = {} if cache is None else cache
    out, name = record["out"], record["name"]
    a = ANALYSIS
    if name == "ingest":
        failed, problems = check_ingest(plan.expect["ingest"], out)
        return min(failed, 1), problems
    try:
        oracle = _analysis_oracle(plan, cache)
        if name == "sweep":
            best = _read_json(os.path.join(out, "sweep.json"))["best_lambda"]
            want = {lam: oracle.row(lam) for lam in LAMBDA_GRID}
            problems = check_sweep(want, _read_csv(os.path.join(out, "sweep.csv")), best)
        elif name == "fit":
            doc = _read_json(os.path.join(out, "fit.json"))["fit"]
            rss = oracle.rss_of(np.asarray(doc["c_hat"], dtype=float))
            want = oracle.row(a["lambda"])["rss"]
            problems = [] if _close(rss, want) else [f"fit RSS {rss:.12g} vs oracle {want:.12g}"]
        elif name == "test":
            if "gof" not in cache:
                cache["gof"] = oracle.gof(a["lambda"], plan.expect["seed"], a["B"])
            got = _read_json(os.path.join(out, "gof.json"))["gof"]
            rows = _read_csv(os.path.join(out, "bootstrap_values.csv"))
            boot = np.array([float(r["q_n_boot"]) for r in rows])
            problems = check_gof(cache["gof"], got, boot)
        else:
            problems = _check_spectrum(oracle, out)
    except (OSError, KeyError, ValueError) as exc:
        problems = [f"unreadable outputs: {exc!r}"]
    return (1 if problems else 0), problems


def _check_spectrum(oracle: DenseOracle, out: str) -> list:
    got = np.array([float(r["gamma"]) for r in _read_csv(os.path.join(out, "spectrum.csv"))])
    want = oracle.gammas(ANALYSIS["top_m"])
    if got.shape != want.shape:
        return [f"{got.size} spectrum values, expected {want.size}"]
    gap = float(np.max(np.abs(got - want)))
    return [] if gap <= RTOL * want[0] else [f"spectrum differs from the oracle by {gap:.3g}"]


WORKLOADS = {
    "mc_power": Workload(build_mc_power, check_mc_power),
    "analysis_large": Workload(build_analysis_large, check_analysis_large),
}
