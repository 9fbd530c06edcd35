"""Time the layers of ``diffreg ingest --preset era5`` on a sorted and on a shuffled CSV.

    python tools/bench_ingest.py [--baseline ROOT] [--repeats K] [--out FILE]

It writes an era5-shaped trajectory CSV with numpy alone: SUBJECTS subjects
of LEVELS 17-digit samples each, a tenth of them ending above the preset's
end gate.  The CSV comes in two layouts, the same rows in each:

- ``presorted``: subject by subject in name order, each by ordinate, the
  order ingest groups rows into, so no sort is needed;
- ``shuffled``: the rows in a seeded random order.

For each layout it times these routes of this tree:

- ``load_ms``: ``load_trajectories``;
- ``gate_ms``: ``curves_to_basis`` (gates, resampling and projection);
- ``build_ms``: ``build_thermo_dataset``;
- ``save_ms``: ``save_dataset``, sidecars included;
- ``command_ms``: the whole ``ingest`` command, run in process through
  ``diffreg.cli.main``.

ROOT, when given, is another diffreg checkout (the directory holding
``src/``, for example ``git archive`` of the parent commit, named after its
directory); its routes are timed beside, on the same CSV.  The figure is the
minimum over K repeats of one call, the routes taking turns within each
repeat, with BLAS pinned to one thread.

Each layout also checks that the command writes the same U.csv, F.csv,
sidecars and ingest.json from both trees (``identical``), and the two
layouts check that they give the same U.csv and F.csv (``layouts_agree``).
The figures go to FILE (default BENCH_ingest.json).
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import diffreg  # noqa: E402
from benchkit import best_ms, load_package, write_bench  # noqa: E402

SUBJECTS, LEVELS = 2000, 40
SEED = 20250101
LAYOUTS = ("presorted", "shuffled")
OUTPUTS = ("U.csv", "F.csv", "U.csv.npz", "F.csv.npz", "ingest.json")


def trajectory_rows(seed: int) -> np.ndarray:
    """(SUBJECTS * LEVELS, 4) rows of subject number, log_p, T_real and T_pot, subject by subject.

    Each traced variable is a constant plus a cosine series over the era5
    interval with k^-3 coefficients, at jittered ordinates that span the
    start gate and, for all but a tenth of the subjects, the end gate.
    """
    rng = np.random.default_rng(seed)
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
    return np.column_stack([subject, x.ravel(), *(v.ravel() for v in values)])


def write_csv(path: str, rows: np.ndarray) -> None:
    np.savetxt(path, rows, fmt="s%05d,%.17g,%.17g,%.17g", header="subject,log_p,T_real,T_pot",
               comments="")


def tree_routes(package, csv_path: str, out: str) -> dict:
    """The timed routes of one diffreg tree on ``csv_path``, each writing below ``out``."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    ingest = importlib.import_module(f"{package.__name__}.ingest")
    preset = importlib.import_module(f"{package.__name__}.presets").get_preset("era5")
    schema = ingest.TableSchema(
        subject=preset["schema"]["subject"],
        ordinate=preset["schema"]["ordinate"],
        variables=tuple(preset["schema"]["variables"]),
    )
    basis = package.make_cosine_basis(
        p=preset["basis"]["p"], n_quad=preset["basis"]["n_quad"],
        interval=tuple(preset["basis"]["interval"]),
    )
    recipe = cli._recipe_from_config(preset["recipe"], schema.variables, basis.p)
    table = ingest.load_trajectories(csv_path, schema)
    curves, _ = ingest.curves_to_basis(table, recipe, basis)
    data = ingest.build_thermo_dataset(curves, recipe, basis)
    os.makedirs(out)
    config = os.path.join(out, "ingest_config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"input": csv_path}, fh)
    staged = os.path.join(out, "layers")
    os.makedirs(staged)
    argv = ["ingest", "--preset", "era5", "--config", config, "--out", os.path.join(out, "command")]

    def command():
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ingest exited {code}: {err.getvalue()}")

    return {
        "load": lambda: ingest.load_trajectories(csv_path, schema),
        "gate": lambda: ingest.curves_to_basis(table, recipe, basis),
        "build": lambda: ingest.build_thermo_dataset(curves, recipe, basis),
        "save": lambda: ingest.save_dataset(
            data, os.path.join(staged, "U.csv"), os.path.join(staged, "F.csv")
        ),
        "command": command,
    }


def command_outputs(out: str) -> dict:
    outputs = {}
    for name in OUTPUTS:
        with open(os.path.join(out, "command", name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="root of another diffreg checkout to time beside")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", default="BENCH_ingest.json")
    args = parser.parse_args(argv)
    trees = {"this": diffreg}
    if args.baseline:
        trees["baseline"] = load_package(args.baseline, "diffreg_baseline")
    label = os.path.basename(os.path.abspath(args.baseline)) if args.baseline else None

    rows = trajectory_rows(SEED)
    shuffled = rows[np.random.default_rng(SEED).permutation(len(rows))]
    cases, produced = [], {}
    with tempfile.TemporaryDirectory() as work:
        for layout, table_rows in zip(LAYOUTS, (rows, shuffled)):
            csv_path = os.path.join(work, f"{layout}.csv")
            write_csv(csv_path, table_rows)
            routes, outputs = {}, {}
            for tag, package in trees.items():
                out = os.path.join(work, layout, tag)
                for name, fn in tree_routes(package, csv_path, out).items():
                    routes[name if tag == "this" else f"baseline_{name}"] = fn
                routes["command" if tag == "this" else "baseline_command"]()
                outputs[tag] = command_outputs(out)
            produced[layout] = outputs["this"]
            times = dict(zip(routes, best_ms(list(routes.values()), args.repeats, 1)))
            case = {"layout": layout, "rows": len(table_rows),
                    **{f"{name}_ms": round(ms, 3) for name, ms in times.items()}}
            if args.baseline:
                for name in ("load", "gate", "build", "save", "command"):
                    case[f"{name}_speedup"] = round(times[f"baseline_{name}"] / times[name], 3)
            case["identical"] = all(outputs[tag] == outputs["this"] for tag in outputs)
            cases.append(case)
            line = ", ".join(f"{name} {ms:7.2f} ms" for name, ms in times.items())
            print(f"{layout}: {line}; identical {case['identical']}", flush=True)
    layouts_agree = all(
        produced["presorted"][name] == produced["shuffled"][name] for name in OUTPUTS[:4]
    )
    print(f"layouts agree: {layouts_agree}")

    header = {
        "label": "ingest",
        "what": "ingest --preset era5 by layer (load_trajectories, curves_to_basis, "
        "build_thermo_dataset, save_dataset) and as a whole command, on a CSV whose rows "
        "are already grouped (presorted) and on the same rows shuffled",
        "protocol": f"min of {args.repeats} alternating repeats of one call; {SUBJECTS} subjects "
        f"x {LEVELS} levels; seed {SEED}",
        "baseline": label,
        "check": "both trees write the same U.csv, F.csv, sidecars and ingest.json (identical); "
        "both layouts give the same U.csv, F.csv and sidecars (layouts_agree)",
        "layouts_agree": layouts_agree,
    }
    write_bench(args.out, header, cases)
    return 0 if layouts_agree and all(case["identical"] for case in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
