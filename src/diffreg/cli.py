"""Command-line entry point.

    diffreg <command> --config FILE [--preset NAME] [--seed N]
                      [--threads N] [--out DIR]

Commands: simulate, fit, test, sweep, spectrum, ingest.  Configs are JSON
documents validated against per-command schemas (unknown keys rejected);
a preset may be used alone or overridden by a config file.  Outputs are
CSV and JSON files with the resolved config embedded verbatim; every file
is staged in a temporary directory and renamed into place, so a failing
command leaves no partial outputs.

Exit codes: 0 success, 1 runtime failure, 2 config error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import jsonschema

from . import __version__
from .basis import make_cosine_basis
from .errors import DataError, DiffregError
from .gof import STRATEGIES, ParamFamily, bootstrap_test
from .ingest import (
    IdentityResponse,
    RecipeSpec,
    SpectralResponse,
    TableSchema,
    ThermoResponse,
    build_thermo_dataset,
    curves_to_basis,
    load_dataset,
    load_trajectories,
    save_dataset,
    save_ingest_provenance,
)
from .kernels import (
    OP_KINDS,
    KernelSpec,
    LinearOpSpec,
    assemble,
    kernel_provenance,
    load_kernel_matrices,
    save_kernel_matrices,
)
from .presets import get_preset
from .regress import fit, gcv_sweep, spectrum_diag
from .sim import SimConfig, replication_dataset, run_mc

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG, EXIT_DATA = 0, 1, 2, 3

_NUM_POS = {"type": "number", "exclusiveMinimum": 0}
_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_OP_SCHEMA = {
    "type": "object",
    "properties": {"kind": {"enum": list(OP_KINDS)}, "param": {"type": "number"}},
    "required": ["kind"],
    "additionalProperties": False,
}
_BASIS_SCHEMA = {
    "type": "object",
    "properties": {
        "p": {"type": "integer", "minimum": 1},
        "n_quad": {"type": "integer", "minimum": 3},
        "interval": _PAIR,
    },
    "required": ["p"],
    "additionalProperties": False,
}
_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "h": _NUM_POS,
        "include_boundary": {"type": "boolean"},
        "P": _OP_SCHEMA,
        "B": _OP_SCHEMA,
        "L": _OP_SCHEMA,
        "cache": {"type": "string"},
    },
    "additionalProperties": False,
}
_DATASET_SCHEMA = {
    "type": "object",
    "properties": {"u_csv": {"type": "string"}, "f_csv": {"type": "string"}},
    "required": ["u_csv", "f_csv"],
    "additionalProperties": False,
}
_META_PROPS = {
    "command": {"type": "string"},
    "description": {"type": "string"},
    "seed": {"type": "integer"},
}
_DS_PROPS = {
    **_META_PROPS,
    "dataset": _DATASET_SCHEMA,
    "basis": _BASIS_SCHEMA,
    "kernel": _KERNEL_SCHEMA,
}

SCHEMAS = {
    "simulate": {
        "type": "object",
        "properties": {
            **_META_PROPS,
            "n": {"type": "integer", "minimum": 2},
            "p": {"type": "integer", "minimum": 1},
            "snr": _NUM_POS,
            "omegas": {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
            "lambda_grid": {"type": "array", "items": _NUM_POS, "minItems": 1},
            "B": {"type": "integer", "minimum": 100},
            "reps": {"type": "integer", "minimum": 1},
            "strategy": {"enum": list(STRATEGIES)},
            "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "eigen_sign": {"enum": ["minus", "plus"]},
            "h": _NUM_POS,
            "n_quad": {"type": "integer", "minimum": 3},
            "test_lambda": {
                "oneOf": [{"enum": ["ess_min", "gcv_min"]}, _NUM_POS]
            },
            "run_test": {"type": "boolean"},
            "refine_rounds": {"type": "integer", "minimum": 0},
            "skip_failures": {"type": "boolean"},
            "keep_bootstrap": {"type": "integer", "minimum": 0},
            "dump_dataset": {"type": "boolean"},
        },
        "required": ["n", "snr", "omegas"],
        "additionalProperties": False,
    },
    "fit": {
        "type": "object",
        "properties": {**_DS_PROPS, "lambda": _NUM_POS},
        "required": ["dataset", "basis", "lambda"],
        "additionalProperties": False,
    },
    "sweep": {
        "type": "object",
        "properties": {
            **_DS_PROPS,
            "lambda_grid": {"type": "array", "items": _NUM_POS, "minItems": 1},
        },
        "required": ["dataset", "basis", "lambda_grid"],
        "additionalProperties": False,
    },
    "test": {
        "type": "object",
        "properties": {
            **_DS_PROPS,
            "lambda": _NUM_POS,
            "B": {"type": "integer", "minimum": 100},
            "strategy": {"enum": list(STRATEGIES)},
            "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "family": {
                "type": "object",
                "properties": {"kind": {"enum": ["scaled_neg_laplacian"]}},
                "required": ["kind"],
                "additionalProperties": False,
            },
        },
        "required": ["dataset", "basis", "lambda"],
        "additionalProperties": False,
    },
    "spectrum": {
        "type": "object",
        "properties": {**_DS_PROPS, "top_m": {"type": "integer", "minimum": 1}},
        "required": ["dataset", "basis", "top_m"],
        "additionalProperties": False,
    },
    "ingest": {
        "type": "object",
        "properties": {
            **_META_PROPS,
            "input": {"type": ["string", "null"]},
            "lenient": {"type": "boolean"},
            "schema": {
                "type": "object",
                "properties": {
                    "subject": {"type": "string"},
                    "ordinate": {"type": "string"},
                    "variables": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                },
                "required": ["subject", "ordinate", "variables"],
                "additionalProperties": False,
            },
            "recipe": {
                "type": "object",
                "properties": {
                    "predictor": {"type": "string"},
                    "response": {
                        "oneOf": [
                            {
                                "type": "object",
                                "properties": {
                                    "type": {"const": "thermo"},
                                    "variable": {"type": "string"},
                                    "kappa": {"type": "number", "minimum": 0},
                                    "p0": _NUM_POS,
                                },
                                "required": ["type", "variable"],
                                "additionalProperties": False,
                            },
                            {
                                "type": "object",
                                "properties": {
                                    "type": {"const": "identity"},
                                    "variable": {"type": "string"},
                                },
                                "required": ["type", "variable"],
                                "additionalProperties": False,
                            },
                            {
                                "type": "object",
                                "properties": {
                                    "type": {"const": "spectral"},
                                    "variable": {"type": "string"},
                                    "multipliers": {
                                        "type": "array",
                                        "items": {"type": "number"},
                                        "minItems": 1,
                                    },
                                },
                                "required": ["type", "variable", "multipliers"],
                                "additionalProperties": False,
                            },
                        ]
                    },
                    "interval": _PAIR,
                    "start_gate": {"oneOf": [_PAIR, {"type": "null"}]},
                    "end_gate": {"oneOf": [_PAIR, {"type": "null"}]},
                    "derivative_gate": {"type": ["number", "null"]},
                    "center": {"type": "boolean"},
                    "penalty": {"type": "number", "minimum": 0},
                },
                "required": ["predictor", "response", "interval"],
                "additionalProperties": False,
            },
            "basis": _BASIS_SCHEMA,
        },
        "required": ["input", "schema", "recipe", "basis"],
        "additionalProperties": False,
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _csv_bytes(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _provenance(config: dict) -> dict:
    return {"config": config, "version": __version__}


def _write(out: str, name: str, payload: bytes) -> None:
    with open(os.path.join(out, name), "wb") as fh:
        fh.write(payload)


def _build_basis(config: dict):
    basis_cfg = config["basis"]
    return make_cosine_basis(
        p=basis_cfg["p"],
        n_quad=basis_cfg.get("n_quad", 201),
        interval=tuple(basis_cfg.get("interval", (0.0, 1.0))),
    )


def _build_kernels(config: dict, basis):
    kcfg = config.get("kernel", {})
    P, B, L = (
        LinearOpSpec(spec["kind"], spec.get("param", 0.0))
        for spec in (
            kcfg.get("P", {"kind": "neg_laplacian"}),
            kcfg.get("B", {"kind": "identity"}),
            kcfg.get("L", {"kind": "neg_laplacian"}),
        )
    )
    spec = KernelSpec(h=kcfg.get("h", 0.01), include_boundary=kcfg.get("include_boundary", True))
    cache = kcfg.get("cache")
    if cache and os.path.exists(cache):
        km = load_kernel_matrices(cache)
        # compare as stored: the cache holds the provenance as JSON
        expect = json.loads(json.dumps(kernel_provenance(basis, P, B, L, spec)))
        stale = sorted(
            key
            for key in expect.keys() | km.provenance.keys()
            if km.provenance.get(key) != expect.get(key)
        )
        if stale:
            raise DataError(f"kernel cache {cache} was built with different {', '.join(stale)}")
        return km
    km = assemble(basis, P, B, L, spec)
    if cache:
        save_kernel_matrices(km, cache)
    return km


def _load_inputs(config: dict):
    """Basis, kernel matrices and dataset of a dataset-consuming command."""
    basis = _build_basis(config)
    km = _build_kernels(config, basis)
    ds = config["dataset"]
    return basis, km, load_dataset(ds["u_csv"], ds["f_csv"], basis)


def cmd_simulate(config: dict, out: str, threads: int) -> None:
    sim_keys = (
        "n", "p", "snr", "B", "reps", "seed", "strategy", "alpha", "eigen_sign",
        "h", "n_quad", "test_lambda", "run_test", "refine_rounds", "skip_failures",
        "keep_bootstrap",
    )
    base = {k: config[k] for k in sim_keys if k in config}
    if "lambda_grid" in config:
        base["lambda_grid"] = tuple(config["lambda_grid"])
    cells = {}
    progress = sys.stderr.isatty()
    for omega in config["omegas"]:
        cfg = SimConfig(omega=float(omega), **base)
        report = run_mc(cfg, max_workers=threads, progress=progress)
        label = f"omega={omega:g}"
        cells[label] = report.summary()
        lam_labels = [f"{lam:g}" for lam in report.lambda_grid]
        header = (
            ["rep"]
            + [f"ess_lam_{s}" for s in lam_labels]
            + [f"rss_lam_{s}" for s in lam_labels]
            + [f"gcv_lam_{s}" for s in lam_labels]
            + [f"trace_lam_{s}" for s in lam_labels]
            + [
                "gcv_best_lambda", "ess_min_lambda", "ess_min_value",
                "theta_hat", "ess_theta", "tss",
                "test_lambda", "q_n", "p_value", "reject",
            ]
        )
        rows = [
            [rec.rep]
            + list(rec.ess_lambda) + list(rec.rss_lambda)
            + list(rec.gcv_lambda) + list(rec.trace_lambda)
            + [
                rec.gcv_best_lambda, rec.ess_min_lambda, rec.ess_min_value,
                rec.theta_hat, rec.ess_theta, rec.tss,
                rec.test_lambda, rec.q_n, rec.p_value, rec.reject,
            ]
            for rec in report.records
        ]
        _write(out, f"records_{label.replace('=', '')}.csv", _csv_bytes(header, rows))
        for rep, values in report.bootstrap_dumps:
            _write(
                out,
                f"bootstrap_{label.replace('=', '')}_rep{rep}.csv",
                _csv_bytes(["q_n_boot"], [[v] for v in values]),
            )
    _write(out, "summary.json", _json_bytes({**_provenance(config), "cells": cells}))
    if config.get("dump_dataset"):
        cfg = SimConfig(omega=float(config["omegas"][0]), **base)
        data, _ = replication_dataset(cfg, rep=0)
        save_dataset(data, os.path.join(out, "U.csv"), os.path.join(out, "F.csv"))


def cmd_fit(config: dict, out: str, threads: int) -> None:
    _, km, data = _load_inputs(config)
    result = fit(data, km, config["lambda"])
    doc = {**_provenance(config), "fit": result.to_json_dict()}
    _write(out, "fit.json", _json_bytes(doc))


def cmd_sweep(config: dict, out: str, threads: int) -> None:
    _, km, data = _load_inputs(config)
    result = gcv_sweep(data, km, config["lambda_grid"])
    rows = [[r.lam, r.rss, r.gcv, r.trace] for r in result.rows]
    _write(out, "sweep.csv", _csv_bytes(["lambda", "rss", "gcv", "trace"], rows))
    doc = {**_provenance(config), "best_lambda": result.best_lambda}
    _write(out, "sweep.json", _json_bytes(doc))


def cmd_test(config: dict, out: str, threads: int) -> None:
    basis, km, data = _load_inputs(config)
    family = ParamFamily.scaled_neg_laplacian(basis)
    result = bootstrap_test(
        data,
        km,
        config["lambda"],
        family,
        B=config.get("B", 200),
        strategy=config.get("strategy", "mixed"),
        seed=config.get("seed", 0),
    )
    alpha = config.get("alpha", 0.05)
    doc = {
        **_provenance(config),
        "gof": result.to_json_dict(),
        "alpha": alpha,
        "reject": bool(result.p_value < alpha),
    }
    _write(out, "gof.json", _json_bytes(doc))
    rows = [[v] for v in result.bootstrap_values]
    _write(out, "bootstrap_values.csv", _csv_bytes(["q_n_boot"], rows))


def cmd_spectrum(config: dict, out: str, threads: int) -> None:
    _, km, data = _load_inputs(config)
    gammas = spectrum_diag(data, km, config["top_m"])
    rows = [[k + 1, g] for k, g in enumerate(gammas)]
    _write(out, "spectrum.csv", _csv_bytes(["k", "gamma"], rows))
    doc = {**_provenance(config), "gammas": [float(g) for g in gammas]}
    _write(out, "spectrum.json", _json_bytes(doc))


def _recipe_from_config(rcfg: dict) -> RecipeSpec:
    response_cfg = rcfg["response"]
    kind = response_cfg["type"]
    if kind == "thermo":
        response = ThermoResponse(
            variable=response_cfg["variable"],
            kappa=response_cfg.get("kappa", 0.286),
            p0=response_cfg.get("p0", 1000.0),
        )
    elif kind == "identity":
        response = IdentityResponse(variable=response_cfg["variable"])
    else:
        response = SpectralResponse(
            variable=response_cfg["variable"],
            multipliers=tuple(response_cfg["multipliers"]),
        )
    gates = {
        key: tuple(rcfg[key]) if rcfg.get(key) is not None else None
        for key in ("start_gate", "end_gate")
    }
    return RecipeSpec(
        predictor=rcfg["predictor"],
        response=response,
        interval=tuple(rcfg["interval"]),
        start_gate=gates["start_gate"],
        end_gate=gates["end_gate"],
        derivative_gate=rcfg.get("derivative_gate"),
        center=rcfg.get("center", True),
        penalty=rcfg.get("penalty", 0.0),
    )


def cmd_ingest(config: dict, out: str, threads: int) -> None:
    if not config.get("input"):
        raise DataError("ingest needs an 'input' CSV path in the config")
    schema = TableSchema(
        subject=config["schema"]["subject"],
        ordinate=config["schema"]["ordinate"],
        variables=tuple(config["schema"]["variables"]),
    )
    recipe = _recipe_from_config(config["recipe"])
    basis = _build_basis({"basis": {"interval": list(recipe.interval), **config["basis"]}})
    table = load_trajectories(config["input"], schema, lenient=config.get("lenient", False))
    curves, report = curves_to_basis(table, recipe, basis)
    data = build_thermo_dataset(curves, recipe, basis)
    save_dataset(data, os.path.join(out, "U.csv"), os.path.join(out, "F.csv"))
    save_ingest_provenance(
        os.path.join(out, "ingest.json"), report, recipe, basis, extra=_provenance(config)
    )


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "test": cmd_test,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "ingest": cmd_ingest,
}


def resolve_config(command: str, preset: str | None, config_path: str | None, seed: int | None) -> dict:
    """Merge preset and config file, apply CLI overrides, and validate."""
    if preset is None and config_path is None:
        raise ValueError("provide --config and/or --preset")
    merged: dict = {}
    if preset is not None:
        merged = get_preset(preset)
        expected = merged.pop("command", command)
        if expected != command:
            raise ValueError(f"preset {preset!r} is for the {expected!r} command")
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            merged = _deep_merge(merged, json.load(fh))
    if seed is not None:
        merged["seed"] = seed
    jsonschema.validate(merged, SCHEMAS[command])
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffreg",
        description="Differential function-on-function regression toolkit",
    )
    parser.add_argument("--version", action="version", version=f"diffreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("simulate", "run a Monte Carlo study"),
        ("fit", "fit the operator estimator to a dataset"),
        ("test", "run the bootstrap goodness-of-fit test"),
        ("sweep", "evaluate the GCV criterion over a lambda grid"),
        ("spectrum", "report the generalized eigenvalue diagnostic"),
        ("ingest", "build a dataset from trajectory CSV data"),
    ):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--preset", help="named preset (see diffreg.presets)")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--threads", type=int, default=1, help="worker thread cap")
        sp.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = resolve_config(args.command, args.preset, args.config, args.seed)
    except (jsonschema.ValidationError) as exc:
        path = exc.json_path if hasattr(exc, "json_path") else "$"
        print(f"config error at {path}: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    threads = max(1, args.threads)
    try:
        # stage everything, then publish with atomic renames
        with tempfile.TemporaryDirectory(dir=out_dir, prefix=".diffreg-") as tmp:
            COMMANDS[args.command](config, tmp, threads)
            for name in sorted(os.listdir(tmp)):
                os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DiffregError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
