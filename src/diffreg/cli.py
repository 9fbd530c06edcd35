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
``--threads N`` is accepted and ignored: OPENBLAS_NUM_THREADS controls parallelism.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import tempfile
import typing

import jsonschema
import numpy as np

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
    DEFAULT_OPERATORS,
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
from .sim import RepRecord, SimConfig, mc_kernels, replication_dataset, run_mc_cells
from .sim import run_mc  # noqa: F401  perfbench/tracer.py wraps cli.run_mc by name

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG, EXIT_DATA = 0, 1, 2, 3


class ConfigError(DiffregError):
    """A config value the schema admits but the command cannot use."""


@contextlib.contextmanager
def _from_config():
    """Report a ValueError raised while building objects out of the config as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    "seed": {"type": "integer", "minimum": 0},
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


def _given(section: dict, *keys: str) -> dict:
    """The entries of ``section`` under ``keys`` that the config sets; the callee owns the rest."""
    return {key: section[key] for key in keys if key in section}


def _build_basis(config: dict):
    with _from_config():
        return make_cosine_basis(**config["basis"])


def _build_kernels(config: dict, basis):
    kcfg = config.get("kernel", {})
    with _from_config():
        P, B, L = (
            LinearOpSpec(**kcfg[role]) if role in kcfg else DEFAULT_OPERATORS[role]
            for role in ("P", "B", "L")
        )
        spec = KernelSpec(h=kcfg.get("h", 0.01), **_given(kcfg, "include_boundary"))
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
    with _from_config():
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


def cmd_simulate(config: dict, out: str) -> None:
    base = {f.name: config[f.name] for f in dataclasses.fields(SimConfig) if f.name in config}
    # records columns follow the RepRecord fields; a lambda-indexed array
    # field such as ess_lambda takes one column per grid point, ess_lam_<lambda>
    names = [f.name for f in dataclasses.fields(RepRecord)]
    arrays = {name for name, t in typing.get_type_hints(RepRecord).items() if t is np.ndarray}
    with _from_config():
        cfgs = [SimConfig(omega=float(omega), **base) for omega in config["omegas"]]
        # summary.json and the records and bootstrap file names key each cell by this label
        labels = [f"{cfg.omega:g}" for cfg in cfgs]
        if len(set(labels)) < len(labels):
            raise ValueError(f"omegas values must have distinct %g labels, got {labels}")
        # the cells differ in omega only, so they share one basis and kernel
        kernels = mc_kernels(cfgs[0])
    reports = run_mc_cells(cfgs, progress=sys.stderr.isatty(), kernels=kernels)
    cells = {}
    for omega, cfg, report in zip(labels, cfgs, reports):
        label = f"omega={omega}"
        cells[label] = report.summary()
        header = []
        for name in names:
            lam_columns = [f"{name.removesuffix('lambda')}lam_{lam:g}" for lam in cfg.lambda_grid]
            header += lam_columns if name in arrays else [name]
        rows = [
            [
                value
                for name in names
                for value in (getattr(rec, name) if name in arrays else [getattr(rec, name)])
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
        data, _ = replication_dataset(cfgs[0], rep=0, basis=kernels[0])
        save_dataset(data, os.path.join(out, "U.csv"), os.path.join(out, "F.csv"))


def cmd_fit(config: dict, out: str) -> None:
    _, km, data = _load_inputs(config)
    result = fit(data, km, config["lambda"])
    doc = {**_provenance(config), "fit": result.to_json_dict()}
    _write(out, "fit.json", _json_bytes(doc))


def cmd_sweep(config: dict, out: str) -> None:
    _, km, data = _load_inputs(config)
    result = gcv_sweep(data, km, config["lambda_grid"])
    columns = (result.lambdas, result.rss, result.gcv, result.trace)
    rows = zip(*(column.tolist() for column in columns))
    _write(out, "sweep.csv", _csv_bytes(["lambda", "rss", "gcv", "trace"], rows))
    doc = {**_provenance(config), "best_lambda": result.best_lambda}
    _write(out, "sweep.json", _json_bytes(doc))


def cmd_test(config: dict, out: str) -> None:
    basis, km, data = _load_inputs(config)
    family = ParamFamily.scaled_neg_laplacian(basis)
    result = bootstrap_test(
        data, km, config["lambda"], family, **_given(config, "B", "strategy", "seed")
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


def cmd_spectrum(config: dict, out: str) -> None:
    basis, km, data = _load_inputs(config)
    if config["top_m"] > basis.p**2:
        raise ConfigError(f"top_m must be at most p^2 = {basis.p**2}, got {config['top_m']}")
    gammas = spectrum_diag(data, km, config["top_m"])
    rows = [[k + 1, g] for k, g in enumerate(gammas)]
    _write(out, "spectrum.csv", _csv_bytes(["k", "gamma"], rows))
    doc = {**_provenance(config), "gammas": [float(g) for g in gammas]}
    _write(out, "spectrum.json", _json_bytes(doc))


_RESPONSES = {"thermo": ThermoResponse, "identity": IdentityResponse, "spectral": SpectralResponse}


def _recipe_from_config(rcfg: dict, variables: tuple, p: int) -> RecipeSpec:
    """The ingest recipe, checked against the traced variables and the basis size."""
    response_cfg = dict(rcfg["response"])
    for role, name in (("predictor", rcfg["predictor"]), ("response", response_cfg["variable"])):
        if name not in variables:
            raise ValueError(
                f"recipe {role} {name!r} is not one of the schema variables {list(variables)}"
            )
    multipliers = response_cfg.get("multipliers")
    if multipliers is not None and len(multipliers) != p:
        raise ValueError(f"spectral response has {len(multipliers)} multipliers but basis p = {p}")
    # the schema admits exactly the dataclass fields; omitted ones take their defaults
    response_type = _RESPONSES[response_cfg.pop("type")]
    if multipliers is not None:
        response_cfg["multipliers"] = tuple(multipliers)
    settings = {**rcfg, "response": response_type(**response_cfg)}
    for key in ("interval", "start_gate", "end_gate"):
        if settings.get(key) is not None:
            settings[key] = tuple(settings[key])
    return RecipeSpec(**settings)


def cmd_ingest(config: dict, out: str) -> None:
    if not config.get("input"):
        raise DataError("ingest needs an 'input' CSV path in the config")
    schema = TableSchema(
        subject=config["schema"]["subject"],
        ordinate=config["schema"]["ordinate"],
        variables=tuple(config["schema"]["variables"]),
    )
    basis = _build_basis({"basis": {"interval": config["recipe"]["interval"], **config["basis"]}})
    with _from_config():
        recipe = _recipe_from_config(config["recipe"], schema.variables, basis.p)
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


def _float_sized_type(validator, types, instance, schema):
    """The ``type`` keyword, under which a "number" must also fit in a float.

    JSON integers parse as Python ints of any size; one past the float range
    would otherwise reach the numerics as an OverflowError.  The "number"
    type itself is left alone, so ``minimum`` still checks a huge integer.
    """
    base_type = jsonschema.Draft202012Validator.VALIDATORS["type"]
    yield from base_type(validator, types, instance, schema)
    if types == "number" and isinstance(instance, int) and not isinstance(instance, bool):
        try:
            float(instance)
        except OverflowError:
            digits = len(str(abs(instance)))
            message = f"an integer of {digits} digits does not fit in a float"
            yield jsonschema.ValidationError(message)


@functools.cache
def _validator(command: str):
    """The validator of one command's schema, built on first use."""
    validator = jsonschema.validators.extend(
        jsonschema.Draft202012Validator, {"type": _float_sized_type}
    )
    return validator(SCHEMAS[command])


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
        def finite(literal: str) -> float:
            # parse_constant sees NaN and Infinity; parse_float sees 1e999, which float reads as inf
            value = float(literal)
            if not np.isfinite(value):
                raise ValueError(f"{config_path}: non-finite number {literal}")
            return value

        with open(config_path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=finite, parse_float=finite)
        if not isinstance(doc, dict):
            raise ValueError(f"{config_path} must hold a JSON object")
        merged = _deep_merge(merged, doc)
    if seed is not None:
        merged["seed"] = seed
    # the error jsonschema.validate would raise, without its metaschema check per call
    error = jsonschema.exceptions.best_match(_validator(command).iter_errors(merged))
    if error is not None:
        raise error
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
        sp.add_argument("--threads", type=int, help="accepted, ignored; use OPENBLAS_NUM_THREADS")
        sp.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = resolve_config(args.command, args.preset, args.config, args.seed)
    except jsonschema.ValidationError as exc:
        print(f"config error at {exc.json_path}: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    except (KeyError, ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # stage everything, then publish with atomic renames
        with tempfile.TemporaryDirectory(dir=out_dir, prefix=".diffreg-") as tmp:
            COMMANDS[args.command](config, tmp)
            for name in sorted(os.listdir(tmp)):
                os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DiffregError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
