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
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .basis import make_cosine_basis
from .errors import DataError, DiffregError
from .fileio import csv_bytes, json_bytes
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
from .regress import check_lambdas, fit, gcv_sweep, spectrum_diag
from .sim import SimConfig, mc_kernels, replication_dataset, run_mc_cells
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


def _response_schema(kind: str, *required: str, **properties) -> dict:
    """The schema of one ingest response type: its type, variable and ``properties``."""
    return {
        "type": "object",
        "properties": {"type": {"const": kind}, "variable": {"type": "string"}, **properties},
        "required": ["type", "variable", *required],
        "additionalProperties": False,
    }


_RESPONSE_SCHEMAS = [
    _response_schema("thermo", kappa={"type": "number", "minimum": 0}, p0=_NUM_POS),
    _response_schema("identity"),
    _response_schema("spectral", "multipliers",
                     multipliers={"type": "array", "items": {"type": "number"}, "minItems": 1}),
]

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
                    "response": {"oneOf": _RESPONSE_SCHEMAS},
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


class SchemaError(DiffregError):
    """A config that its command's schema rejects, with the JSON path of the value at fault."""

    def __init__(self, json_path: str, message: str):
        super().__init__(f"{json_path}: {message}")
        self.json_path, self.message = json_path, message


#: the least int that float() cannot round to a finite float: the largest float plus half an ulp
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "number": _is_number,
    # as in JSON Schema, an integral float such as 2.0 is an integer
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
}


def check_schema(schema: dict, value, path: str = "$") -> None:
    """Raise SchemaError at the first value, depth first, that ``schema`` rejects.

    Implements the JSON Schema (draft 2020-12) keywords SCHEMAS use, and no
    other: an unknown keyword raises NotImplementedError when first reached.
    One rule is added: JSON integers parse as Python ints of any size, so an
    int where a "number" is allowed must also fit in a float; one past the
    float range would otherwise reach the numerics as an OverflowError.
    The bounds compare a huge int exactly.
    """
    is_dict, is_list, is_number = isinstance(value, dict), isinstance(value, list), _is_number(value)
    for key, rule in schema.items():
        message = None
        if key == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_TYPES[name](value) for name in types):
                message = f"{value!r} is not of type {', '.join(map(repr, types))}"
            elif "number" in types and isinstance(value, int) and abs(value) >= _FLOAT_OVERFLOW:
                message = f"an integer of {len(str(abs(value)))} digits does not fit in a float"
        elif key == "properties":
            for name, sub in rule.items():
                if is_dict and name in value:
                    check_schema(sub, value[name], f"{path}.{name}")
        elif key == "required":
            missing = [name for name in rule if is_dict and name not in value]
            if missing:
                message = f"{missing[0]!r} is a required property"
        elif key == "additionalProperties" and rule is False:
            extra = [name for name in value if name not in schema["properties"]] if is_dict else []
            if extra:
                message = f"additional properties are not allowed: {extra}"
        elif key in ("enum", "const"):
            allowed = rule if key == "enum" else [rule]
            if value not in allowed:  # strings only in SCHEMAS, so True cannot pass for 1
                message = f"{value!r} is not one of {allowed!r}"
        elif key == "items":
            for i, item in enumerate(value if is_list else ()):
                check_schema(rule, item, f"{path}[{i}]")
        elif key in ("minItems", "maxItems"):
            if is_list and (len(value) < rule if key == "minItems" else len(value) > rule):
                bound = "least" if key == "minItems" else "most"
                message = f"{value!r} should have at {bound} {rule} items"
        elif key == "minimum":
            if is_number and value < rule:
                message = f"{value!r} is less than the minimum of {rule!r}"
        elif key == "exclusiveMinimum":
            if is_number and value <= rule:
                message = f"{value!r} is less than or equal to the minimum of {rule!r}"
        elif key == "exclusiveMaximum":
            if is_number and value >= rule:
                message = f"{value!r} is greater than or equal to the maximum of {rule!r}"
        elif key == "oneOf":
            matches = sum(_passes(sub, value, path) for sub in rule)
            if matches != 1:
                message = f"{value!r} matches {matches} of the {len(rule)} oneOf schemas, not 1"
        else:
            raise NotImplementedError(f"schema keyword {key!r} at {path} is not supported")
        if message is not None:
            raise SchemaError(path, message)


def _passes(schema: dict, value, path: str) -> bool:
    try:
        check_schema(schema, value, path)
    except SchemaError:
        return False
    return True


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


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
    cached = bool(cache) and os.path.exists(cache)
    if cached:
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
    else:
        with _from_config():
            km = assemble(basis, P, B, L, spec)
    try:
        km.whitening  # every dataset command factors with it: computed here once, then cached
    except ValueError as exc:
        raise ConfigError(f"kernel L ({L.kind}, param {L.param:g}) cannot be used: {exc}") from exc
    if cache and not cached:
        save_kernel_matrices(km, cache)
    return km


def _load_inputs(config: dict):
    """Basis, kernel matrices and dataset of a dataset-consuming command."""
    basis = _build_basis(config)
    km = _build_kernels(config, basis)
    ds = config["dataset"]
    data = load_dataset(ds["u_csv"], ds["f_csv"], basis)
    with _from_config():
        for key in ("lambda", "lambda_grid"):
            if key in config:
                check_lambdas(config[key], key, data.n)
    return basis, km, data


def cmd_simulate(config: dict, out: str) -> None:
    base = {f.name: config[f.name] for f in dataclasses.fields(SimConfig) if f.name in config}
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
    for omega, report in zip(labels, reports):
        cells[f"omega={omega}"] = report.summary()
        records = csv_bytes(report.header(), report.columns.values(), "%.12g", "\n")
        _write(out, f"records_omega{omega}.csv", records)
        for rep, values in report.bootstrap_dumps:
            dump = csv_bytes(["q_n_boot"], [values], "%.12g", "\n")
            _write(out, f"bootstrap_omega{omega}_rep{rep}.csv", dump)
    _write(out, "summary.json", json_bytes({**_provenance(config), "cells": cells}))
    if config.get("dump_dataset"):
        data, _ = replication_dataset(cfgs[0], rep=0, basis=kernels[0])
        save_dataset(data, os.path.join(out, "U.csv"), os.path.join(out, "F.csv"))


def cmd_fit(config: dict, out: str) -> None:
    _, km, data = _load_inputs(config)
    result = fit(data, km, config["lambda"])
    doc = {**_provenance(config), "fit": result.to_json_dict()}
    _write(out, "fit.json", json_bytes(doc))


def cmd_sweep(config: dict, out: str) -> None:
    _, km, data = _load_inputs(config)
    result = gcv_sweep(data, km, config["lambda_grid"])
    columns = (result.lambdas, result.rss, result.gcv, result.trace)
    _write(out, "sweep.csv", csv_bytes(["lambda", "rss", "gcv", "trace"], columns, "%.12g", "\n"))
    doc = {**_provenance(config), "best_lambda": result.best_lambda}
    _write(out, "sweep.json", json_bytes(doc))


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
    _write(out, "gof.json", json_bytes(doc))
    dump = csv_bytes(["q_n_boot"], [result.bootstrap_values], "%.12g", "\n")
    _write(out, "bootstrap_values.csv", dump)


def cmd_spectrum(config: dict, out: str) -> None:
    basis, km, data = _load_inputs(config)
    if config["top_m"] > basis.p**2:
        raise ConfigError(f"top_m must be at most p^2 = {basis.p**2}, got {config['top_m']}")
    gammas = spectrum_diag(data, km, config["top_m"])
    columns = (np.arange(1, len(gammas) + 1), gammas)
    _write(out, "spectrum.csv", csv_bytes(["k", "gamma"], columns, "%.12g", "\n"))
    doc = {**_provenance(config), "gammas": [float(g) for g in gammas]}
    _write(out, "spectrum.json", json_bytes(doc))


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


def resolve_config(command: str, preset: str | None, config_path: str | None, seed: int | None) -> dict:
    """Merge preset and config file, apply CLI overrides, and check the command's schema.

    Raises SchemaError, naming the JSON path, for the first value the
    schema rejects in a depth-first walk (``check_schema``); ValueError for
    a missing config, an unknown or mismatched preset, a malformed or
    non-finite JSON document; OSError for an unreadable file.
    """
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
    check_schema(SCHEMAS[command], merged)
    return merged


def main(argv=None) -> int:
    # one flat parser: every command takes the same options
    parser = argparse.ArgumentParser(
        prog="diffreg",
        description="Differential function-on-function regression toolkit",
        epilog="""commands:
  simulate  run a Monte Carlo study
  fit       fit the operator estimator to a dataset
  test      run the bootstrap goodness-of-fit test
  sweep     evaluate the GCV criterion over a lambda grid
  spectrum  report the generalized eigenvalue diagnostic
  ingest    build a dataset from trajectory CSV data""",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"diffreg {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help="named preset (see diffreg.presets)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, help="accepted, ignored; use OPENBLAS_NUM_THREADS")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = resolve_config(args.command, args.preset, args.config, args.seed)
    except SchemaError as exc:
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
