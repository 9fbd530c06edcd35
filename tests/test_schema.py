"""The config checker ``cli.check_schema`` against jsonschema, and the import path it keeps light."""

import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffreg.cli import SCHEMAS, SchemaError, check_schema
from diffreg.presets import get_preset

#: the least int float() cannot convert; the checker's extra rule starts here
TOO_BIG = 2**1024 - 2**970


def _float_sized_type(validator, types, instance, schema):
    """jsonschema's ``type``, under which an int where "number" is allowed must fit in a float."""
    yield from jsonschema.Draft202012Validator.VALIDATORS["type"](validator, types, instance, schema)
    allowed = [types] if isinstance(types, str) else types
    if "number" in allowed and isinstance(instance, int) and not isinstance(instance, bool):
        try:
            float(instance)
        except OverflowError:
            yield jsonschema.ValidationError("does not fit in a float")


ORACLE = jsonschema.validators.extend(jsonschema.Draft202012Validator, {"type": _float_sized_type})


def checker_accepts(schema, doc):
    try:
        check_schema(schema, doc)
    except SchemaError as exc:
        assert exc.message and exc.json_path.startswith("$")
        resolve(doc, exc.json_path)  # the path names a value of the document
        return False
    return True


def resolve(doc, json_path):
    """The value at a ``$.key[i]`` path; keys in SCHEMAS hold no '.' or '['."""
    value = doc
    for part in json_path[1:].replace("[", ".[").split(".")[1:]:
        value = value[int(part[1:-1])] if part.startswith("[") else value[part]
    return value


def _bounds(schema):
    """Each numeric bound of a schema, as given and as float, and the numbers beside it."""
    out = []
    for key in ("minimum", "exclusiveMinimum", "exclusiveMaximum"):
        if key in schema:
            b = schema[key]
            out += [b, float(b), b - 1, b + 1, float(np.nextafter(b, -np.inf)),
                    float(np.nextafter(b, np.inf))]
    return out


#: values of every JSON type, for any node
COMMON = [None, True, False, 0, -1, 2.0, 2.5, "", "x", [], [1.0], [0.0, 1.0, 2.0], {}]
#: the range of a float, and ints on either side of the extra rule's edge
NUMBERS = [5e-324, 1e300, float(np.finfo(float).max), TOO_BIG - 1, TOO_BIG, -TOO_BIG, 10**400]


def cached(build):
    """``build`` memoized on its schema's identity: hypothesis strategies are costly to rebuild."""
    made = {}

    def get(schema):
        if id(schema) not in made:
            made[id(schema)] = build(schema)
        return made[id(schema)]

    return get


@st.composite
def documents(draw, schema):
    """A value drawn to pass ``schema``, with up to two of its nodes then set to edge values."""
    doc = draw(valid(schema))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        path, sub = draw(st.sampled_from(list(nodes(schema, doc))))
        doc = replace(doc, path, draw(edges(sub)))
    return doc


def nodes(schema, value, path=()):
    """(path, schema) of ``value`` and of each value below it that a schema describes."""
    yield path, schema
    if "oneOf" in schema:  # descend into a branch the value matches, if any
        schema = next((sub for sub in schema["oneOf"] if ORACLE(sub).is_valid(value)), {})
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from nodes(sub, value[key], (*path, key))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from nodes(schema["items"], item, (*path, i))


def replace(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    if not path:
        return value
    copy = type(doc)(doc)
    copy[path[0]] = replace(doc[path[0]], path[1:], value)
    return copy


@cached
def edges(schema):
    """Values at or past the schema's edges: wrong types, bounds and their neighbours,
    ints too large for a float, missing required and extra keys, empty and overlong
    arrays, each oneOf branch."""
    types = schema.get("type", [])
    choices = [st.sampled_from(values) for values in (
        COMMON, _bounds(schema), NUMBERS if "number" in types else [],
        [10**400, -(10**400)] if "integer" in types else [],
    ) if values]
    if types == "object":
        whole = valid(schema)
        choices.append(whole.map(lambda doc: {**doc, "extra": 1}))
        if schema.get("required"):
            choices.append(whole.flatmap(lambda doc: st.sampled_from(sorted(doc)).map(
                lambda drop: {k: v for k, v in doc.items() if k != drop})))
    if types == "array":
        top = schema.get("maxItems", schema.get("minItems", 0) + 2) + 1
        choices.append(st.lists(valid(schema["items"]), max_size=top))
    choices += [valid(sub) for sub in schema.get("oneOf", [])]
    return st.one_of(*choices)


@cached
def valid(schema):
    """Values meant to pass ``schema``."""
    if "oneOf" in schema:
        return st.one_of(*(valid(sub) for sub in schema["oneOf"]))
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "const" in schema:
        return st.just(schema["const"])
    types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    return st.one_of(*(_of_type(schema, name) for name in types))


def _of_type(schema, name):
    if name == "object":
        props, required = schema.get("properties", {}), schema.get("required", [])
        return st.fixed_dictionaries(
            {key: valid(props[key]) for key in required},
            optional={key: valid(sub) for key, sub in props.items() if key not in required},
        )
    if name == "array":
        lo = schema.get("minItems", 0)
        return st.lists(valid(schema["items"]), min_size=lo, max_size=schema.get("maxItems", lo + 2))
    if name == "integer":
        lo = schema.get("minimum", -5)
        return st.one_of(st.integers(lo, lo + 10), st.integers(lo, lo + 10).map(float),
                         st.integers(lo, 10**400))
    if name == "number":
        lo, hi = schema.get("minimum", schema.get("exclusiveMinimum")), schema.get("exclusiveMaximum")
        floats = st.floats(
            min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False,
            exclude_min="exclusiveMinimum" in schema, exclude_max=hi is not None,
        )
        if hi is not None:
            return floats
        return floats | st.integers(None if lo is None else int(lo) + 1, TOO_BIG - 1)
    return {"string": st.text(max_size=3), "boolean": st.booleans(), "null": st.none()}[name]


#: beyond the six command schemas, a oneOf whose branches overlap: 1 matches both, so fails
OVERLAP = {"oneOf": [{"type": "number", "minimum": 0}, {"type": "integer"}]}


@pytest.mark.parametrize("name", [*SCHEMAS, "overlap"])
def test_the_checker_accepts_exactly_what_jsonschema_accepts(name):
    schema = SCHEMAS.get(name, OVERLAP)
    oracle = ORACLE(schema)
    seen = set()

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(doc=documents(schema))
    def run(doc):
        accepted = checker_accepts(schema, doc)
        assert accepted == oracle.is_valid(doc), doc
        seen.add(accepted)

    run()
    assert seen == {True, False}  # the draws reach both sides of the schema


BASES = {
    "simulate": {"n": 40, "snr": 3.0, "omegas": [0.0]},
    "fit": {"dataset": {"u_csv": "U.csv", "f_csv": "F.csv"}, "basis": {"p": 4}, "lambda": 1.0},
    "ingest": {**get_preset("era5"), "input": None},
}
BASES["ingest"].pop("command")
ALPHA_BELOW_1 = float(np.nextafter(1.0, 0.0))
#: one edge at a time on a valid document: each bound, the integral float, bool and
#: huge-int rules, array lengths, and every oneOf branch, with values matching none
EDGE_CASES = [
    ("simulate", {"alpha": value}) for value in (1, 1.0, ALPHA_BELOW_1, True, 0, 5e-324)
] + [
    ("simulate", {"n": value}) for value in (2.0, 2.5, True, 1, 1.9999999999999998, 10**400)
] + [
    ("simulate", {"snr": value}) for value in (TOO_BIG - 1, TOO_BIG, -TOO_BIG, 0, -0.0, 5e-324)
] + [
    ("simulate", {"omegas": value}) for value in ([], [-0.0], [0, 1e300], [-5e-324], [None])
] + [
    ("simulate", {"test_lambda": value}) for value in ("ess_min", "ess", 1, 0, 1e-300, None)
] + [
    ("fit", {"basis": {"p": 4, "interval": value}}) for value in ([0, 1], [0], [0, 1, 2], [0, "1"])
] + [
    ("fit", {"kernel": {"L": value}}) for value in (
        {"kind": "identity"}, {"kind": "identity", "param": TOO_BIG}, {"kind": "x"}, {"param": 1})
] + [
    ("ingest", {"recipe": {"derivative_gate": value}})
    for value in (None, TOO_BIG - 1, TOO_BIG, 10**400, "1", True)
] + [
    ("ingest", {"recipe": {"start_gate": value}}) for value in (None, [1, 2], [1], [1, 2, 3])
] + [
    ("ingest", {"recipe": {"response": value}}) for value in (
        {"type": "identity", "variable": "T_pot"},
        {"type": "identity", "variable": "T_pot", "kappa": 0.3},
        {"type": "thermo", "variable": "T_pot", "kappa": 0.3},
        {"type": "spectral", "variable": "T_pot", "multipliers": []},
        {"type": "spectral", "variable": "T_pot", "multipliers": [1]},
        {"type": "other", "variable": "T_pot"},
    )
]


@pytest.mark.parametrize("command, edit", EDGE_CASES)
def test_the_checker_and_jsonschema_agree_on_each_edge(command, edit):
    assert checker_accepts(SCHEMAS[command], BASES[command])
    doc = {**BASES[command]}
    for key, value in edit.items():
        doc[key] = {**doc.get(key, {}), **value} if isinstance(value, dict) else value
    assert checker_accepts(SCHEMAS[command], doc) == ORACLE(SCHEMAS[command]).is_valid(doc)


def test_an_unsupported_keyword_raises_when_first_reached():
    schema = {"type": "object", "properties": {"a": {"pattern": "^x"}}}
    check_schema(schema, {"b": "y"})  # "a" is absent, so its schema is never read
    with pytest.raises(NotImplementedError, match="'pattern' at \\$.a"):
        check_schema(schema, {"a": "y"})
    with pytest.raises(NotImplementedError, match="additionalProperties"):
        check_schema({"type": "object", "additionalProperties": {"type": "string"}}, {})


def test_messages_name_the_path_and_the_first_violation_depth_first():
    doc = {"n": 1, "snr": -1.0, "omegas": [0.0, "x"], "mystery": 1}
    with pytest.raises(SchemaError) as info:
        check_schema(SCHEMAS["simulate"], doc)
    assert (info.value.json_path, info.value.message) == ("$.n", "1 is less than the minimum of 2")
    del doc["n"]
    with pytest.raises(SchemaError) as info:
        check_schema(SCHEMAS["simulate"], doc)
    assert info.value.json_path == "$.snr"
    doc["snr"] = 3.0
    with pytest.raises(SchemaError, match=r"\$\.omegas\[1\]: 'x' is not of type 'number'"):
        check_schema(SCHEMAS["simulate"], doc)
    doc["omegas"] = [0.0]
    with pytest.raises(SchemaError, match="'n' is a required property"):
        check_schema(SCHEMAS["simulate"], doc)
    doc["n"] = 2.0  # an integral float is an integer
    with pytest.raises(SchemaError, match=r"^\$: additional properties are not allowed: \['mystery'\]"):
        check_schema(SCHEMAS["simulate"], doc)
    del doc["mystery"]
    check_schema(SCHEMAS["simulate"], doc)


def test_importing_the_cli_loads_no_jsonschema():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    code = "import sys, diffreg.cli; print('jsonschema' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"
