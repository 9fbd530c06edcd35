"""Tests for trajectory ingestion with synthetic CSV fixtures."""

import csv
import dataclasses
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from diffreg import DataError, make_cosine_basis
from diffreg.basis import DataSet, distinct_samples, resample_to_quad_grid
from diffreg.ingest import (
    IdentityResponse,
    RecipeSpec,
    SpectralResponse,
    TableSchema,
    ThermoResponse,
    build_thermo_dataset,
    curves_to_basis,
    load_dataset,
    load_trajectories,
    project_with_offset,
    save_dataset,
)

SCHEMA = TableSchema(subject="subject", ordinate="log_p", variables=("T_real", "T_pot"))
INTERVAL = (6.3, 6.9)


def basis_on_interval(p=6, n_quad=151):
    return make_cosine_basis(p=p, n_quad=n_quad, interval=INTERVAL)


def phi_k(k, x, interval=INTERVAL):
    a, b = interval
    L = b - a
    return np.sqrt(2.0 / L) * np.cos(k * np.pi * (x - a) / L)


def write_rows(path, rows, header=("subject", "log_p", "T_real", "T_pot")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def synthetic_rows(
    subject, coeffs_real, coeffs_pot, offset_real=0.0, offset_pot=0.0, m=121, x_range=(6.29, 6.91)
):
    x = np.linspace(*x_range, m)
    t_real = offset_real + sum(c * phi_k(k + 1, x) for k, c in enumerate(coeffs_real))
    t_pot = offset_pot + sum(c * phi_k(k + 1, x) for k, c in enumerate(coeffs_pot))
    return [[subject, f"{xi:.8f}", f"{tr:.12g}", f"{tp:.12g}"] for xi, tr, tp in zip(x, t_real, t_pot)]


def span_coeffs(curves, subject, variable):
    """One projected curve's span coefficients, looked up by name."""
    return curves.coeffs[curves.subjects.index(subject), curves.variables.index(variable)]


def project_one(x, y, basis):
    """Offset and span coefficients of one curve, through the block API."""
    knots, values = distinct_samples(x, y.reshape(-1, 1), basis)
    offsets, coeffs = project_with_offset([knots], [values], basis)
    return offsets[0, 0], coeffs[0, 0]


def default_recipe(**overrides):
    settings = dict(
        predictor="T_pot",
        response=ThermoResponse(variable="T_real"),
        interval=INTERVAL,
        start_gate=(6.28, 6.31),
        end_gate=(6.89, 6.92),
        derivative_gate=None,
        center=False,
        penalty=0.0,
    )
    settings.update(overrides)
    return RecipeSpec(**settings)


@pytest.fixture
def three_subject_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(3):
        rows += synthetic_rows(f"s{i}", rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
    path = tmp_path / "tracks.csv"
    write_rows(path, rows)
    return str(path)


def test_load_three_subjects(three_subject_csv):
    table = load_trajectories(three_subject_csv, SCHEMA)
    assert sorted(table.subjects) == ["s0", "s1", "s2"]
    assert table.dropped_rows == 0
    assert table.variables == ("T_real", "T_pot")
    track = table.subjects["s0"]
    assert np.all(np.diff(track.ordinate) > 0)
    assert track.samples.shape == (track.ordinate.size, 2)


def test_load_malformed_row_strict_and_lenient(tmp_path):
    good = synthetic_rows("s0", [1.0, 0.5], [0.3, -0.2])
    for bad_row, message in (
        (["s0", "6.35", "not-a-number", "280"], "not-a-number"),
        (["s0", "6.35"], "2 of the header's 4 fields"),
    ):
        rows = good[:5] + [bad_row] + good[5:]
        path = tmp_path / "bad.csv"
        write_rows(path, rows)
        with pytest.raises(DataError, match=f"malformed row at line 7: .*{message}"):
            load_trajectories(str(path), SCHEMA)
        table = load_trajectories(str(path), SCHEMA, lenient=True)
        assert table.dropped_rows == 1
        assert len(table.subjects["s0"].ordinate) == len(rows) - 1


def test_load_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    write_rows(path, [["s0", "6.3", "280"]], header=("subject", "log_p", "T_real"))
    with pytest.raises(DataError, match="T_pot"):
        load_trajectories(str(path), SCHEMA)


def test_load_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    write_rows(path, [])
    with pytest.raises(DataError, match="no usable rows"):
        load_trajectories(str(path), SCHEMA)


def test_projection_round_trip_with_offset():
    basis = basis_on_interval()
    rng = np.random.default_rng(1)
    coeffs = rng.uniform(-1, 1, basis.p)
    x = np.linspace(6.29, 6.91, 301)
    y = 4.2 + basis.values(x) @ coeffs
    offset, span = project_one(x, y, basis)
    assert np.max(np.abs(span - coeffs)) < 1e-6
    assert offset == pytest.approx(4.2, abs=1e-6)


def test_curves_recover_known_expansion(three_subject_csv):
    basis = basis_on_interval(p=4)
    table = load_trajectories(three_subject_csv, SCHEMA)
    curves, report = curves_to_basis(table, default_recipe(), basis)
    assert report.n_out == 3 and not report.skipped
    rng = np.random.default_rng(0)
    for i in range(3):
        c_real, c_pot = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        assert np.max(np.abs(span_coeffs(curves, f"s{i}", "T_real") - c_real)) < 1e-6
        assert np.max(np.abs(span_coeffs(curves, f"s{i}", "T_pot") - c_pot)) < 1e-6


def test_rank_gate_skips_short_subject(tmp_path):
    rows = synthetic_rows("dense", np.ones(3), np.ones(3))
    rows += synthetic_rows("sparse", np.ones(3), np.ones(3), m=5)
    path = tmp_path / "mixed.csv"
    write_rows(path, rows)
    basis = make_cosine_basis(p=10, n_quad=201, interval=INTERVAL)
    curves, report = curves_to_basis(load_trajectories(str(path), SCHEMA), default_recipe(), basis)
    assert curves.subjects == ("dense",)
    assert report.n_in == report.n_out + len(report.skipped) == 2
    assert report.skipped[0][0] == "sparse"
    assert "distinct ordinates" in report.skipped[0][1]


def test_coverage_gates(tmp_path):
    rows = synthetic_rows("ok", [0.5, 0.2], [0.1, 0.3])
    short = synthetic_rows("short", [0.5, 0.2], [0.1, 0.3])
    short = [r for r in short if float(r[1]) < 6.7]  # largest ordinate too small
    path = tmp_path / "gates.csv"
    write_rows(path, rows + short)
    basis = basis_on_interval(p=2)
    curves, report = curves_to_basis(load_trajectories(str(path), SCHEMA), default_recipe(), basis)
    assert curves.subjects == ("ok",)
    assert report.skipped[0][0] == "short"


def test_derivative_gate_excludes_steep_subject(tmp_path):
    rows = synthetic_rows("flat", [0.01, 0.0], [0.01, 0.0])
    rows += synthetic_rows("steep", [0.01, 0.0], [50.0, 30.0])
    # fails the end gate, which is checked before projection; skips keep input order
    rows += [r for r in synthetic_rows("stubby", [0.01, 0.0], [0.01, 0.0]) if float(r[1]) < 6.7]
    path = tmp_path / "steep.csv"
    write_rows(path, rows)
    basis = basis_on_interval(p=2)
    recipe = default_recipe(derivative_gate=10.0)
    curves, report = curves_to_basis(load_trajectories(str(path), SCHEMA), recipe, basis)
    assert curves.subjects == ("flat",)
    assert [subject for subject, _ in report.skipped] == ["steep", "stubby"]
    assert "above gate" in report.skipped[0][1]


def test_non_finite_samples_skip_naming_the_variable(tmp_path):
    rows = synthetic_rows("ok", [0.5, 0.2], [0.1, 0.3])
    nan_real = synthetic_rows("nan_real", [0.5, 0.2], [0.1, 0.3])
    nan_real[40][2] = "nan"
    inf_pot = synthetic_rows("inf_pot", [0.5, 0.2], [0.1, 0.3])
    inf_pot[7][3] = "-inf"
    inf_x = synthetic_rows("inf_x", [0.5, 0.2], [0.1, 0.3])
    inf_x[-1][1] = "inf"
    path = tmp_path / "nonfinite.csv"
    write_rows(path, rows + nan_real + inf_pot + inf_x)
    recipe = default_recipe(start_gate=None, end_gate=None)
    table = load_trajectories(str(path), SCHEMA)
    curves, report = curves_to_basis(table, recipe, basis_on_interval(p=2))
    assert curves.subjects == ("ok",)
    assert dict(report.skipped) == {
        "inf_pot": "non-finite T_pot sample",
        "inf_x": "non-finite ordinate sample",
        "nan_real": "non-finite T_real sample",
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batched_resample_and_project_match_scipy(data):
    # tolerances, set from the error analysis of both solvers: knot gaps
    # differ by at most 20x, so the spline systems are well conditioned and
    # both slope solves are backward stable, and the projection's normal
    # matrix is diag(L, 1, ..., 1) up to quadrature error.  Both sides then
    # agree to a small multiple of eps times the largest sample value; the
    # worst of 1500 random draws used 5% of this bound.
    tol = 1e-13
    p = data.draw(st.integers(1, 8), label="p")
    V = data.draw(st.sampled_from([1, 2, 3]), label="V")
    basis = make_cosine_basis(p=p, n_quad=101, interval=INTERVAL)
    nodes, w = basis.quad_nodes, basis.quad_weights
    knot_counts = data.draw(st.lists(st.integers(max(2, p), 60), min_size=1, max_size=4))
    xs, ys, reference = [], [], []
    for m in knot_counts:
        for _ in range(data.draw(st.integers(1, 3), label="copies")):
            gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=m - 1, max_size=m - 1))
            gaps = np.array(gaps)
            knots = 6.29 + 0.62 * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
            knots[-1] = 6.91
            values = data.draw(st.lists(st.floats(-50, 50), min_size=m * V, max_size=m * V))
            values = 280.0 + np.reshape(values, (m, V))
            repeats = data.draw(st.lists(st.integers(0, m - 1), max_size=5), label="repeats")
            x = np.concatenate([knots, knots[repeats]])
            y = np.concatenate([values, values[repeats] + 1.0])
            shuffle = np.random.default_rng(len(xs)).permutation(x.size)
            x, y = x[shuffle], y[shuffle]
            # the first of each run of equal abscissae in input order is kept
            order = np.argsort(x, kind="stable")
            keep = np.concatenate([[True], np.diff(x[order]) > 0])
            kx, ky = x[order][keep], y[order][keep]
            if kx.size >= 4:
                grid = CubicSpline(kx, ky)(nodes)
            else:
                grid = np.column_stack([np.interp(nodes, kx, ky[:, v]) for v in range(V)])
            reference.append(grid)
            got_x, got_y = distinct_samples(x, y, basis)
            np.testing.assert_array_equal(got_x, kx)
            np.testing.assert_array_equal(got_y, ky)
            xs.append(got_x)
            ys.append(got_y)
    reference = np.stack(reference)
    scale = np.max(np.abs(reference))
    grid = resample_to_quad_grid(xs, ys, basis)
    assert np.max(np.abs(grid - reference)) <= tol * scale

    design = np.column_stack([np.ones(nodes.size), basis.quad_values()]) * np.sqrt(w)[:, None]
    offsets, coeffs = project_with_offset(xs, ys, basis)
    for s, curve in enumerate(reference):
        solution = np.linalg.lstsq(design, curve * np.sqrt(w)[:, None], rcond=None)[0]
        assert np.max(np.abs(offsets[s] - solution[0])) <= tol * scale
        assert np.max(np.abs(coeffs[s] - solution[1:].T)) <= tol * scale


def test_the_first_sample_in_the_file_is_kept_at_a_repeated_ordinate(tmp_path):
    rng = np.random.default_rng(3)
    x = np.repeat(np.linspace(6.29, 6.91, 40), 3)
    x = x[rng.permutation(x.size)]
    # each row's values are its position in the file
    write_rows(tmp_path / "tracks.csv", [["s0", f"{xi:.17g}", i, -i] for i, xi in enumerate(x)])
    track = load_trajectories(str(tmp_path / "tracks.csv"), SCHEMA).subjects["s0"]
    first = {}
    for i, xi in enumerate(x):
        first.setdefault(xi, i)
    want = sorted(first)
    # ties stay in file order, and the first of each run is the one kept
    order = [i for xi in want for i in np.flatnonzero(x == xi)]
    np.testing.assert_array_equal(track.samples[:, 0], order)
    for xs, ys in ((track.ordinate, track.samples), (x, np.arange(x.size))):
        knots, values = distinct_samples(xs, ys, basis_on_interval())
        np.testing.assert_array_equal(knots, want)
        kept = np.reshape(values, (knots.size, -1))[:, 0]
        np.testing.assert_array_equal(kept, [first[k] for k in want])


def test_thermo_kappa_zero_is_derivative_projection(tmp_path):
    # kappa = 0: response is d T_real / dx; for T_real = phi_2 the oracle is
    # the closed-form cosine-sine cross integrals
    basis = basis_on_interval(p=4)
    coeffs_real = [0.0, 1.0, 0.0, 0.0]
    rows = synthetic_rows("s0", coeffs_real, [0.2, 0.1, 0.0, 0.0])
    path = tmp_path / "deriv.csv"
    write_rows(path, rows)
    recipe = default_recipe(response=ThermoResponse(variable="T_real", kappa=0.0))
    curves, _ = curves_to_basis(load_trajectories(str(path), SCHEMA), recipe, basis)
    got = build_thermo_dataset(curves, recipe, basis).F[0]

    L = INTERVAL[1] - INTERVAL[0]
    k = 2
    expected = np.zeros(4)
    for j in range(1, 5):
        if (j + k) % 2 == 1:
            # <phi_j, phi_k'> = -(2 k pi / L^2) * L * 2k / (pi (k^2 - j^2))
            expected[j - 1] = -(2 * k * np.pi / L**2) * L * 2 * k / (np.pi * (k**2 - j**2))
    assert np.max(np.abs(got - expected)) < 1e-6


def test_thermo_constant_temperature_closed_form(tmp_path):
    # constant T_real = c: response is -kappa c (p/p0)^{-kappa} pointwise
    basis = basis_on_interval(p=4)
    c0, kappa, p0 = 7.5, 0.286, 1000.0
    rows = synthetic_rows("s0", [0.0], [0.3, 0.1], offset_real=c0)
    path = tmp_path / "const.csv"
    write_rows(path, rows)
    recipe = default_recipe(response=ThermoResponse(variable="T_real", kappa=kappa, p0=p0))
    curves, _ = curves_to_basis(load_trajectories(str(path), SCHEMA), recipe, basis)
    got = build_thermo_dataset(curves, recipe, basis).F[0]
    x, w = basis.quad_nodes, basis.quad_weights
    target = -kappa * c0 * (np.exp(x) / p0) ** (-kappa)
    oracle = (basis.quad_values() * w[:, None]).T @ target  # direct quadrature projection
    assert np.max(np.abs(got - oracle)) < 1e-8


def test_thermo_response_validation():
    for settings in ({"kappa": -0.1}, {"kappa": np.nan}, {"kappa": np.inf},
                     {"p0": 0.0}, {"p0": np.nan}, {"p0": np.inf}):
        with pytest.raises(ValueError, match="ThermoResponse needs finite kappa"):
            ThermoResponse(variable="T_real", **settings)


@pytest.mark.parametrize("penalty", [-1.0, np.nan])
def test_recipe_penalty_must_be_finite_and_non_negative(three_subject_csv, penalty):
    table = load_trajectories(three_subject_csv, SCHEMA)
    with pytest.raises(ValueError, match="penalty must be finite and >= 0"):
        curves_to_basis(table, default_recipe(penalty=penalty), basis_on_interval(p=4))


def test_identity_and_spectral_responses(three_subject_csv):
    basis = basis_on_interval(p=4)
    table = load_trajectories(three_subject_csv, SCHEMA)
    recipe = default_recipe(response=IdentityResponse(variable="T_real"))
    curves, _ = curves_to_basis(table, recipe, basis)
    data = build_thermo_dataset(curves, recipe, basis)
    np.testing.assert_allclose(data.F[0], span_coeffs(curves, "s0", "T_real"))
    mults = (1.0, 2.0, 3.0, 4.0)
    recipe_s = default_recipe(response=SpectralResponse(variable="T_real", multipliers=mults))
    data_s = build_thermo_dataset(curves, recipe_s, basis)
    np.testing.assert_allclose(data_s.F[1], np.array(mults) * span_coeffs(curves, "s1", "T_real"))


def test_centering_zeroes_column_means(three_subject_csv):
    basis = basis_on_interval(p=4)
    table = load_trajectories(three_subject_csv, SCHEMA)
    recipe = default_recipe(center=True)
    curves, _ = curves_to_basis(table, recipe, basis)
    data = build_thermo_dataset(curves, recipe, basis)
    assert np.max(np.abs(data.U.mean(axis=0))) < 1e-12
    assert np.max(np.abs(data.F.mean(axis=0))) < 1e-12


def test_pipeline_deterministic(three_subject_csv):
    basis = basis_on_interval(p=4)
    recipe = default_recipe(center=True)

    def run(reverse=False):
        table = load_trajectories(three_subject_csv, SCHEMA)
        if reverse:  # rows of the dataset follow the subject ids, not the table order
            table = dataclasses.replace(table, subjects=dict(reversed(table.subjects.items())))
        curves, _ = curves_to_basis(table, recipe, basis)
        return build_thermo_dataset(curves, recipe, basis)

    d1, d2, d3 = run(), run(), run(reverse=True)
    assert np.array_equal(d1.U, d2.U)
    assert np.array_equal(d1.F, d2.F)
    assert np.array_equal(d1.U, d3.U)
    assert np.array_equal(d1.F, d3.F)


def test_derivative_of_projection_vs_projection_of_finite_difference(three_subject_csv):
    # same derivative two ways: differentiate the smoothed expansion, or
    # finite-difference the raw samples first and then project
    basis = basis_on_interval(p=4)
    rng = np.random.default_rng(3)
    rows = synthetic_rows("s0", rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), m=201)
    import os

    path = os.path.join(os.path.dirname(three_subject_csv), "dense.csv")
    write_rows(path, rows)
    table = load_trajectories(path, SCHEMA)
    curves, _ = curves_to_basis(table, default_recipe(), basis)
    slope = basis.deriv_values(basis.quad_nodes, order=1) @ span_coeffs(curves, "s0", "T_pot")
    _, via_expansion = project_one(basis.quad_nodes, slope, basis)
    x = np.linspace(6.29, 6.91, 201)  # the raw sample grid
    y = table.subjects["s0"].samples[:, table.variables.index("T_pot")]
    _, via_differences = project_one(x, np.gradient(y, x), basis)
    rel = np.max(np.abs(via_expansion - via_differences)) / np.max(np.abs(via_expansion))
    assert rel < 1e-3


def test_dataset_csv_round_trip(tmp_path, three_subject_csv):
    basis = basis_on_interval(p=4)
    table = load_trajectories(three_subject_csv, SCHEMA)
    recipe = default_recipe(center=True)
    curves, _ = curves_to_basis(table, recipe, basis)
    data = build_thermo_dataset(curves, recipe, basis)
    u_path, f_path = str(tmp_path / "U.csv"), str(tmp_path / "F.csv")
    save_dataset(data, u_path, f_path)
    loaded = load_dataset(u_path, f_path, basis)
    np.testing.assert_array_equal(loaded.U, data.U)
    np.testing.assert_array_equal(loaded.F, data.F)


def test_load_dataset_validates(tmp_path):
    basis = basis_on_interval(p=4)
    u_path = tmp_path / "U.csv"
    f_path = tmp_path / "F.csv"
    u_path.write_text("u_1,u_2\n1,2\n")
    f_path.write_text("f_1,f_2\n1,2\n3,4\n")
    with pytest.raises(DataError):
        load_dataset(str(u_path), str(f_path), basis)
    # one row longer than the header, one as long: a data error, not a numpy one
    u_path.write_text("u_1,u_2\n1,2,3\n1,2\n")
    with pytest.raises(DataError, match="U.csv: ragged rows"):
        load_dataset(str(u_path), str(f_path), basis)


# -- the CSV boundary: bulk parsing and writing --------------------------------


def reference_load_trajectories(path, schema, lenient=False):
    """The row-wise parse the bulk one replaced: csv.reader plus one float() per field.

    Returns ({subject: (ordinate, samples)}, dropped rows).
    """
    columns = (schema.subject, schema.ordinate, *schema.variables)
    raw, dropped = {}, 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        index = {name: i for i, name in enumerate(header)}
        subject_col = index[schema.subject]
        value_cols = [index[c] for c in columns[1:]]
        width = max(subject_col, *value_cols) + 1
        for lineno, row in enumerate(filter(None, reader), start=2):
            try:
                if len(row) < width:
                    raise ValueError(f"row has {len(row)} of the header's {len(header)} fields")
                subject = row[subject_col]
                if subject == "":
                    raise ValueError("empty subject id")
                values = [float(row[i]) for i in value_cols]
            except ValueError as exc:
                if lenient:
                    dropped += 1
                    continue
                raise DataError(f"{path}: malformed row at line {lineno}: {exc}") from exc
            raw.setdefault(subject, []).append(values)
    if not raw:
        raise DataError(f"{path}: no usable rows")
    subjects = {}
    for subject in sorted(raw):
        rows = np.array(raw[subject])
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        subjects[subject] = (rows[:, 0], rows[:, 1:])
    return subjects, dropped


def _outcome(load):
    try:
        return load()
    except DataError as exc:
        return str(exc)


# ids that need quoting, ordinates that repeat (two spellings of 6.5), and
# fields both parsers reject
_SUBJECT_IDS = ["s1", "s2", "s 3", "a,b", 'q"x', "n\nl", "\u00fc"]
_ORDINATES = ["6.3", "6.4", "6.5", "6.500", " 6.45", "0.63e1"]
_BAD_FIELDS = ["x1", "", "1e", "--1", "2#3", "1,5"]
_JUNK = ["x", "", "7", 'a "b"', "c,d"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_load_trajectories_matches_the_row_wise_reference(data):
    columns = ["subject", "log_p", "T_real", "T_pot"]
    # an ignored column, and a repeated name whose last column wins
    columns += data.draw(st.lists(st.sampled_from(["note", "T_real", "log_p"]), max_size=2))
    header = data.draw(st.permutations(columns), label="header")
    last = {name: i for i, name in enumerate(header)}
    value = st.one_of(
        st.floats(width=64).map(repr),
        st.floats(-1e3, 1e3).map(lambda v: f"{v:.3g}"),
        st.sampled_from(["nan", "-inf", "+2", " 1.5 ", "1E3", "-0"]),
    )
    records = []
    for _ in range(data.draw(st.integers(0, 30), label="rows")):
        row = []
        for i, name in enumerate(header):
            if last[name] != i or name == "note":
                row.append(data.draw(st.sampled_from(_JUNK)))
            elif name == "subject":
                row.append(data.draw(st.sampled_from(_SUBJECT_IDS)))
            elif name == "log_p":
                row.append(data.draw(st.sampled_from(_ORDINATES)))
            else:
                row.append(data.draw(value))
        if data.draw(st.integers(0, 9), label="fault") == 0:
            kind = data.draw(st.sampled_from(["field", "short", "empty id"]))
            if kind == "field":
                bad = data.draw(st.sampled_from(_BAD_FIELDS))
                row[data.draw(st.integers(0, len(row) - 1))] = bad
            elif kind == "short":
                row = row[: data.draw(st.integers(1, len(row) - 1))]
            else:
                row[last["subject"]] = ""
        row += data.draw(st.lists(st.sampled_from(_JUNK), max_size=2), label="trailing")
        records.append(row)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    blank = data.draw(st.sets(st.integers(0, len(records))), label="blank lines before")
    lenient = data.draw(st.booleans(), label="lenient")
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator=newline)
    writer.writerow(header)
    for i, row in enumerate(records):
        if i in blank:
            buffer.write(newline)
        writer.writerow(row)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tracks.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
        want = _outcome(lambda: reference_load_trajectories(path, SCHEMA, lenient))
        got = _outcome(lambda: load_trajectories(path, SCHEMA, lenient))
    if isinstance(want, str):
        assert got == want
        return
    subjects, dropped = want
    assert not isinstance(got, str), got
    assert got.dropped_rows == dropped
    assert list(got.subjects) == list(subjects)
    for name, (ordinate, samples) in subjects.items():
        track = got.subjects[name]
        assert track.ordinate.shape == ordinate.shape and track.samples.shape == samples.shape
        # bitwise, so that nan payloads, signed zeros and tie order all count
        assert track.ordinate.tobytes() == ordinate.tobytes()
        assert track.samples.tobytes() == samples.tobytes()


def test_bulk_parse_pitfalls_stay_data_errors(tmp_path):
    basis = basis_on_interval(p=2)
    u_path, f_path = tmp_path / "U.csv", tmp_path / "F.csv"
    f_path.write_text("f_1,f_2\n1,2\n3,4\n5,6\n")

    def dataset_error(u_text):
        u_path.write_text(u_text)
        with pytest.raises(DataError) as info:
            load_dataset(str(u_path), str(f_path), basis)
        return str(info.value)

    # np.loadtxt's default comment character would read 2#3 as 2
    assert dataset_error("u_1,u_2\n1,2\n3,4\n5,2#3\n").endswith(
        "U.csv: non-numeric entry in data row 3: could not convert string to float: '2#3'"
    )
    # every row one longer than the header: they agree with each other
    assert dataset_error("u_1,u_2\n1,2,0\n3,4,0\n5,6,0\n").endswith(
        "U.csv: ragged rows: data row 1 has 3 fields, the header 2"
    )
    assert "data row 2 has 1 fields" in dataset_error("u_1,u_2\n1,2\n\n3\n5,6\n")
    # float() takes these spellings, the bulk parse does not
    message = dataset_error("u_1,u_2\n1,2\n1_0,4\n5,6\n")
    assert "data row 2: could not convert string to float: '1_0'" in message
    message = dataset_error("u_1,u_2\n\u0661,2\n3,4\n5,6\n")
    assert "data row 1: could not convert string to float: '\u0661'" in message

    rows = synthetic_rows("s0", [1.0, 0.5], [0.3, -0.2])
    rows[3][2] = "2#3"
    tracks = tmp_path / "tracks.csv"
    write_rows(tracks, rows)
    with pytest.raises(DataError, match="line 5: could not convert string to float: '2#3'"):
        load_trajectories(str(tracks), SCHEMA)
    assert load_trajectories(str(tracks), SCHEMA, lenient=True).dropped_rows == 1


def test_header_without_data_rows_raises_without_warnings(tmp_path):
    basis = basis_on_interval(p=2)
    u_path, f_path = tmp_path / "U.csv", tmp_path / "F.csv"
    u_path.write_text("u_1,u_2\r\n\r\n")
    f_path.write_text("f_1,f_2\n1,2\n")
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("subject,log_p,T_real,T_pot\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="U.csv: no data rows"):
            load_dataset(str(u_path), str(f_path), basis)
        with pytest.raises(DataError, match="tracks.csv: no usable rows"):
            load_trajectories(str(tracks), SCHEMA)
        # every row dropped: the same error, from the second parse
        tracks.write_text("subject,log_p,T_real,T_pot\ns0,6.3,x,1\n")
        with pytest.raises(DataError, match="tracks.csv: no usable rows"):
            load_trajectories(str(tracks), SCHEMA, lenient=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(field=st.text(alphabet="0123456789._eE+-naifINFty \t\x1c\xa0\u0661\u2003", max_size=8))
def test_row_scan_rejects_exactly_the_fields_numpy_rejects(field):
    # the scan that names a bad row must agree with the bulk parse, or it
    # would name a row the bulk parse reads, or pass the row it rejected
    try:
        value = np.loadtxt([f"{field},1"], delimiter=",", comments=None, quotechar='"')[0]
    except ValueError:
        value = None
    else:  # numpy strips what str.strip strips; float() keeps \x1c-\x1f
        assert np.float64(value).tobytes() == np.float64(float(field.strip())).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        u_path, f_path = os.path.join(tmp, "U.csv"), os.path.join(tmp, "F.csv")
        # the bad second row sends every file through the row-wise scan
        with open(u_path, "w", encoding="utf-8") as fh:
            fh.write(f"u_1,u_2\n{field},1\nx,1\n")
        with open(f_path, "w", encoding="utf-8") as fh:
            fh.write("f_1,f_2\n1,1\n1,1\n")
        with pytest.raises(DataError) as info:
            load_dataset(u_path, f_path, make_cosine_basis(p=2, n_quad=5))
    assert f"non-numeric entry in data row {1 if value is None else 2}: " in str(info.value)


def test_save_dataset_bytes_match_the_csv_writer(tmp_path):
    U = np.array([[-0.0, 5e-324, 1e308, 1 / 3, 2.0], [3.0, -1e-300, 0.1, -7.0, 1e16]])
    data = DataSet(U=U, F=-U[::-1], basis=make_cosine_basis(p=5, n_quad=11))
    u_path, f_path = tmp_path / "U.csv", tmp_path / "F.csv"
    save_dataset(data, str(u_path), str(f_path))
    for path, mat, prefix in ((u_path, data.U, "u"), (f_path, data.F, "f")):
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow([f"{prefix}_{k}" for k in range(1, 6)])
        for row in mat:
            writer.writerow([f"{v:.17g}" for v in row])
        assert path.read_bytes() == want.getvalue().encode("utf-8")
