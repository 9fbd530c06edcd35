"""Tests for trajectory ingestion with synthetic CSV fixtures."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from diffreg import DataError, make_cosine_basis
from diffreg.basis import distinct_samples, resample_to_quad_grid
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
            # the first of each run of equal abscissae after np.argsort is kept
            order = np.argsort(x)
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
