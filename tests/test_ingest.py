"""Tests for trajectory ingestion with synthetic CSV fixtures."""

import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import shutil
import tempfile
import warnings
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from diffreg import DataError, make_cosine_basis
from diffreg import ingest
from diffreg.basis import DataSet, distinct_samples, resample_to_quad_grid
from diffreg.errors import SingularSystemError
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
    IngestReport,
    save_dataset,
    save_ingest_provenance,
)
from diffreg.kernels import save_kernel_matrices

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


def end_to_end(xs, ys):
    """Per-curve knots and values laid end to end: (x, y, starts, sizes)."""
    sizes = np.array([knots.size for knots in xs], dtype=int)
    return np.concatenate(xs), np.concatenate(ys), np.cumsum(sizes) - sizes, sizes


def curves_of(x, y, starts, sizes):
    """The per-curve knots and values of the end-to-end layout."""
    return (
        [x[i : i + m] for i, m in zip(starts, sizes)],
        [y[i : i + m] for i, m in zip(starts, sizes)],
    )


def project_one(x, y, basis):
    """Offset and span coefficients of one curve, through the block API."""
    knots, values = distinct_samples(x, y.reshape(-1, 1), basis)
    offsets, coeffs = project_with_offset(*end_to_end([knots], [values]), basis)
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


@pytest.mark.parametrize("before", [
    pytest.param("s0,6.3,280,300\n\n\n", id="blank_lines"),
    pytest.param('"s\n1",6.3,280,300\ns0,6.4,281,301\n', id="multi_line_field"),
])
def test_a_malformed_row_is_named_by_its_line_in_the_file(tmp_path, before):
    path = tmp_path / "lines.csv"
    # the bad row sits on line 5, after lines 2-4 that hold one or two records
    path.write_text(f"subject,log_p,T_real,T_pot\n{before}s0,abc,3.0,1.0\ns0,6.5,282,302\n",
                    newline="")
    with pytest.raises(DataError, match="malformed row at line 5: could not convert"):
        load_trajectories(str(path), SCHEMA)
    assert load_trajectories(str(path), SCHEMA, lenient=True).dropped_rows == 1


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


@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
@pytest.mark.parametrize("ordinate", ["nan", "inf", "-inf"])
def test_a_non_finite_ordinate_skips_its_subject_with_or_without_gates(tmp_path, ordinate, gated):
    rows = synthetic_rows("ok", [0.5, 0.2], [0.1, 0.3])
    bad = synthetic_rows("bad", [0.5, 0.2], [0.1, 0.3])
    bad[60][1] = ordinate
    write_rows(tmp_path / "tracks.csv", rows + bad)
    recipe = default_recipe() if gated else default_recipe(start_gate=None, end_gate=None)
    table = load_trajectories(str(tmp_path / "tracks.csv"), SCHEMA)
    curves, report = curves_to_basis(table, recipe, basis_on_interval(p=2))
    assert curves.subjects == ("ok",)
    assert report.skipped == (("bad", "non-finite ordinate sample"),)


def test_samples_short_of_the_quadrature_span_skip_their_subject(tmp_path):
    # the basis is wider than the recipe interval: [6.29, 6.91] covers (6.3, 6.9)
    # but not the quadrature nodes near 6.2 and 7.0
    write_rows(tmp_path / "tracks.csv", synthetic_rows("narrow", [0.5, 0.2], [0.1, 0.3]))
    basis = make_cosine_basis(p=2, n_quad=151, interval=(6.2, 7.0))
    recipe = default_recipe(start_gate=None, end_gate=None)
    curves, report = curves_to_basis(load_trajectories(str(tmp_path / "tracks.csv"), SCHEMA), recipe, basis)
    lo, hi = basis.quad_nodes[[0, -1]]
    assert curves.subjects == ()
    assert report.skipped == (
        ("narrow", f"samples cover [6.29, 6.91], short of the quadrature span [{lo:.6g}, {hi:.6g}]"),
    )


def test_coefficients_that_overflow_skip_their_subject(tmp_path):
    rows = synthetic_rows("ok", [0.5, 0.2], [0.1, 0.3])
    huge = synthetic_rows("huge", [0.5, 0.2], [0.1, 0.3])
    for k, row in enumerate(huge):  # finite samples whose spline and projection overflow
        row[3] = repr((-1) ** k * 1.7e308)
    write_rows(tmp_path / "tracks.csv", rows + huge)
    table = load_trajectories(str(tmp_path / "tracks.csv"), SCHEMA)
    with np.errstate(over="ignore", invalid="ignore"):
        curves, report = curves_to_basis(table, default_recipe(), basis_on_interval(p=2))
    assert curves.subjects == ("ok",)
    assert report.skipped == (("huge", "coefficients must be finite"),)


def test_projection_blocks_change_no_curve_and_no_skip(tmp_path, monkeypatch):
    rows = []
    for i, slope in enumerate([0.01, 50.0, 0.02, 0.03, 40.0]):
        rows += synthetic_rows(f"s{i}", [0.01, 0.0], [slope, 0.1])
    rows += synthetic_rows("s5", [0.01, 0.0], [0.01, 0.0], m=3)  # too few ordinates
    write_rows(tmp_path / "tracks.csv", rows)
    table = load_trajectories(str(tmp_path / "tracks.csv"), SCHEMA)
    recipe = default_recipe(derivative_gate=100.0)
    basis = basis_on_interval(p=4)
    one_block, one_report = curves_to_basis(table, recipe, basis)
    monkeypatch.setattr(ingest, "BLOCK_SUBJECTS", 2)
    projections = mock.patch.object(ingest, "project_with_offset", wraps=project_with_offset)
    with projections as projected:
        blocks, report = curves_to_basis(table, recipe, basis)
    assert [len(call.args[2]) for call in projected.call_args_list] == [2, 2, 1]
    assert blocks.subjects == one_block.subjects == ("s0", "s2", "s3")
    assert report.skipped == one_report.skipped
    assert [s for s, _ in report.skipped] == ["s1", "s4", "s5"]
    # a solve may round a column differently with another number of columns
    scale = np.max(np.abs(one_block.coeffs))
    np.testing.assert_allclose(blocks.coeffs, one_block.coeffs, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(blocks.offsets, one_block.offsets, rtol=0, atol=1e-13 * scale)


def reference_screen(track, variables, recipe, basis):
    """One subject's distinct knots and (m, V) values, or why it fails a gate.

    The subject-by-subject gates that the one-pass gates of
    :func:`~diffreg.ingest.curves_to_basis` replaced, kept as their oracle.
    """
    x = track.ordinate
    lo, hi = float(x.min()), float(x.max())
    a, b = recipe.interval
    if recipe.start_gate is not None and not (recipe.start_gate[0] < lo < recipe.start_gate[1]):
        return f"smallest ordinate {lo:.6g} outside start gate"
    if recipe.end_gate is not None and not (recipe.end_gate[0] < hi < recipe.end_gate[1]):
        return f"largest ordinate {hi:.6g} outside end gate"
    if lo > a or hi < b:
        return f"samples cover [{lo:.6g}, {hi:.6g}], not [{a}, {b}]"
    distinct = np.unique(x).size
    if distinct < basis.p:
        return f"{distinct} distinct ordinates < p = {basis.p}"
    try:
        knots, values = distinct_samples(x, track.samples, basis)
    except (SingularSystemError, ValueError) as exc:
        return str(exc)
    if not np.isfinite(knots).all():
        return "non-finite ordinate sample"
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        return f"non-finite {variables[int(np.argmin(finite))]} sample"
    return knots, values


def reference_curves_to_basis(table, recipe, basis):
    """Screen subject by subject, project the survivors together, then gate the coefficients.

    Returns the screened subjects' (subject, knots, values), the kept
    subjects with their offsets and coefficients, and the skips in input
    order.
    """
    screened, skipped = [], []
    for subject, track in table.subjects.items():
        outcome = reference_screen(track, table.variables, recipe, basis)
        if isinstance(outcome, str):
            skipped.append((subject, outcome))
        else:
            screened.append((subject, *outcome))
    if not screened:
        return screened, [], np.empty((0, 2)), np.empty((0, 2, basis.p)), skipped
    subjects, knots, values = (list(column) for column in zip(*screened))
    offsets, coeffs = project_with_offset(*end_to_end(knots, values), basis, penalty=recipe.penalty)
    finite = np.isfinite(coeffs).all(axis=(1, 2))
    if recipe.derivative_gate is not None:
        predictor = coeffs[:, table.variables.index(recipe.predictor)]
        peaks = np.max(np.abs(basis.deriv_values(basis.quad_nodes, order=1) @ predictor.T), axis=0)
    reasons = {}
    for j, subject in enumerate(subjects):
        if not finite[j]:
            reasons[subject] = "coefficients must be finite"
        elif recipe.derivative_gate is not None and peaks[j] > recipe.derivative_gate:
            reasons[subject] = f"|d {recipe.predictor}/dx| peak {float(peaks[j]):.6g} above gate"
    order = list(table.subjects)
    skipped = sorted(skipped + list(reasons.items()), key=lambda entry: order.index(entry[0]))
    keep = [j for j, subject in enumerate(subjects) if subject not in reasons]
    return screened, [subjects[j] for j in keep], offsets[keep], coeffs[keep], skipped


_GRID_ORDINATES = np.round(np.linspace(6.15, 7.05, 37), 4).tolist()


@st.composite
def trajectory_tables(draw):
    """A small table: subjects with repeated ordinates, few samples, non-finite entries."""
    variables = ("T_real", "T_pot")
    subjects = {}
    for s in range(draw(st.integers(1, 7), label="subjects")):
        if draw(st.sampled_from([True, False, False]), label="on a grid"):
            x = draw(st.lists(st.sampled_from(_GRID_ORDINATES), min_size=1, max_size=30))
        else:
            lo = draw(st.sampled_from([6.15, 6.195, 6.2975, 6.305]), label="lo")
            hi = draw(st.sampled_from([6.85, 6.895, 6.905, 7.0, 7.05]), label="hi")
            m = draw(st.integers(2, 6) | st.integers(1, 30), label="m")
            x = np.linspace(lo, hi, m).tolist()
            x += [x[i] for i in draw(st.lists(st.integers(0, len(x) - 1), max_size=5))]
        x = np.array(x)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
        scale = draw(st.sampled_from([1.0, 1.0, 100.0, 1.7e308]), label="scale")
        y = scale * np.clip(rng.standard_normal((x.size, len(variables))), -1, 1)
        for array, shape in ((x, x.shape), (y, y.shape)):
            for _ in range(draw(st.sampled_from([0, 0, 0, 1]), label="non-finite entries")):
                at = np.unravel_index(draw(st.integers(0, array.size - 1)), shape)
                array[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        # as load_trajectories orders a subject's rows: by ordinate, ties in file order
        order = np.argsort(x, kind="stable")
        subjects[f"s{s}"] = ingest.SubjectTrack(ordinate=x[order], samples=y[order])
    return ingest.TrajectoryTable(variables=variables, subjects=subjects, dropped_rows=0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    table=trajectory_tables(),
    p=st.integers(1, 6),
    gated=st.booleans(),
    derivative_gate=st.sampled_from([None, 5.0, 500.0]),
    basis_interval=st.sampled_from([INTERVAL, (6.2, 7.0)]),
)
def test_one_pass_gates_match_the_subject_by_subject_gates(
    table, p, gated, derivative_gate, basis_interval
):
    basis = make_cosine_basis(p=p, n_quad=4 * p + 1, interval=basis_interval)
    recipe = default_recipe(derivative_gate=derivative_gate)
    if not gated:
        recipe = dataclasses.replace(recipe, start_gate=None, end_gate=None)
    # a non-finite ordinate now skips its subject before any other gate runs
    broken = [s for s, track in table.subjects.items() if not np.isfinite(track.ordinate).all()]
    rest = {s: track for s, track in table.subjects.items() if s not in broken}
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_curves_to_basis(dataclasses.replace(table, subjects=rest), recipe, basis)
        with mock.patch.object(ingest, "project_with_offset", wraps=project_with_offset) as spy:
            curves, report = curves_to_basis(table, recipe, basis)
    screened, subjects, offsets, coeffs, skipped = want
    order = list(table.subjects)
    skipped = sorted(
        skipped + [(s, "non-finite ordinate sample") for s in broken],
        key=lambda entry: order.index(entry[0]),
    )
    assert not any("rank deficient" in reason for _, reason in skipped)
    assert list(report.skipped) == skipped
    assert list(curves.subjects) == subjects
    assert report.n_in == len(order) and report.n_out == len(subjects)
    # every subject that reaches the projection, with the same knots and values
    got_knots, got_values = [], []
    for call in spy.call_args_list:
        knots, values = curves_of(*call.args[:4])
        got_knots += knots
        got_values += values
    assert len(got_knots) == len(got_values) == len(screened)
    for (_, knots, values), got_k, got_v in zip(screened, got_knots, got_values):
        assert got_k.tobytes() == knots.tobytes()
        assert got_v.shape == values.shape and got_v.tobytes() == values.tobytes()
    assert curves.offsets.tobytes() == offsets.tobytes()
    assert curves.coeffs.tobytes() == coeffs.tobytes()


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
    grid = resample_to_quad_grid(*end_to_end(xs, ys), basis)
    assert np.max(np.abs(grid - reference)) <= tol * scale

    design = np.column_stack([np.ones(nodes.size), basis.quad_values()]) * np.sqrt(w)[:, None]
    offsets, coeffs = project_with_offset(*end_to_end(xs, ys), basis)
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
        start = reader.line_num
        for row in reader:
            # a record is named by its first line: blank lines and quoted line breaks count
            first, start = start + 1, reader.line_num
            if not row:
                continue
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
                raise DataError(f"{path}: malformed row at line {first}: {exc}") from exc
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


def test_ingest_provenance_is_strict_json(tmp_path):
    report = IngestReport(n_in=2, n_out=1, skipped=(("s1", "end gate"),), dropped_rows=0)
    path = tmp_path / "ingest.json"
    save_ingest_provenance(str(path), report, default_recipe(), basis_on_interval())
    assert json.loads(path.read_text())["recipe"]["derivative_gate"] is None
    path.unlink()
    # a NaN would be written as the bare token NaN, which is not JSON
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_ingest_provenance(
            str(path), report, default_recipe(derivative_gate=float("nan")), basis_on_interval()
        )
    assert not path.exists()


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


_EDGE_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308, 1.7976931348623157e308,
                 3.0, -7.0, 1e16, 2.0**53 + 2, 0.1, 1 / 3]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_save_dataset_writes_the_bytes_of_savetxt(data):
    n = data.draw(st.sampled_from([1, 1, 2, 3, 7]), label="rows")
    p = data.draw(st.sampled_from([1, 1, 2, 4]), label="columns")
    entry = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(_EDGE_ENTRIES),
        st.integers(-(10**9), 10**9).map(float),
    )
    U = np.reshape(data.draw(st.lists(entry, min_size=n * p, max_size=n * p)), (n, p))
    # F transposed, so that a matrix that is not C-contiguous is formatted too
    F = np.reshape(data.draw(st.lists(entry, min_size=n * p, max_size=n * p)), (p, n)).T
    dataset = DataSet(U=U, F=F, basis=make_cosine_basis(p=p, n_quad=2 * p + 1))
    with tempfile.TemporaryDirectory() as tmp:
        u_path, f_path = os.path.join(tmp, "U.csv"), os.path.join(tmp, "F.csv")
        save_dataset(dataset, u_path, f_path)
        for path, mat, prefix in ((u_path, dataset.U, "u"), (f_path, dataset.F, "f")):
            want = io.StringIO(newline="")
            header = ",".join(f"{prefix}_{k}" for k in range(1, p + 1))
            np.savetxt(want, mat, fmt="%.17g", delimiter=",", newline="\r\n", header=header,
                       comments="")
            with open(path, "rb") as fh:
                assert fh.read() == want.getvalue().encode("utf-8")


def reference_grouped_tracks(path, schema, lenient):
    """Rows read by csv.reader and float(), then grouped by one stable np.lexsort.

    The sort of the subject-major, ordinate-minor order that
    :func:`~diffreg.ingest.load_trajectories` skips when the file is in it
    already.  Returns ({subject: (ordinate, samples)}, dropped rows).
    """
    labels, rows, dropped = [], [], 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(c) for c in (schema.ordinate, *schema.variables)]
        for row in reader:
            try:
                rows.append([float(row[i]) for i in cols])
            except ValueError:
                assert lenient
                dropped += 1
                continue
            labels.append(row[header.index(schema.subject)])
    names, inverse = np.unique(np.array(labels, dtype=object), return_inverse=True)
    values = np.array(rows)
    values = values[np.lexsort((values[:, 0], inverse))]
    ends = np.cumsum(np.bincount(inverse))[:-1]
    tracks = {name: (block[:, 0], block[:, 1:]) for name, block in zip(names, np.split(values, ends))}
    return tracks, dropped


def _array_chain(array):
    while isinstance(array, np.ndarray):
        yield array
        array = array.base


# ties, signed zeros and non-finite ordinates; names out of their sorted order
_TIE_ORDINATES = [6.3, 6.3, 6.5, 0.0, -0.0, -2.5, 1e-300, np.inf, -np.inf, np.nan]
_TRACK_NAMES = ["s9", "s10", "b", "a", "s1"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_skipping_the_sort_of_a_sorted_file_changes_nothing(data):
    n_rows = data.draw(st.integers(1, 40), label="rows")
    names = data.draw(st.lists(st.sampled_from(_TRACK_NAMES), min_size=n_rows, max_size=n_rows))
    ordinates = data.draw(
        st.lists(st.sampled_from(_TIE_ORDINATES) | st.floats(-10, 10), min_size=n_rows,
                 max_size=n_rows),
        label="ordinates",
    )
    lenient = data.draw(st.booleans(), label="lenient")
    bad = set(data.draw(st.lists(st.integers(0, n_rows - 1), max_size=3))) if lenient else set()
    # T_real is the row's position in the drawn rows, so a tie's order shows
    rows = [
        [name, repr(x), "x" if i in bad else repr(float(i)), repr(-0.0 if i % 2 else 0.5 * i)]
        for i, (name, x) in enumerate(zip(names, ordinates))
    ]
    # the order the sort gives: by subject name, then by ordinate (NaN last), ties kept
    _, inverse = np.unique(np.array(names, dtype=object), return_inverse=True)
    presorted = [rows[i] for i in np.lexsort((np.array(ordinates), inverse))]
    # a subject whose rows include a NaN ordinate and another row is sorted again
    x = np.array([float(row[1]) for i, row in enumerate(rows) if i not in bad])
    kept_names = np.array([row[0] for i, row in enumerate(rows) if i not in bad], dtype=object)
    needs_sort = any(
        np.isnan(x[kept_names == name]).any() and np.sum(kept_names == name) > 1
        for name in set(kept_names.tolist())
    )
    with tempfile.TemporaryDirectory() as tmp:
        for layout, table_rows in (("presorted", presorted), ("shuffled", rows)):
            path = os.path.join(tmp, f"{layout}.csv")
            write_rows(path, table_rows)
            if len(bad) == n_rows:
                with pytest.raises(DataError, match="no usable rows"):
                    load_trajectories(path, SCHEMA, lenient)
                continue
            want, dropped = reference_grouped_tracks(path, SCHEMA, lenient)
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as sort:
                got = load_trajectories(path, SCHEMA, lenient)
            if layout == "presorted":
                assert sort.called == needs_sort
            assert got.dropped_rows == dropped
            assert list(got.subjects) == list(want)
            for name, (ordinate, samples) in want.items():
                track = got.subjects[name]
                assert track.ordinate.shape == ordinate.shape
                assert track.samples.shape == samples.shape
                assert track.ordinate.tobytes() == ordinate.tobytes()
                assert track.samples.tobytes() == samples.tobytes()
                # copied out of the parse's record array, which is then freed
                for array in (track.ordinate, track.samples):
                    assert all(a.dtype.names is None for a in _array_chain(array))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(labels=st.lists(st.sampled_from(["", "s1", "s10", "é", "Ω", "s1 "]) | st.text(max_size=3),
                       min_size=1, max_size=40))
def test_group_matches_np_unique(labels):
    labels = np.array(labels, dtype=object)
    names, inverse = ingest._group(labels)
    want_names, want_inverse = np.unique(labels, return_inverse=True)
    assert names.dtype == want_names.dtype
    assert names.tolist() == want_names.tolist()
    assert inverse.tolist() == want_inverse.tolist()


def test_a_utf8_byte_order_mark_is_dropped(tmp_path, three_subject_csv, monkeypatch):
    plain = load_trajectories(three_subject_csv, SCHEMA)
    marked = tmp_path / "marked.csv"
    with open(three_subject_csv, "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
    table = load_trajectories(str(marked), SCHEMA)
    assert list(table.subjects) == list(plain.subjects)
    for name, track in plain.subjects.items():
        assert table.subjects[name].ordinate.tobytes() == track.ordinate.tobytes()
        assert table.subjects[name].samples.tobytes() == track.samples.tobytes()
    # the row-wise scan reads the file again from its start, mark and all
    rows = synthetic_rows("s0", [1.0, 0.5], [0.3, -0.2])
    rows[3][2] = "x"
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows([("subject", "log_p", "T_real", "T_pot"), *rows])
    marked.write_bytes(b"\xef\xbb\xbf" + buffer.getvalue().encode("utf-8"))
    with pytest.raises(DataError, match="malformed row at line 5: could not convert"):
        load_trajectories(str(marked), SCHEMA)
    assert load_trajectories(str(marked), SCHEMA, lenient=True).dropped_rows == 1
    # a dataset CSV with a mark parses to the matrix written; its sidecar's
    # digest is of the bytes without it, so the CSV is parsed
    data = small_dataset()
    u_path, f_path = str(tmp_path / "U.csv"), str(tmp_path / "F.csv")
    save_dataset(data, u_path, f_path)
    for path in (u_path, f_path):
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + raw)
    calls = parse_count(monkeypatch)
    loaded = load_dataset(u_path, f_path, data.basis)
    assert calls[0] == 2
    assert loaded.U.tobytes() == data.U.tobytes() and loaded.F.tobytes() == data.F.tobytes()


def test_not_utf8_names_the_byte_offset_of_a_file_without_a_mark(tmp_path):
    path = tmp_path / "tracks.csv"
    payload = b"subject,log_p,T_real,T_pot\ns0,6.3,1,2\n"
    path.write_bytes(payload + b"\xff" + b"s0,6.4,1,2\n")
    with pytest.raises(DataError, match=f"tracks.csv: not UTF-8 text: .* in position {len(payload)}:"):
        load_trajectories(str(path), SCHEMA)


# -- the dataset sidecar -------------------------------------------------------


def small_dataset(p=3, n=4, seed=1):
    rng = np.random.default_rng(seed)
    return DataSet(
        U=rng.standard_normal((n, p)), F=rng.standard_normal((n, p)),
        basis=make_cosine_basis(p=p, n_quad=21),
    )


def parse_count(monkeypatch):
    """Patch the bulk parse to count its calls; returns the one-entry counter."""
    calls = [0]
    parse = ingest._loadtxt

    def counted(*args, **kwargs):
        calls[0] += 1
        return parse(*args, **kwargs)

    monkeypatch.setattr(ingest, "_loadtxt", counted)
    return calls


def test_save_dataset_writes_sidecars_that_load_dataset_uses(tmp_path, monkeypatch):
    data = small_dataset()
    u_path, f_path = str(tmp_path / "U.csv"), str(tmp_path / "F.csv")
    save_dataset(data, u_path, f_path)
    assert sorted(os.listdir(tmp_path)) == ["F.csv", "F.csv.npz", "U.csv", "U.csv.npz"]
    with np.load(u_path + ".npz", allow_pickle=False) as archive:
        assert sorted(archive.files) == ["sha256", "values"]
        with open(u_path, "rb") as fh:
            assert str(archive["sha256"]) == hashlib.sha256(fh.read()).hexdigest()
        assert archive["values"].tobytes() == data.U.tobytes()
    calls = parse_count(monkeypatch)
    loaded = load_dataset(u_path, f_path, data.basis)
    assert calls[0] == 0
    assert loaded.U.tobytes() == data.U.tobytes() and loaded.F.tobytes() == data.F.tobytes()


def forge_sidecar(path, values, digest_of=None):
    """A sidecar at ``path`` + .npz holding ``values`` and the sha256 of file ``digest_of``."""
    with open(digest_of or path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    np.savez(path + ".npz", values=values, sha256=np.array(digest))


def huge_header_sidecar(path, width):
    """A sidecar whose digest matches but whose values header claims 2^36 rows."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (2**36, width)}
    )
    digest = io.BytesIO()
    with open(path, "rb") as fh:
        np.save(digest, np.array(hashlib.sha256(fh.read()).hexdigest()))
    with zipfile.ZipFile(path + ".npz", "w") as archive:
        archive.writestr("sha256.npy", digest.getvalue())
        archive.writestr("values.npy", header.getvalue() + b"\0" * 64)


def rewrite_u_csv(path, U):
    """U.csv rewritten with other values and the same header, as an editor would."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"u_{k}" for k in range(1, U.shape[1] + 1)])
        writer.writerows([[repr(float(v)) for v in row] for row in U])


def truncate_sidecar(path):
    with open(path + ".npz", "r+b") as fh:
        fh.truncate(100)


def plain_npy_sidecar(path, values):
    """An .npy file, which np.load returns as an array, under the sidecar's name."""
    with open(path + ".npz", "wb") as fh:
        np.save(fh, values)


SIDECAR_FAULTS = {
    "stale": lambda path, data: rewrite_u_csv(path, 2 * data.U),
    "truncated": lambda path, data: truncate_sidecar(path),
    "another_csvs": lambda path, data: shutil.copyfile(
        path.replace("U.csv", "F.csv.npz"), path + ".npz"
    ),
    "missing": lambda path, data: os.remove(path + ".npz"),
    "wrong_width": lambda path, data: forge_sidecar(path, data.U[:, :-1]),
    "nan_under_a_matching_digest": lambda path, data: forge_sidecar(
        path, np.where(np.arange(data.U.size).reshape(data.U.shape) == 4, np.nan, data.U)
    ),
    "no_rows": lambda path, data: forge_sidecar(path, data.U[:0]),
    "float32": lambda path, data: forge_sidecar(path, data.U.astype(np.float32)),
    "a_plain_npy": lambda path, data: plain_npy_sidecar(path, data.U),
    "pickled": lambda path, data: np.savez(path + ".npz", values=np.array([None]),
                                           sha256=np.array([None])),
    "huge_header": lambda path, data: huge_header_sidecar(path, data.p),
    "a_directory": lambda path, data: (os.remove(path + ".npz"), os.mkdir(path + ".npz")),
}


@pytest.mark.parametrize("fault", sorted(SIDECAR_FAULTS))
def test_a_sidecar_not_written_for_the_csv_falls_back_to_the_parse(tmp_path, monkeypatch, fault):
    data = small_dataset()
    u_path, f_path = str(tmp_path / "U.csv"), str(tmp_path / "F.csv")
    save_dataset(data, u_path, f_path)
    SIDECAR_FAULTS[fault](u_path, data)
    calls = parse_count(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = load_dataset(u_path, f_path, data.basis)
        gc.collect()
    assert [w.category for w in caught] == []  # no ResourceWarning: every handle was closed
    assert calls[0] == 1  # U.csv parsed, F.csv from its sidecar
    want = 2 * data.U if fault == "stale" else data.U
    assert loaded.U.tobytes() == want.tobytes() and loaded.F.tobytes() == data.F.tobytes()


def test_a_stale_sidecar_keeps_the_parse_errors(tmp_path):
    data = small_dataset()
    u_path, f_path = str(tmp_path / "U.csv"), str(tmp_path / "F.csv")
    save_dataset(data, u_path, f_path)
    U = data.U.copy()
    U[2, 1] = np.inf
    rewrite_u_csv(u_path, U)
    with pytest.raises(DataError, match="U.csv: non-finite entry in data row 3"):
        load_dataset(u_path, f_path, data.basis)
    with open(u_path, "a", newline="") as fh:
        fh.write("1,2\n")
    with pytest.raises(DataError, match="U.csv: ragged rows: data row 5 has 2 fields"):
        load_dataset(u_path, f_path, data.basis)


_exact_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_sidecar_and_the_parse_give_the_same_bits(data):
    n = data.draw(st.integers(1, 5), label="n")
    p = data.draw(st.integers(1, 4), label="p")
    U, F = (
        np.array(data.draw(st.lists(_exact_floats, min_size=n * p, max_size=n * p), label=name))
        .reshape(n, p)
        for name in ("U", "F")
    )
    basis = make_cosine_basis(p=p, n_quad=2 * p + 1)
    with tempfile.TemporaryDirectory() as tmp:
        u_path, f_path = os.path.join(tmp, "U.csv"), os.path.join(tmp, "F.csv")
        save_dataset(DataSet(U=U, F=F, basis=basis), u_path, f_path)
        with mock.patch.object(ingest, "_loadtxt", side_effect=AssertionError("parsed")):
            fast = load_dataset(u_path, f_path, basis)
        for path in (u_path, f_path):
            os.remove(path + ".npz")
        parsed = load_dataset(u_path, f_path, basis)
    for got, want in ((fast.U, parsed.U), (fast.F, parsed.F), (parsed.U, U), (parsed.F, F)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_archives_date_every_member_1980(tmp_path, km_p3):
    # the digests of kernel caches and sidecars stay fixed only while no
    # member carries the time it was written
    save_kernel_matrices(km_p3, str(tmp_path / "kernels.npz"))
    save_dataset(small_dataset(), str(tmp_path / "U.csv"), str(tmp_path / "F.csv"))
    for name in ("kernels.npz", "U.csv.npz", "F.csv.npz"):
        with zipfile.ZipFile(tmp_path / name) as archive:
            assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}


def test_save_dataset_writes_atomically_with_the_default_mode(tmp_path):
    data = small_dataset()
    out = tmp_path / "out"
    out.mkdir()
    save_dataset(data, str(out / "U.csv"), str(out / "F.csv"))
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    for name in os.listdir(out):
        assert os.stat(out / name).st_mode == os.stat(plain).st_mode
    # a failed rename leaves no temporary file behind
    os.remove(out / "F.csv.npz")
    os.mkdir(out / "F.csv.npz")
    with pytest.raises(OSError):
        save_dataset(data, str(out / "U.csv"), str(out / "F.csv"))
    assert sorted(os.listdir(out)) == ["F.csv", "F.csv.npz", "U.csv", "U.csv.npz"]
