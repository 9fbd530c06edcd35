"""Turn discretized trajectory tables into coefficient datasets.

Input is a long-format CSV of (subject, ordinate, traced variables).  Each
subject's curves are projected onto the basis after coverage and sanity
gates; responses can be taken directly from a traced variable, through a
spectral multiplier table, or through the pressure-weighted temperature
balance

    F = (p / p0)^{-kappa} * (dT/dx - kappa * T),    x = log(p),

whose derivative is taken term-by-term on the basis expansion rather than
on raw samples, since finely-sampled differences are noise dominated.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .basis import BasisSystem, DataSet, FuncVec, resample_to_quad_grid, solve_projection
from .errors import DataError, SingularSystemError


@dataclass(frozen=True)
class TableSchema:
    """Column names for a trajectory CSV."""

    subject: str
    ordinate: str
    variables: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class SubjectTrack:
    """One subject's samples, sorted by ordinate."""

    ordinate: np.ndarray
    variables: dict


@dataclass(frozen=True, eq=False)
class TrajectoryTable:
    subjects: dict
    dropped_rows: int


@dataclass(frozen=True)
class ThermoResponse:
    """Response (p/p0)^{-kappa} (dT/dlog p - kappa T) from variable T."""

    variable: str
    kappa: float = 0.286
    p0: float = 1000.0

    def __post_init__(self):
        if self.kappa < 0 or self.p0 <= 0:
            raise ValueError("ThermoResponse needs kappa >= 0 and p0 > 0")


@dataclass(frozen=True)
class IdentityResponse:
    """Response taken directly from a traced variable."""

    variable: str


@dataclass(frozen=True)
class SpectralResponse:
    """Response from a diagonal coefficient action on a traced variable."""

    variable: str
    multipliers: tuple[float, ...]


@dataclass(frozen=True)
class RecipeSpec:
    """How a trajectory table becomes a (U, F) dataset.

    Attributes:
        predictor: traced variable projected as U.
        response: ThermoResponse, IdentityResponse or SpectralResponse.
        interval: target domain (a, b) on the ordinate axis.
        start_gate: open interval the smallest ordinate must fall in, or None.
        end_gate: open interval the largest ordinate must fall in, or None.
        derivative_gate: exclude subjects whose projected predictor has
            |d/dx| above this anywhere on the quadrature grid; None disables.
        center: subtract sample mean coefficients from both U and F columns.
        penalty: roughness penalty passed to the projection.
    """

    predictor: str
    response: object
    interval: tuple[float, float]
    start_gate: tuple[float, float] | None = None
    end_gate: tuple[float, float] | None = None
    derivative_gate: float | None = None
    center: bool = True
    penalty: float = 0.0


def load_trajectories(path: str, schema: TableSchema, lenient: bool = False) -> TrajectoryTable:
    """Parse a trajectory CSV into per-subject tracks.

    Rows with missing or non-numeric fields raise a parse error naming the
    line, or are dropped and counted when ``lenient`` is set.
    """
    columns = (schema.subject, schema.ordinate, *schema.variables)
    raw: dict = {}
    dropped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataError(f"{path}: header is missing column(s) {missing}")
        for lineno, row in enumerate(reader, start=2):
            try:
                subject = row[schema.subject]
                if subject is None or subject == "":
                    raise ValueError("empty subject id")
                values = {name: float(row[name]) for name in (schema.ordinate, *schema.variables)}
            except (TypeError, ValueError) as exc:
                if lenient:
                    dropped += 1
                    continue
                raise DataError(f"{path}: malformed row at line {lineno}: {exc}") from exc
            raw.setdefault(subject, []).append(values)
    if not raw:
        raise DataError(f"{path}: no usable rows")
    subjects = {}
    for subject in sorted(raw):
        rows = raw[subject]
        x = np.array([r[schema.ordinate] for r in rows])
        order = np.argsort(x)
        subjects[subject] = SubjectTrack(
            ordinate=x[order],
            variables={
                name: np.array([r[name] for r in rows])[order] for name in schema.variables
            },
        )
    return TrajectoryTable(subjects=subjects, dropped_rows=dropped)


@dataclass(frozen=True, eq=False)
class ProjectedCurve:
    """Pre-smoothed curve: basis-span part plus a constant offset.

    The cosine span contains no constants, so the offset is estimated
    jointly with the coefficients and carried as an auxiliary; pointwise
    formulas (like the pressure-weighted response) need it, while the
    coefficient matrices only ever see the span part.
    """

    span: FuncVec
    offset: float

    def grid_values(self) -> np.ndarray:
        return self.offset + self.span.basis.quad_values() @ self.span.coeffs

    def grid_slope(self) -> np.ndarray:
        basis = self.span.basis
        return basis.deriv_values(basis.quad_nodes, order=1) @ self.span.coeffs


def project_with_offset(
    x: np.ndarray, y: np.ndarray, basis: BasisSystem, penalty: float = 0.0
) -> ProjectedCurve:
    """Least squares over span{1, phi_1..phi_p} on the quadrature grid."""
    design = np.column_stack([np.ones(len(basis.quad_nodes)), basis.quad_values()])
    solution = solve_projection(design, resample_to_quad_grid(x, y, basis), basis, penalty)
    return ProjectedCurve(span=FuncVec(solution[1:], basis), offset=float(solution[0]))


@dataclass(frozen=True, eq=False)
class IngestReport:
    """Bookkeeping so that every input subject is accounted for."""

    n_in: int
    n_out: int
    skipped: tuple
    dropped_rows: int

    def to_json_dict(self) -> dict:
        return {
            "subjects_in": self.n_in,
            "subjects_out": self.n_out,
            "subjects_skipped": [{"subject": s, "reason": r} for s, r in self.skipped],
            "rows_dropped": self.dropped_rows,
        }


def curves_to_basis(
    table: TrajectoryTable, recipe: RecipeSpec, basis: BasisSystem
) -> tuple[dict, IngestReport]:
    """Pre-smooth every gated subject's traced variables onto the basis.

    Subjects failing a gate are skipped with a reason; projection is the
    pre-smoothing step, so the derivative-magnitude gate is evaluated on
    the projected predictor.
    """
    a, b = recipe.interval
    curves: dict = {}
    skipped = []
    for subject, track in table.subjects.items():
        x = track.ordinate
        lo, hi = float(x.min()), float(x.max())
        if recipe.start_gate is not None and not (recipe.start_gate[0] < lo < recipe.start_gate[1]):
            skipped.append((subject, f"smallest ordinate {lo:.6g} outside start gate"))
            continue
        if recipe.end_gate is not None and not (recipe.end_gate[0] < hi < recipe.end_gate[1]):
            skipped.append((subject, f"largest ordinate {hi:.6g} outside end gate"))
            continue
        if lo > a or hi < b:
            skipped.append((subject, f"samples cover [{lo:.6g}, {hi:.6g}], not [{a}, {b}]"))
            continue
        if np.unique(x).size < basis.p:
            skipped.append((subject, f"{np.unique(x).size} distinct ordinates < p = {basis.p}"))
            continue
        try:
            projected = {
                name: project_with_offset(x, values, basis, penalty=recipe.penalty)
                for name, values in track.variables.items()
            }
        except (SingularSystemError, ValueError) as exc:
            skipped.append((subject, str(exc)))
            continue
        if recipe.derivative_gate is not None:
            peak = float(np.max(np.abs(projected[recipe.predictor].grid_slope())))
            if peak > recipe.derivative_gate:
                skipped.append((subject, f"|d {recipe.predictor}/dx| peak {peak:.6g} above gate"))
                continue
        curves[subject] = projected
    report = IngestReport(
        n_in=len(table.subjects),
        n_out=len(curves),
        skipped=tuple(skipped),
        dropped_rows=table.dropped_rows,
    )
    return curves, report


def response_coefficients(curves: dict, response, basis: BasisSystem) -> np.ndarray:
    """Response coefficient vector for one subject's pre-smoothed curves."""
    if isinstance(response, IdentityResponse):
        return curves[response.variable].span.coeffs.copy()
    if isinstance(response, SpectralResponse):
        return np.asarray(response.multipliers) * curves[response.variable].span.coeffs
    if isinstance(response, ThermoResponse):
        curve = curves[response.variable]
        # ordinate is log(p), so the pressure weight is exp(x)/p0 pointwise
        weight = (np.exp(basis.quad_nodes) / response.p0) ** (-response.kappa)
        f_vals = weight * (curve.grid_slope() - response.kappa * curve.grid_values())
        return solve_projection(basis.quad_values(), f_vals, basis, 0.0)
    raise TypeError(f"unsupported response formula {type(response).__name__}")


def build_thermo_dataset(
    curves: dict, recipe: RecipeSpec, basis: BasisSystem
) -> DataSet:
    """Assemble the (U, F) dataset from projected curves.

    U holds the predictor coefficients and F the response formula's
    coefficients; with ``recipe.center`` the sample mean coefficient
    vector is subtracted from both.
    """
    if not curves:
        raise DataError("no subjects survived the gates")
    subjects = sorted(curves)
    U = np.stack([curves[s][recipe.predictor].span.coeffs for s in subjects])
    F = np.stack([response_coefficients(curves[s], recipe.response, basis) for s in subjects])
    if recipe.center:
        U = U - U.mean(axis=0)
        F = F - F.mean(axis=0)
    return DataSet(U=U, F=F, basis=basis)


def save_dataset(data: DataSet, u_path: str, f_path: str) -> None:
    """Write the coefficient matrices as two headed CSV files."""
    for path, mat, prefix in ((u_path, data.U, "u"), (f_path, data.F, "f")):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{prefix}_{k}" for k in range(1, data.p + 1)])
            for row in mat:
                writer.writerow([f"{v:.17g}" for v in row])


def load_dataset(u_path: str, f_path: str, basis: BasisSystem) -> DataSet:
    """Read a dataset written by :func:`save_dataset`."""

    def read_matrix(path: str) -> np.ndarray:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            try:
                rows = [[float(v) for v in row] for row in reader if row]
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric entry: {exc}") from exc
        if not rows:
            raise DataError(f"{path}: no data rows")
        mat = np.array(rows)
        if mat.shape[1] != len(header):
            raise DataError(f"{path}: ragged rows")
        bad_rows = np.flatnonzero(~np.isfinite(mat).all(axis=1))
        if bad_rows.size:
            raise DataError(f"{path}: non-finite entry in data row {bad_rows[0] + 1}")
        return mat

    U = read_matrix(u_path)
    F = read_matrix(f_path)
    if U.shape != F.shape:
        raise DataError(f"U is {U.shape} but F is {F.shape}")
    if U.shape[1] != basis.p:
        raise DataError(f"dataset has {U.shape[1]} columns but basis p = {basis.p}")
    return DataSet(U=U, F=F, basis=basis)


def save_ingest_provenance(
    path: str,
    report: IngestReport,
    recipe: RecipeSpec,
    basis: BasisSystem,
    extra: dict | None = None,
) -> None:
    """JSON provenance for an ingested dataset."""
    doc = {
        **(extra or {}),
        "report": report.to_json_dict(),
        "recipe": {
            "predictor": recipe.predictor,
            "response": {"type": type(recipe.response).__name__, **vars(recipe.response)},
            "interval": list(recipe.interval),
            "start_gate": list(recipe.start_gate) if recipe.start_gate else None,
            "end_gate": list(recipe.end_gate) if recipe.end_gate else None,
            "derivative_gate": recipe.derivative_gate,
            "center": recipe.center,
            "penalty": recipe.penalty,
        },
        "basis": {
            "p": basis.p,
            "interval": list(basis.interval),
            "kind": basis.kind,
            "n_quad": int(len(basis.quad_nodes)),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
