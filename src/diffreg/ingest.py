"""Turn discretized trajectory tables into coefficient datasets.

Input is a long-format CSV of (subject, ordinate, traced variables).  Each
subject's curves are projected onto the basis after coverage and sanity
gates; responses can be taken directly from a traced variable, through a
spectral multiplier table, or through the pressure-weighted temperature
balance

    F = (p / p0)^{-kappa} * (dT/dx - kappa * T),    x = log(p),

whose derivative is taken term-by-term on the basis expansion rather than
on raw samples, since finely-sampled differences are noise dominated.

Each subject's samples are one (m, V) block whose columns follow the
schema's variables.  The gates run subject by subject; they also sort and
deduplicate each subject's samples, keeping at a repeated ordinate the
sample that comes first in the file.  Subjects that pass are then
pre-smoothed in blocks of ``BLOCK_SUBJECTS``: one call resamples a block's
curves onto the quadrature grid, with one vectorized spline per knot
count, and one projection solve takes every curve of the block as a
column of its right-hand side.  The
derivative gate and the thermo response are one matrix product each over
the stacked coefficients.  Blocks bound the size of the stacked arrays,
and the kept curves come out as (S, V) offsets and (S, V, p) coefficients.

CSV files are read and written in bulk, one :func:`numpy.loadtxt` or
:func:`numpy.savetxt` per file.  A row-wise scan runs only when a parse
rejects a file, to say which row is malformed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .basis import BasisSystem, DataSet, distinct_samples, resample_to_quad_grid, solve_projection
from .errors import DataError, SingularSystemError

#: subjects resampled and projected together; bounds the (block, n_quad,
#: variables) arrays of one pass, and with them the peak memory of ingest
BLOCK_SUBJECTS = 256


@dataclass(frozen=True)
class TableSchema:
    """Column names for a trajectory CSV."""

    subject: str
    ordinate: str
    variables: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class SubjectTrack:
    """One subject's samples, sorted by ordinate with ties in file order: ``samples`` is (m, V)."""

    ordinate: np.ndarray
    samples: np.ndarray


@dataclass(frozen=True, eq=False)
class TrajectoryTable:
    """Per-subject tracks whose sample columns follow ``variables``."""

    variables: tuple[str, ...]
    subjects: dict
    dropped_rows: int


@dataclass(frozen=True)
class ThermoResponse:
    """Response (p/p0)^{-kappa} (dT/dlog p - kappa T) from variable T."""

    variable: str
    kappa: float = 0.286
    p0: float = 1000.0

    def __post_init__(self):
        if not (0 <= self.kappa < np.inf and 0 < self.p0 < np.inf):
            raise ValueError("ThermoResponse needs finite kappa >= 0 and p0 > 0")


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


@contextlib.contextmanager
def _open_csv(path: str):
    """Open a CSV as UTF-8 text; bytes that do not decode are a DataError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:  # a ValueError: a parse's handler may re-read first
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def load_trajectories(path: str, schema: TableSchema, lenient: bool = False) -> TrajectoryTable:
    """Parse a trajectory CSV into per-subject tracks.

    Rows with missing or non-numeric fields raise a parse error naming the
    line, or are dropped and counted when ``lenient`` is set.  Blank lines
    are skipped and not counted.

    The file is parsed in one pass by :func:`numpy.loadtxt`, with the
    subject column as Python strings and the value columns as floats.
    Only when that parse rejects the file does a row-wise scan run, to name
    the first malformed row or to drop the malformed rows before parsing
    the rest again.
    """
    columns = (schema.subject, schema.ordinate, *schema.variables)
    with _open_csv(path) as fh:
        header = next(csv.reader(fh), [])
        # a repeated name refers to its last column, as with csv.DictReader
        index = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in index]
        if missing:
            raise DataError(f"{path}: header is missing column(s) {missing}")
        usecols = [index[c] for c in columns]
        width = max(usecols) + 1
        dtype = np.dtype([("subject", object), ("values", float, (len(usecols) - 1,))])

        def parse(lines):
            rows = _loadtxt(lines, dtype=dtype, usecols=usecols, ndmin=1)
            if rows is None:
                raise DataError(f"{path}: no usable rows")
            names, inverse = _group(rows["subject"])
            if names[0] == "":  # the sorted names start with the empty one
                raise ValueError("empty subject id")
            return names, inverse, rows["values"]

        def check(row: list) -> None:
            if len(row) < width:
                raise ValueError(f"row has {len(row)} of the header's {len(header)} fields")
            if row[usecols[0]] == "":
                raise ValueError("empty subject id")
            for i in usecols[1:]:
                _check_number(row[i])

        dropped = 0
        try:
            names, inverse, values = parse(fh)
        except ValueError:
            kept = []
            for lineno, (row, text) in enumerate(_data_records(fh), start=2):
                try:
                    check(row)
                except ValueError as exc:
                    if not lenient:
                        raise DataError(f"{path}: malformed row at line {lineno}: {exc}") from exc
                    dropped += 1
                else:
                    kept.append(text)
            try:
                names, inverse, values = parse(io.StringIO("".join(kept), newline=""))
            except ValueError as exc:  # a row csv.reader splits otherwise than np.loadtxt
                raise DataError(f"{path}: {exc}") from exc
    # one stable sort groups the rows by subject and orders each subject by
    # ordinate; rows at a repeated ordinate stay in file order
    values = values[np.lexsort((values[:, 0], inverse))]
    ends = np.cumsum(np.bincount(inverse))[:-1]
    subjects = {}
    for subject, rows in zip(names.tolist(), np.split(values, ends)):
        subjects[subject] = SubjectTrack(ordinate=rows[:, 0], samples=rows[:, 1:])
    return TrajectoryTable(variables=schema.variables, subjects=subjects, dropped_rows=dropped)


def _loadtxt(lines, **kwargs) -> np.ndarray | None:
    """:func:`numpy.loadtxt` over CSV text read from ``lines``; None if it holds no data rows.

    Fields split as :mod:`csv` splits them: on commas, with double-quoted
    fields and no comment character (the default ``#`` would cut a field
    such as ``2#3`` short).  Blank lines are skipped.
    """
    with warnings.catch_warnings():
        # an empty result is the caller's error to raise, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, **kwargs)
    return rows if rows.size else None


def _data_records(fh):
    """Each non-blank CSV record after the header of ``fh``, as (fields, its source lines).

    Reads the file again from its start.
    """
    fh.seek(0)
    lines = fh.readlines()
    reader = csv.reader(lines)
    next(reader, None)
    start = reader.line_num
    for row in reader:
        if row:
            yield row, "".join(lines[start : reader.line_num])
        start = reader.line_num


def _check_number(field: str) -> None:
    """Raise ``float(field)``'s ValueError unless :func:`numpy.loadtxt` reads ``field``.

    numpy strips the whitespace ``str.strip`` strips and reads the rest as
    ``float`` does, if it is ASCII without digit-group underscores.  So it
    rejects ``1_0`` and non-ASCII digits, which ``float`` accepts, and
    accepts the separators ``\\x1c``-``\\x1f`` around a number, which
    ``float`` rejects.
    """
    text = field.strip()
    if text.isascii() and "_" not in text:
        try:
            float(text)
            return
        except ValueError:
            pass
    raise ValueError(f"could not convert string to float: {field!r}")


def _group(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(labels, return_inverse=True)``, run on the first label of each run.

    Rows of one subject usually come in runs, so this sorts a few thousand
    strings rather than one per row.
    """
    heads = np.flatnonzero(np.concatenate(([True], labels[1:] != labels[:-1])))
    names, inverse = np.unique(labels[heads], return_inverse=True)
    return names, np.repeat(inverse, np.diff(np.append(heads, labels.size)))


def project_with_offset(xs, ys, basis: BasisSystem, penalty: float = 0.0):
    """Least squares over span{1, phi_1..phi_p} on the quadrature grid.

    ``xs`` holds S knot vectors and ``ys`` the values at them, each of shape
    (m_s, V), as :func:`~diffreg.basis.distinct_samples` returns them.
    Returns the offsets (S, V) and the span coefficients (S, V, p) of every
    curve, from one resampling call and one solve.
    """
    grid = resample_to_quad_grid(xs, ys, basis)
    S, n_quad, V = grid.shape
    design = np.column_stack([np.ones(n_quad), basis.quad_values()])
    rhs = grid.transpose(1, 0, 2).reshape(n_quad, S * V)
    solution = solve_projection(design, rhs, basis, penalty).reshape(-1, S, V)
    return solution[0], solution[1:].transpose(1, 2, 0)


@dataclass(frozen=True, eq=False)
class ProjectedCurves:
    """The kept subjects' pre-smoothed curves, stacked in input order.

    ``offsets`` is (S, V) and ``coeffs`` is (S, V, p): subjects on the first
    axis, the traced ``variables`` on the second.  The cosine span contains
    no constants, so each curve's constant part is estimated jointly with
    its coefficients and carried as its offset; pointwise formulas (like the
    pressure-weighted response) need it, while U and F only see the span.
    """

    subjects: tuple
    variables: tuple
    offsets: np.ndarray
    coeffs: np.ndarray


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


def _screen(track: SubjectTrack, variables: tuple, recipe: RecipeSpec, basis: BasisSystem):
    """One subject's distinct knots and (m, V) values, or why it fails a gate."""
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


def curves_to_basis(
    table: TrajectoryTable, recipe: RecipeSpec, basis: BasisSystem
) -> tuple[ProjectedCurves, IngestReport]:
    """Pre-smooth every gated subject's traced variables onto the basis.

    Subjects failing a gate are skipped with a reason; projection is the
    pre-smoothing step, so the derivative-magnitude gate is evaluated on
    the projected predictor.  Skips are reported in input order.
    """
    variables = table.variables
    kept = []  # (position, subject, knots, values)
    skipped = []  # (position, subject, reason)
    for position, (subject, track) in enumerate(table.subjects.items()):
        screened = _screen(track, variables, recipe, basis)
        if isinstance(screened, str):
            skipped.append((position, subject, screened))
        else:
            kept.append((position, subject, *screened))

    kept_subjects, offsets, coeffs = [], [], []
    for start in range(0, len(kept), BLOCK_SUBJECTS):
        block = kept[start : start + BLOCK_SUBJECTS]
        try:
            block_offsets, block_coeffs = project_with_offset(
                [k[2] for k in block], [k[3] for k in block], basis, penalty=recipe.penalty
            )
        except SingularSystemError as exc:
            skipped += [(position, subject, str(exc)) for position, subject, _, _ in block]
            continue
        finite = np.isfinite(block_coeffs).all(axis=(1, 2))
        steep = np.zeros(len(block), dtype=bool)
        if recipe.derivative_gate is not None:
            predictor = block_coeffs[:, variables.index(recipe.predictor)]
            slopes = basis.deriv_values(basis.quad_nodes, order=1) @ predictor.T
            peaks = np.max(np.abs(slopes), axis=0)
            steep = peaks > recipe.derivative_gate
        keep = []
        for j, (position, subject, _, _) in enumerate(block):
            if not finite[j]:
                skipped.append((position, subject, "coefficients must be finite"))
            elif steep[j]:
                reason = f"|d {recipe.predictor}/dx| peak {float(peaks[j]):.6g} above gate"
                skipped.append((position, subject, reason))
            else:
                keep.append(j)
                kept_subjects.append(subject)
        offsets.append(block_offsets[keep])
        coeffs.append(block_coeffs[keep])
    skipped.sort(key=lambda entry: entry[0])
    V = len(variables)
    curves = ProjectedCurves(
        subjects=tuple(kept_subjects),
        variables=variables,
        offsets=np.concatenate(offsets) if offsets else np.empty((0, V)),
        coeffs=np.concatenate(coeffs) if coeffs else np.empty((0, V, basis.p)),
    )
    report = IngestReport(
        n_in=len(table.subjects),
        n_out=len(kept_subjects),
        skipped=tuple((subject, reason) for _, subject, reason in skipped),
        dropped_rows=table.dropped_rows,
    )
    return curves, report


def build_thermo_dataset(
    curves: ProjectedCurves, recipe: RecipeSpec, basis: BasisSystem
) -> DataSet:
    """Assemble the (U, F) dataset from projected curves, in subject order.

    U holds the predictor coefficients and F the response formula's
    coefficients; with ``recipe.center`` the sample mean coefficient
    vector is subtracted from both.
    """
    if not curves.subjects:
        raise DataError("no subjects survived the gates")
    response = recipe.response
    if not isinstance(response, (IdentityResponse, SpectralResponse, ThermoResponse)):
        raise TypeError(f"unsupported response formula {type(response).__name__}")
    order = sorted(range(len(curves.subjects)), key=curves.subjects.__getitem__)
    U = curves.coeffs[order, curves.variables.index(recipe.predictor)]
    v = curves.variables.index(response.variable)
    coeffs = curves.coeffs[order, v]
    if isinstance(response, IdentityResponse):
        F = coeffs
    elif isinstance(response, SpectralResponse):
        F = np.asarray(response.multipliers) * coeffs
    else:
        # ordinate is log(p), so the pressure weight is exp(x)/p0 pointwise
        weight = (np.exp(basis.quad_nodes) / response.p0) ** (-response.kappa)
        phi = basis.quad_values()
        slopes = basis.deriv_values(basis.quad_nodes, order=1) @ coeffs.T
        values = curves.offsets[order, v] + phi @ coeffs.T
        f_vals = weight[:, None] * (slopes - response.kappa * values)
        F = solve_projection(phi, f_vals, basis, 0.0).T
    if recipe.center:
        U = U - U.mean(axis=0)
        F = F - F.mean(axis=0)
    return DataSet(U=U, F=F, basis=basis)


def save_dataset(data: DataSet, u_path: str, f_path: str) -> None:
    """Write the coefficient matrices as two headed CSV files, CRLF line ends."""
    for path, mat, prefix in ((u_path, data.U, "u"), (f_path, data.F, "f")):
        header = ",".join(f"{prefix}_{k}" for k in range(1, data.p + 1))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            np.savetxt(
                fh, mat, fmt="%.17g", delimiter=",", newline="\r\n", header=header, comments=""
            )


def load_dataset(u_path: str, f_path: str, basis: BasisSystem) -> DataSet:
    """Read a dataset written by :func:`save_dataset`.

    Each file is parsed by one :func:`numpy.loadtxt`; only when that parse
    rejects it does a row-wise scan run, to name the first bad data row.
    """

    def read_matrix(path: str) -> np.ndarray:
        with _open_csv(path) as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path}: empty file")
            try:
                mat = _loadtxt(fh, ndmin=2)
                # np.loadtxt only checks that the rows agree with each other
                if mat is not None and mat.shape[1] != len(header):
                    raise ValueError(f"rows have {mat.shape[1]} fields, the header {len(header)}")
            except ValueError as exc:
                raise _bad_data_row(path, len(header), fh, exc) from exc
        if mat is None:
            raise DataError(f"{path}: no data rows")
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


def _bad_data_row(path: str, width: int, fh, exc: ValueError) -> DataError:
    """The error naming the first data row of ``fh`` that is ragged or holds a non-number."""
    for k, (row, _) in enumerate(_data_records(fh), start=1):
        if len(row) != width:
            return DataError(
                f"{path}: ragged rows: data row {k} has {len(row)} fields, the header {width}"
            )
        try:
            for field in row:
                _check_number(field)
        except ValueError as row_exc:
            return DataError(f"{path}: non-numeric entry in data row {k}: {row_exc}")
    return DataError(f"{path}: {exc}")  # a row csv.reader splits otherwise than np.loadtxt


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
            **asdict(recipe),
            "response": {"type": type(recipe.response).__name__, **vars(recipe.response)},
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
