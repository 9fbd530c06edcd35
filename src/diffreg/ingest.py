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
schema's variables, sorted by ordinate.  A file whose rows already come in
that order, by subject name and then by ordinate, is not sorted again.
The gates run once over the concatenated samples of all subjects, one
boolean mask per gate; at a repeated ordinate the sample that comes first
in the file is kept.  The kept samples stay laid end to end, and subjects
that pass are pre-smoothed in blocks of ``BLOCK_SUBJECTS``: one call
resamples a block's curves onto the quadrature grid, gathering one block
of knots and values per knot count for one vectorized spline, and one
projection solve takes every curve of the block as a column of its
right-hand side.  The finite-coefficient and derivative gates and the
thermo response are one pass each over the stacked coefficients.  Blocks
bound the size of the stacked arrays; the kept curves are (S, V) offsets
and (S, V, p) coefficients.

CSV files are read in bulk, one :func:`numpy.loadtxt` per file, and a
row-wise scan runs only when a parse rejects a file, to say which row is
malformed.  Each dataset CSV is written from one ``%``-format of its whole
matrix, which gives the bytes :func:`numpy.savetxt` would.  A leading
UTF-8 byte-order mark is dropped on reading.

A dataset's U.csv and F.csv stay its only source of truth.  Beside each
one, :func:`save_dataset` writes a binary sidecar ``<csv>.npz`` holding the
matrix and the sha256 of the CSV bytes, and :func:`load_dataset` takes the
matrix from it, skipping the parse, only while that digest matches the CSV
it has just read.  Any other sidecar is ignored.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .basis import BasisSystem, DataSet, resample_to_quad_grid, solve_projection
from .errors import DataError
from .fileio import UNREADABLE, csv_bytes, json_bytes, open_npz, write_atomic

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


#: the suffix :func:`save_dataset` appends to a CSV path to name its sidecar
SIDECAR_SUFFIX = ".npz"


@contextlib.contextmanager
def _csv_text(path: str, stream):
    """The binary ``stream`` of CSV ``path`` read as UTF-8 text, as :func:`open` reads a file.

    A leading byte-order mark, as spreadsheet "CSV UTF-8" exports write, is
    dropped.  Bytes that do not decode are a DataError naming the file.
    """
    try:
        with io.TextIOWrapper(stream, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:  # a ValueError: a parse's handler may re-read first
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def load_trajectories(path: str, schema: TableSchema, lenient: bool = False) -> TrajectoryTable:
    """Parse a trajectory CSV into per-subject tracks.

    Rows with missing or non-numeric fields raise a parse error naming the
    row's first line in the file, or are dropped and counted when
    ``lenient`` is set.  Blank lines are skipped and not counted as dropped.

    The file is parsed in one pass by :func:`numpy.loadtxt`, with the
    subject column as Python strings and the value columns as floats.
    Only when that parse rejects the file does a row-wise scan run, to name
    the first malformed row or to drop the malformed rows before parsing
    the rest again.
    """
    columns = (schema.subject, schema.ordinate, *schema.variables)
    with _csv_text(path, open(path, "rb")) as fh:
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
            for lineno, row, text in _data_records(fh):
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
    # ordinate; rows at a repeated ordinate stay in file order.  Rows already
    # in that order skip it (a NaN ordinate fails the check); either way the
    # values are copied out of the parse's record array, which can then go
    step, x = np.diff(inverse), values[:, 0]
    if np.all((step > 0) | ((step == 0) & (x[1:] >= x[:-1]))):
        values = values.copy()
    else:
        values = values[np.lexsort((x, inverse))]
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
    """Each non-blank CSV record after the header of ``fh``, as (the number of its
    first line, its fields, its source lines).

    Reads the file again from its start.  Lines are numbered from 1, blank
    lines and every line of a multi-line quoted field counted.
    """
    fh.seek(0)
    lines = fh.readlines()
    reader = csv.reader(lines)
    next(reader, None)
    start = reader.line_num
    for row in reader:
        if row:
            yield start + 1, row, "".join(lines[start : reader.line_num])
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

    Rows of one subject usually come in runs, so only the run heads are
    looked at: each is coded through a dict of the distinct names, and only
    those are sorted.  The time is linear in the runs, also for a shuffled
    file, whose every row is a run.
    """
    heads = np.flatnonzero(np.concatenate(([True], labels[1:] != labels[:-1])))
    runs = labels[heads].tolist()
    names = sorted(set(runs))
    code = dict(zip(names, range(len(names))))
    inverse = np.fromiter(map(code.__getitem__, runs), np.intp, len(runs))
    return np.array(names, dtype=object), np.repeat(inverse, np.diff(np.append(heads, labels.size)))


def project_with_offset(x, y, starts, sizes, basis: BasisSystem, penalty: float = 0.0):
    """Least squares over span{1, phi_1..phi_p} on the quadrature grid.

    ``x`` (N,) and ``y`` (N, V) hold the knots and values of every curve
    laid end to end; curve s is the ``sizes[s]`` rows from ``starts[s]``,
    as :func:`~diffreg.basis.resample_to_quad_grid` takes them.  Returns the
    offsets (S, V) and the span coefficients (S, V, p) of the S curves, from
    one resampling call and one solve.
    """
    grid = resample_to_quad_grid(x, y, starts, sizes, basis)
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


def curves_to_basis(
    table: TrajectoryTable, recipe: RecipeSpec, basis: BasisSystem
) -> tuple[ProjectedCurves, IngestReport]:
    """Pre-smooth every gated subject's traced variables onto the basis.

    A subject is skipped with the reason of the first gate it fails, in
    this order: a non-finite ordinate; the start gate on its smallest and
    the end gate on its largest ordinate; samples that do not cover
    ``recipe.interval``; fewer than p distinct ordinates; samples that do
    not cover the basis quadrature span; a non-finite value.  At a
    repeated ordinate only the first sample counts.  Projection is the
    pre-smoothing step, so the last two gates, finite coefficients and the
    predictor's derivative magnitude, run on the projected curves.  Skips
    are reported in input order.
    """
    variables = table.variables
    names = list(table.subjects)
    tracks = table.subjects.values()
    sizes = np.array([track.ordinate.size for track in tracks])
    starts = np.cumsum(sizes) - sizes
    x = np.concatenate([track.ordinate for track in tracks])
    y = np.concatenate([track.samples for track in tracks])
    # tracks are sorted, so each subject's ends are its extremes and the
    # first sample of each run of equal ordinates is the one kept
    lo, hi = x[starts], x[starts + sizes - 1]
    first = np.append(True, x[1:] != x[:-1])
    first[starts] = True
    distinct = np.add.reduceat(first, starts)
    finite = np.logical_and.reduceat(np.isfinite(y) | ~first[:, None], starts)
    alive = np.ones(len(names), dtype=bool)
    reasons = {}

    def skip(mask: np.ndarray, reason) -> None:
        """Skip each subject still alive in ``mask``, for the text ``reason(position)``."""
        for position in np.flatnonzero(mask & alive).tolist():
            reasons[position] = reason(position)
        alive[mask] = False

    a, b = recipe.interval
    span, slack = basis.quad_nodes[[0, -1]], 1e-9 * basis.length
    skip(~np.logical_and.reduceat(np.isfinite(x), starts), lambda i: "non-finite ordinate sample")
    gates = ((recipe.start_gate, lo, "smallest", "start"), (recipe.end_gate, hi, "largest", "end"))
    for gate, edge, extreme, side in gates:
        if gate is not None:
            skip(~((gate[0] < edge) & (edge < gate[1])),
                 lambda i: f"{extreme} ordinate {edge[i]:.6g} outside {side} gate")
    skip((lo > a) | (hi < b), lambda i: f"samples cover [{lo[i]:.6g}, {hi[i]:.6g}], not [{a}, {b}]")
    skip(distinct < basis.p, lambda i: f"{distinct[i]} distinct ordinates < p = {basis.p}")
    # values are only ever needed at the quadrature nodes, so coverage of
    # their span guarantees the interpolant never extrapolates
    skip((lo > span[0] + slack) | (hi < span[1] - slack),
         lambda i: f"samples cover [{lo[i]:.6g}, {hi[i]:.6g}], short of the quadrature span "
         f"[{span[0]:.6g}, {span[1]:.6g}]")
    skip(~finite.all(axis=1), lambda i: f"non-finite {variables[np.argmin(finite[i])]} sample")
    kept = np.flatnonzero(alive)
    rows = first & np.repeat(alive, sizes)
    knots, values, counts = x[rows], y[rows], distinct[kept]
    heads = np.cumsum(counts) - counts
    blocks = [(np.empty((0, len(variables))), np.empty((0, len(variables), basis.p)))]
    for start in range(0, kept.size, BLOCK_SUBJECTS):
        block = slice(start, start + BLOCK_SUBJECTS)
        blocks.append(project_with_offset(
            knots, values, heads[block], counts[block], basis, recipe.penalty
        ))
    offsets, coeffs = (np.concatenate(parts) for parts in zip(*blocks))
    broken = np.zeros(len(names), dtype=bool)
    broken[kept] = ~np.isfinite(coeffs).all(axis=(1, 2))
    skip(broken, lambda i: "coefficients must be finite")
    if recipe.derivative_gate is not None:
        predictor = coeffs[:, variables.index(recipe.predictor)]
        slopes = basis.deriv_values(basis.quad_nodes, order=1) @ predictor.T
        peaks = np.zeros(len(names))
        peaks[kept] = np.max(np.abs(slopes), axis=0)
        skip(peaks > recipe.derivative_gate,
             lambda i: f"|d {recipe.predictor}/dx| peak {peaks[i]:.6g} above gate")
    keep = alive[kept]
    subjects = tuple(itertools.compress(names, alive.tolist()))
    skipped = tuple((names[i], reasons[i]) for i in sorted(reasons))
    return (
        ProjectedCurves(subjects, variables, offsets[keep], coeffs[keep]),
        IngestReport(len(names), len(subjects), skipped, table.dropped_rows),
    )


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
        # ordinate is log(p), so the pressure weight (exp(x)/p0)^-kappa is
        # exp(-kappa (x - log p0)); math.exp per node, as numpy's SIMD exp and
        # power round differently at each CPU dispatch level
        log_p0 = math.log(response.p0)
        weight = np.array([math.exp(-response.kappa * (x - log_p0)) for x in basis.quad_nodes])
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
    """Write the coefficient matrices as two headed CSV files, CRLF line ends, with sidecars.

    Each CSV is formatted once in memory and written, then its sidecar
    ``<csv>.npz``: an uncompressed :func:`numpy.savez` archive holding the
    matrix as ``values`` and the sha256 of the CSV bytes as ``sha256``.  Both
    are written with :func:`~diffreg.fileio.write_atomic`.  ``%.17g``
    round-trips every double, so the sidecar holds the matrix the CSV parses
    to, bit for bit.
    """
    for path, mat, prefix in ((u_path, data.U, "u"), (f_path, data.F, "f")):
        header = [f"{prefix}_{k}" for k in range(1, data.p + 1)]
        payload = csv_bytes(header, [mat], "%.17g", "\r\n")
        write_atomic(path, payload)
        sidecar = io.BytesIO()
        np.savez(sidecar, values=mat, sha256=np.array(hashlib.sha256(payload).hexdigest()))
        write_atomic(path + SIDECAR_SUFFIX, sidecar.getvalue())


def load_dataset(u_path: str, f_path: str, basis: BasisSystem) -> DataSet:
    """Read a dataset written by :func:`save_dataset`, or any pair of headed numeric CSVs.

    Each CSV is read once, as bytes.  Its matrix comes from the sidecar
    ``<csv>.npz`` when that holds the sha256 of exactly these bytes and a
    finite 2-D float64 matrix with at least one row and as many columns as
    the CSV header.  Any other sidecar, stale, foreign, truncated or
    unreadable, is ignored, and so is a missing one: the bytes are then
    parsed by one :func:`numpy.loadtxt`, and only when that parse rejects
    them does a row-wise scan run, to name the first bad data row.
    """

    def read_matrix(path: str) -> np.ndarray:
        with open(path, "rb") as fh:
            raw = fh.read()
        with _csv_text(path, io.BytesIO(raw)) as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path}: empty file")
            mat = _sidecar_matrix(path, raw, len(header))
            if mat is not None:
                return mat
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


def _sidecar_matrix(path: str, raw: bytes, width: int) -> np.ndarray | None:
    """The matrix of CSV ``path``'s sidecar if it was written for the bytes ``raw``, else None.

    It must also be a finite 2-D float64 matrix with at least one row and
    ``width`` columns.  A sidecar that cannot be read is None too.
    """
    try:
        with open_npz(path + SIDECAR_SUFFIX) as archive:
            if archive is None or str(archive["sha256"]) != hashlib.sha256(raw).hexdigest():
                return None
            mat = archive["values"]
    except UNREADABLE:
        return None
    usable = mat.dtype == np.float64 and mat.ndim == 2 and mat.shape[0] >= 1
    return mat if usable and mat.shape[1] == width and np.isfinite(mat).all() else None


def _bad_data_row(path: str, width: int, fh, exc: ValueError) -> DataError:
    """The error naming the first data row of ``fh`` that is ragged or holds a non-number."""
    for k, (_, row, _) in enumerate(_data_records(fh), start=1):
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
    """JSON provenance for an ingested dataset, as strict JSON: a non-finite value raises."""
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
    payload = json_bytes(doc)  # raises on a NaN or an infinity before the file is opened
    with open(path, "wb") as fh:
        fh.write(payload)
