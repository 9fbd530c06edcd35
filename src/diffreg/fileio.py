"""File access: the one CSV writer and JSON encoder, atomic writes, archive reads."""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
import zlib

import numpy as np

#: what opening or reading a damaged or foreign .npz archive may raise; a
#: member's header may claim any shape, so a failed allocation counts too
UNREADABLE = (OSError, ValueError, EOFError, KeyError, MemoryError, zipfile.BadZipFile, zlib.error)


def csv_bytes(header, columns, float_format: str, newline: str) -> bytes:
    """A headed CSV of ``columns``, formatted with one ``%`` over a row template.

    A column is a (rows,) or (rows, k) array, filling 1 or k fields of each
    row, or None, filling one empty field; at least one is an array.  Int and
    bool columns take ``%d``, so a bool reads 1 or 0, the others
    ``float_format``.  ``newline`` ends each line.  The bytes are those of
    :func:`csv.writer`, which would quote a row of one empty field.
    """
    blocks, fields = [], []
    rows = len(next(col for col in columns if col is not None))
    for col in columns:
        if col is None:
            fields.append("")
            continue
        block = np.asarray(col).reshape(rows, -1)
        fields += ["%d" if block.dtype.kind in "biu" else float_format] * block.shape[1]
        blocks.append(block)
    # an object table holds Python ints, bools and floats, interleaved row by row
    table = blocks[0] if len(blocks) == 1 else np.hstack([b.astype(object) for b in blocks])
    row = ",".join(fields) + newline
    text = ",".join(header) + newline + (row * rows) % tuple(table.ravel().tolist())
    return text.encode("utf-8")


def json_bytes(doc: dict) -> bytes:
    """``doc`` as indented JSON with sorted keys; a NaN or an infinity raises ValueError."""
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def write_atomic(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` so that a reader sees the old file or the whole new one.

    The bytes go to a new file in the same directory, which is then renamed
    over ``path``.  The new file is created as :func:`open` creates one, with
    mode 0o666 less the umask; :func:`tempfile.mkstemp` would make it 0o600.
    """
    folder = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(folder, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def open_npz(path: str):
    """The .npz archive at ``path``, loaded without pickles; None if it is a plain .npy.

    A file that is not such an archive raises one of ``UNREADABLE``.  The
    file is opened here, as :func:`numpy.load` leaves a file it opened
    itself open when the zip is truncated, and closed on every path.
    """
    with open(path, "rb") as fh:
        archive = np.load(fh, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            yield None
            return
        with archive:
            yield archive
