"""File access shared by the kernel cache and the dataset files: atomic writes, archive reads."""

from __future__ import annotations

import contextlib
import os
import zipfile
import zlib

import numpy as np

#: what opening or reading a damaged or foreign .npz archive may raise; a
#: member's header may claim any shape, so a failed allocation counts too
UNREADABLE = (OSError, ValueError, EOFError, KeyError, MemoryError, zipfile.BadZipFile, zlib.error)


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
