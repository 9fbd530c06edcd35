"""Atomic file writes, shared by the kernel cache and the dataset writer."""

from __future__ import annotations

import os


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
