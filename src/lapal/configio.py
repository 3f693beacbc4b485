"""File plumbing shared by the checkpoint and curve writers.

All output files are written atomically (temp file + rename) so reruns and
crashes never leave partial artifacts, and every writer here is
byte-deterministic given identical inputs.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))
