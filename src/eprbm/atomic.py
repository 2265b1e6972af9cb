"""Write output files so that a failed or killed run never leaves half of one.

Every file eprbm writes goes through atomic_write: the text lands in a fresh
temporary file in the target's directory, which replaces the target only
after the whole write has succeeded. The rename is atomic on POSIX and
Windows, so readers see either the old file or the complete new one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Open a text file that becomes path only when the with block succeeds.

    If the block raises, path keeps its old contents (or stays absent) and
    the temporary file is removed. The temporary file is created with the
    permissions open() would give path.
    """
    head, tail = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, "x", newline=newline)
    except FileNotFoundError as err:
        # name the target, not the temporary file, when its directory is missing
        raise FileNotFoundError(err.errno, err.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(temp)
        raise
