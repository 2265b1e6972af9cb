"""Write output files so that a failed or killed run never leaves half of one.

Every file eprbm writes goes through atomic_write: the text lands in a fresh
temporary file in the target's directory, which replaces the target only
after the whole write has succeeded. The rename is atomic on POSIX and
Windows, so readers see either the old file or the complete new one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path):
    """Open a text file that becomes path only when the with block succeeds.

    If the block raises, path keeps its old contents (or stays absent) and
    the temporary file is removed. The new file gets the permissions open()
    would give path: an existing target's, else those of a fresh file. It is
    opened with newline="", so lines end as written, on every platform.
    """
    head, tail = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, "x", newline="")
    except FileNotFoundError as err:
        # name the target, not the temporary file, when its directory is missing
        raise FileNotFoundError(err.errno, err.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        with suppress(FileNotFoundError):
            os.chmod(temp, os.stat(path).st_mode & 0o7777)
        os.replace(temp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(temp)
        raise


def write_json(path, payload) -> None:
    """Write payload to path through atomic_write as JSON indented by 2, with
    a final newline. A NaN or infinity raises ValueError rather than land in
    the file as a constant that standard JSON readers refuse."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
