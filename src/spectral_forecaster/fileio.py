"""Artifact writes that never leave a half-written file under the final name."""

from __future__ import annotations

import contextlib
import csv
import errno
import os
import stat

import numpy as np


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Open a temp file beside ``path``; on a clean exit, move it over ``path``.

    The temp file lives in the same directory, so ``os.replace`` is one atomic
    rename: a reader sees the old file or the complete new one, never a
    truncated one. If the body raises, the temp file is removed and ``path``
    is left as it was. An existing ``path`` that is not a regular file (a
    FIFO, a device, a socket, a directory) is refused before the temp file
    is made.
    """
    path = os.fspath(path)
    with contextlib.suppress(FileNotFoundError):
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise OSError(errno.EEXIST, "exists and is not a regular file", path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the path the caller asked for, not the temp file beside it
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def write_csv(path, header, rows) -> None:
    """The one CSV dialect of every artifact: ``header``, then ``rows``, each line ended by LF.

    A float cell (numpy floats included) is written as ``repr(float(v))``, so
    it reads back bit for bit; every other cell is written as ``csv`` writes it.
    The file is replaced atomically.
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)
