"""Artifact writes that never leave a half-written file under the final name."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Open a temp file beside ``path``; on a clean exit, move it over ``path``.

    The temp file lives in the same directory, so ``os.replace`` is one atomic
    rename: a reader sees the old file or the complete new one, never a
    truncated one. If the body raises, the temp file is removed and ``path``
    is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
