"""Atomic file writes: every file the package writes appears whole or not at all.

:func:`atomic_open` writes into a temporary file in the target's directory
and moves it over the target with ``os.replace`` only once the writer has
finished. A writer that fails midway leaves the previous file, or no file,
and removes its temporary file. This guards against a failed or interrupted
writer, not against power loss (nothing is fsynced).
"""

from __future__ import annotations

import contextlib
import os
import secrets


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open ``path`` for writing through a temporary file beside it.

    ``mode`` and ``kwargs`` are those of :func:`open` (``"w"`` or ``"wb"``).
    The temporary file is created with the permissions ``open`` would give.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
