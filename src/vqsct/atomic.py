"""The file layer: atomic writes, the framed container and JSON records.

:func:`atomic_open` writes into a temporary file in the target's directory
and moves it over the target with ``os.replace`` only once the writer has
finished. A writer that fails midway leaves the previous file, or no file,
and removes its temporary file. This guards against a failed or interrupted
writer, not against power loss (nothing is fsynced).

``.vqck`` and ``.mvol`` files share one container, which
:func:`write_framed` and :func:`read_framed` own: magic, u32 little-endian
header length, compact JSON header object, payload. :func:`write_json`
writes every JSON record as one line of compact JSON.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

from .errors import FormatError


def _naming(exc: OSError, path: str) -> OSError:
    """``exc`` naming ``path`` alone; the same errno keeps the OSError subclass."""
    return OSError(exc.errno, exc.strerror, path)


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open ``path`` for writing through a temporary file beside it.

    ``mode`` and ``kwargs`` are those of :func:`open` (``"w"`` or ``"wb"``).
    The temporary file is created with the permissions ``open`` would give.
    A failure to create it or to move it over ``path`` raises an OSError
    that names ``path``, not the temporary file.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with open(fd, mode, **kwargs) as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _naming(exc, path) from None
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def write_framed(path, magic: bytes, header: dict, chunks) -> None:
    """Atomically write the container; ``chunks`` yields the payload piece by piece."""
    header_bytes = _compact(header).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for chunk in chunks:
            fh.write(chunk)


def read_framed(path, magic: bytes, kind: str):
    """``(header dict, payload memoryview)`` of a file; faults raise FormatError "not <kind>"."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(magic) + 4

    def fault(reason):
        return FormatError(f"{path}: not {kind} ({reason})")

    if len(blob) < start or blob[:len(magic)] != magic:
        raise fault("bad magic")
    end = start + struct.unpack_from("<I", blob, len(magic))[0]
    if end > len(blob):
        raise fault("truncated header")
    try:
        header = json.loads(blob[start:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad text or JSON, or nested too deep
        raise fault(f"invalid header JSON: {exc}") from None
    if not isinstance(header, dict):
        raise fault("header is not a JSON object")
    return header, memoryview(blob)[end:]


def write_json(path, value) -> str:
    """Atomically write ``value`` as one line of compact JSON; return that line."""
    text = _compact(value)
    with atomic_open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def is_json_int(value) -> bool:
    """A JSON integer; a bool is none, although Python counts it as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    """A JSON number, integer or float; a bool is none."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
