"""The one writer of every file emocue writes, the one framing of its
binary files, and the read-only array helper of every module above it.

replace writes a file through <path>.tmp and one os.replace, so an
interrupted write leaves the previous file whole. A binary file is 8 bytes
of magic (the kind of file and its format version), a little-endian uint64
header length, a JSON header and a little-endian payload laid out as the
header says.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import struct

import numpy as np

from .errors import CorruptFileError, UnsupportedFormatError


def replace(path, chunks) -> None:
    """Replace the file at path with the chunks, bytes or str (written as
    UTF-8), in order. Chunks may be made lazily: if one raises, the
    previous file stays as it was and no <path>.tmp is left."""
    temp = f"{path}.tmp"
    try:
        with open(temp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str)
                         else chunk)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def readonly(a, dtype=np.float64) -> np.ndarray:
    """a as a C-contiguous, read-only array of dtype (None keeps a's).

    A writeable array that needs no conversion is copied, so the caller's
    array keeps its flags and a later write to it changes nothing here; a
    read-only one, such as a decoded payload slice, is kept as it is. A
    function handing out an array it has just built makes it read-only in
    place (setflags) rather than call this.
    """
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.flags.writeable and (out is a or out.base is not None):
        out = out.copy()
    out.setflags(write=False)
    return out


def write(path, magic: bytes, header: dict, payload) -> None:
    """Write header and the byte chunks of payload under magic to path."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    replace(path, itertools.chain(
        (magic, struct.pack("<Q", len(head)), head), payload))


class Payload:
    """Reads a container's payload in order, refusing to run past its end."""

    def __init__(self, fh, path, kind: str, size: int):
        self._fh, self._path, self._kind, self._size = fh, path, kind, size

    def take(self, count: int) -> bytes:
        at = self._fh.tell()
        if not 0 <= count <= self._size - at:
            raise CorruptFileError(
                f"{self._path}: {self._kind} is truncated: {count} bytes "
                f"needed at offset {at}, file has {self._size}")
        return self._fh.read(count)

    def array(self, count: int, dtype="<f8") -> np.ndarray:
        """The next count items as a read-only array."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(count * dtype.itemsize), dtype)


def read(path, magic: bytes, kind: str, parse):
    """parse(header, payload) of the container at path.

    Another magic raises UnsupportedFormatError. A file cut short, bytes
    left after the parse, or a parse that raises AttributeError, KeyError,
    IndexError, TypeError or ValueError raise CorruptFileError naming path.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(magic)) != magic:
            raise UnsupportedFormatError(f"{path}: not a {kind} file")
        payload = Payload(fh, path, kind, size)
        (head_len,) = struct.unpack("<Q", payload.take(8))
        try:
            header = json.loads(payload.take(head_len))
            if not isinstance(header, dict):
                raise TypeError("header is not a JSON object")
            result = parse(header, payload)
        except (AttributeError, KeyError, IndexError, TypeError,
                ValueError) as exc:
            detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise CorruptFileError(f"{path}: malformed {kind}: "
                                   f"{detail}") from exc
        if fh.tell() != size:
            raise CorruptFileError(f"{path}: {kind} has {size - fh.tell()} "
                                   f"bytes after its last array")
        return result
