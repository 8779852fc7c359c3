"""Framing shared by checkpoints and shards: a 4-byte magic, a little-endian u32
version, then fields read front to back by a bounds-checked ``Reader``. Both
are written through ``atomic_writer``, so a failed write never leaves a torn
file under the final name."""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError


@contextlib.contextmanager
def atomic_writer(path: str | Path, magic: bytes, version: int):
    """Yield a temp file beside ``path`` with the header written. A clean exit
    ``os.replace``s ``path`` with it; an error removes it and leaves ``path`` as
    it was. There is no fsync: this guards against a writer failing mid-file,
    not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(magic + struct.pack("<I", version))
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Reader:
    """Reads a whole file once; a wrong magic or version raises ``FormatError``, a
    field past the end or left-over bytes ``CorruptionError`` with the byte offset."""

    def __init__(self, path: str | Path, magic: bytes, version: int, kind: str):
        self.path = path
        self.blob = Path(path).read_bytes()
        self.off = 0
        if self.take(4, "magic") != magic:
            raise FormatError(f"{path}: not a {kind} file")
        found = self.unpack("<I", "version")[0]
        if found != version:
            raise FormatError(f"{path}: unsupported {kind} version {found}")

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise CorruptionError(f"{self.path}: truncated {what} at byte offset {self.off}", offset=self.off)
        self.off += n
        return self.blob[self.off - n : self.off]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def parse(self, n: int, what: str, convert):
        """``convert`` the next ``n`` bytes; a ``ValueError`` becomes a named offset."""
        at = self.off
        try:
            return convert(self.take(n, what))
        except ValueError:  # bad UTF-8 or JSON, or extents numpy cannot hold
            raise CorruptionError(f"{self.path}: malformed {what} at byte offset {at}", offset=at) from None

    def array(self, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A writable copy of the next array of ``dtype`` and ``shape``."""
        return self.parse(math.prod(shape) * np.dtype(dtype).itemsize, what,
                          lambda raw: np.frombuffer(raw, dtype=dtype).reshape(shape).copy())

    def finish(self) -> None:
        if self.off != len(self.blob):
            raise CorruptionError(f"{self.path}: {len(self.blob) - self.off} trailing bytes", offset=self.off)
