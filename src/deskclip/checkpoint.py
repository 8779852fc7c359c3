"""Binary checkpoint files: model tensors, optimizer state, scalar metadata.

Layout (little-endian): magic "CFCK", u32 version, u64 metadata length +
UTF-8 JSON, then two tables (model tensors as float32, optimizer arrays as
float64), each: u32 entry count followed by [u16 name length, name bytes,
u8 dtype code, u8 ndim, u32 dims...] rows, then all payloads in table order.
Names are written sorted, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError

MAGIC = b"CFCK"
VERSION = 1

_DTYPES = {0: np.float32, 1: np.float64}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    optimizer: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def _write_table(f, arrays: dict[str, np.ndarray]) -> list[str]:
    names = sorted(arrays)
    f.write(struct.pack("<I", len(names)))
    for name in names:
        arr = arrays[name]
        raw = name.encode("utf-8")
        f.write(struct.pack("<H", len(raw)))
        f.write(raw)
        f.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    return names


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    tensors = {k: np.ascontiguousarray(v, dtype=np.float32) for k, v in ckpt.tensors.items()}
    optim = {k: np.ascontiguousarray(v, dtype=np.float64) for k, v in ckpt.optimizer.items()}
    meta = json.dumps(ckpt.metadata, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(meta)))
        f.write(meta)
        model_names = _write_table(f, tensors)
        opt_names = _write_table(f, optim)
        for name in model_names:
            f.write(tensors[name].tobytes())
        for name in opt_names:
            f.write(optim[name].tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    blob = Path(path).read_bytes()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise CorruptionError(f"{path}: truncated {what} at byte offset {off}", offset=off)
        out = blob[off : off + n]
        off += n
        return out

    def parse(n, what, convert):
        at = off
        raw = take(n, what)
        try:
            return convert(raw)
        except ValueError:  # bad UTF-8 or JSON, or extents numpy cannot hold
            raise CorruptionError(f"{path}: malformed {what} at byte offset {at}", offset=at) from None

    if take(4, "magic") != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version = struct.unpack("<I", take(4, "version"))[0]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    meta_len = struct.unpack("<Q", take(8, "metadata length"))[0]
    metadata = parse(meta_len, "metadata", lambda raw: json.loads(raw.decode("utf-8")))

    def read_table():
        count = struct.unpack("<I", take(4, "table size"))[0]
        entries = []
        for _ in range(count):
            name_len = struct.unpack("<H", take(2, "name length"))[0]
            name = parse(name_len, "name", bytes.decode)
            code, ndim = struct.unpack("<BB", take(2, "dtype/ndim"))
            if code not in _DTYPES:
                raise CorruptionError(f"{path}: unknown dtype code {code}", offset=off)
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
            entries.append((name, _DTYPES[code], shape))
        return entries

    model_entries = read_table()
    opt_entries = read_table()

    def read_payloads(entries):
        out = {}
        for name, dtype, shape in entries:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            out[name] = parse(nbytes, f"payload of {name}",
                              lambda raw: np.frombuffer(raw, dtype=dtype).reshape(shape).copy())
        return out

    tensors = read_payloads(model_entries)
    optim = read_payloads(opt_entries)
    if off != len(blob):
        raise CorruptionError(f"{path}: {len(blob) - off} trailing bytes", offset=off)
    return Checkpoint(tensors, optim, metadata)
