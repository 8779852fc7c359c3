"""Binary checkpoint files: model tensors, optimizer state, scalar metadata.

Layout (little-endian): magic "CFCK", u32 version, u64 metadata length +
UTF-8 JSON, then two tables (model tensors as float32, optimizer arrays as
float64), each: u32 entry count followed by [u16 name length, name bytes,
u8 dtype code, u8 ndim, u32 dims...] rows, then all payloads in table order.
Names are written sorted, so save -> load -> save is byte-identical. The
magic/version framing and every bounds check come from ``binfile.Reader``,
which shards share: a truncated or malformed file raises ``CorruptionError``
with a byte offset, a wrong magic or version ``FormatError``. A checkpoint is
written to a temp file that replaces ``path`` only once it is complete.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binfile import Reader, atomic_writer
from .errors import CorruptionError

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
    tensors = {k: np.asarray(v, dtype=np.float32) for k, v in ckpt.tensors.items()}
    optim = {k: np.asarray(v, dtype=np.float64) for k, v in ckpt.optimizer.items()}
    meta = json.dumps(ckpt.metadata, sort_keys=True).encode("utf-8")
    with atomic_writer(path, MAGIC, VERSION) as f:
        f.write(struct.pack("<Q", len(meta)))
        f.write(meta)
        model_names = _write_table(f, tensors)
        opt_names = _write_table(f, optim)
        for name in model_names:
            f.write(tensors[name].tobytes())
        for name in opt_names:
            f.write(optim[name].tobytes())


def _read_table(r: Reader) -> list[tuple[str, type, tuple[int, ...]]]:
    entries = []
    for _ in range(r.unpack("<I", "table size")[0]):
        name = r.parse(r.unpack("<H", "name length")[0], "name", bytes.decode)
        code, ndim = r.unpack("<BB", "dtype/ndim")
        if code not in _DTYPES:
            raise CorruptionError(f"{r.path}: unknown dtype code {code}", offset=r.off)
        entries.append((name, _DTYPES[code], r.unpack(f"<{ndim}I", "shape")))
    return entries


def load_checkpoint(path: str | Path) -> Checkpoint:
    r = Reader(path, MAGIC, VERSION, "checkpoint")
    metadata = r.parse(r.unpack("<Q", "metadata length")[0], "metadata",
                       lambda raw: json.loads(raw.decode("utf-8")))
    model_entries, opt_entries = _read_table(r), _read_table(r)
    tensors = {name: r.array(dtype, shape, f"payload of {name}") for name, dtype, shape in model_entries}
    optim = {name: r.array(dtype, shape, f"payload of {name}") for name, dtype, shape in opt_entries}
    r.finish()
    return Checkpoint(tensors, optim, metadata)
