"""Bilinear grid resampling shared by positional-table interpolation and crops."""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=256)
def _taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lower/upper source indices and the weights of each along one axis."""
    # endpoint-aligned sampling: identity when n_in == n_out
    if n_out == 1:
        pos = np.array([(n_in - 1) / 2.0])
    else:
        pos = np.arange(n_out, dtype=np.float64) * ((n_in - 1) / (n_out - 1))
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    w = pos - lo
    taps = (lo, hi, 1.0 - w, w)
    for arr in taps:  # shared by every caller through the cache
        arr.flags.writeable = False
    return taps


def bilinear_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample the last two axes of ``arr`` to (out_h, out_w)."""
    h, w = arr.shape[-2:]
    y0, y1, wy0, wy1 = _taps(h, out_h)
    x0, x1, wx0, wx1 = _taps(w, out_w)
    src = arr.astype(np.float64, copy=False)
    # separable: interpolate along x on every source row, then along y
    rows = src[..., x0] * wx0 + src[..., x1] * wx1
    out = rows[..., y0, :] * wy0[:, None] + rows[..., y1, :] * wy1[:, None]
    return out.astype(arr.dtype, copy=False)
