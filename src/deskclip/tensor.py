"""Dense tensors with reverse-mode automatic differentiation.

Storage is 32-bit by default, and every op computes in its tensors' storage
dtype: float32 matrix products run as sgemm, and elementwise work (GELU and
its rational ``erf``, LayerNorm, softmax) stays in float32. Only row and
column statistics accumulate in 64-bit before a single cast back: sums and
means, LayerNorm moments, softmax denominators, row norms and the LayerNorm
gain/bias gradient sums. Tensors may also be created as float64, in which
case ops stay in float64 end to end (GELU through ``scipy.special.erf``); the
finite-difference oracle uses this mode. An op's tensors share one dtype: an
op given a float32 and a float64 tensor raises ``ContractError``. A Python
number met by ``*`` takes the dtype of the tensor it multiplies.

A linear layer is one node (one 2-D product, bias added in place), and so
are the contrastive head's ops: ``l2_normalize_rows`` (squares summed in
64-bit, ``sqrt``, divide) and ``cross_entropy`` (the mean negative
log-softmax at integer targets, whose backward is ``(softmax - onehot) * g /
rows``). GELU runs in one chunked pass that allocates only its output and,
when backward will run, the erf values it reuses. An op writes only into
arrays it allocated itself, never into an incoming gradient (``add`` hands
the same one to both inputs) or an input's data.

The graph is a tape of closures: each op attaches the producing inputs and a
backward rule to its output. Every tensor carries a creation number, and an
op's output is always newer than its inputs. ``backward`` walks the reachable
subgraph once, newest node first, so a node is visited after every consumer
has passed it its gradient. It accumulates gradients additively on the leaves
(tensors that require gradients but were not produced by an op); intermediate
tensors keep ``grad`` as ``None``. A leaf's first gradient is stored as
received, with no copy: nothing writes into a gradient array.

A graph is walked once: ``backward`` drops each node's inputs and rule as
soon as the rule has run, freeing the arrays the forward saved as it goes, and
reaching a consumed node again raises ``ContractError``. Leaves are never
consumed, so their gradients keep accumulating across graphs.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import sys
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True
_creation = itertools.count()  # creation numbers; backward visits the newest pending node first


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional array of reals participating in the autodiff graph.

    Immutable after creation except for ``grad`` accumulation and explicit
    parameter updates performed by an optimizer between steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else np.float32)
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] | None = ()  # None once backward consumed the node
        self._backward: Callable | None = None
        self._seq = next(_creation)

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))


def _as_tensor(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=like.data.dtype)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable | None) -> Tensor:
    for p in parents:
        if p.data.dtype != data.dtype:
            op = sys._getframe(1).f_code.co_name  # the op that called _make
            raise ContractError(f"{op}: an op's tensors share one dtype, got {p.data.dtype} and {data.dtype}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._seq = next(_creation)
    if _grad_enabled and backward is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:  # the leading axes sum as one flattened axis, as a 2-D product's rows would
        grad = grad.reshape((-1,) + grad.shape[extra:]).sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise ops -------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,))


# Rational minimax erf for float32 (Eigen's ``generic_fast_erf_float``):
# erf(x) = x * P(x^2) / Q(x^2) on [-4, 4], where float32 erf is already +-1.
# Coefficients are listed highest degree first for Horner evaluation.
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))
_BLOCK = 1 << 16  # elements per chunk of the GELU loops; the temporaries stay in L2


def _erf_chunk(src: np.ndarray, xc: np.ndarray, x2: np.ndarray, q: np.ndarray, out: np.ndarray) -> None:
    """Write ``erf(src)`` into ``out``; ``xc``, ``x2`` and ``q`` are scratch (``xc`` may be ``src``)."""
    np.maximum(src, np.float32(-4.0), out=xc)
    np.minimum(xc, np.float32(4.0), out=xc)
    np.multiply(xc, xc, out=x2)
    np.multiply(x2, _ERF_P[0], out=out)
    for c in _ERF_P[1:-1]:
        out += c
        out *= x2
    out += _ERF_P[-1]
    out *= xc
    np.multiply(x2, _ERF_Q[0], out=q)
    for c in _ERF_Q[1:-1]:
        q += c
        q *= x2
    q += _ERF_Q[-1]
    np.divide(out, q, out=out)


def _chunks(size: int):
    """``(lo, hi)`` bounds of the ``_BLOCK``-element chunks covering ``size`` elements."""
    return ((lo, min(lo + _BLOCK, size)) for lo in range(0, size, _BLOCK))


def erf_f32(x: np.ndarray) -> np.ndarray:
    """float32 ``erf`` within 5e-7 of the exact value; NaN propagates."""
    flat = np.ascontiguousarray(x, dtype=np.float32).reshape(-1)
    out = np.empty_like(flat)
    xc_buf, x2_buf, q_buf = (np.empty(min(flat.size, _BLOCK), np.float32) for _ in range(3))
    for lo, hi in _chunks(flat.size):
        n = hi - lo
        _erf_chunk(flat[lo:hi], xc_buf[:n], x2_buf[:n], q_buf[:n], out[lo:hi])
    return out.reshape(np.shape(x))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    if x.dtype == np.float32:
        # one chunked pass: scale, erf and 0.5 * x * (1 + erf) per chunk, so
        # only the output and, when backward will run, the erf values it reuses
        # are full size
        flat = np.ascontiguousarray(x).reshape(-1)
        data = np.empty_like(flat)
        keep = _grad_enabled and a.requires_grad
        chunk = min(flat.size, _BLOCK)
        inner = np.empty_like(flat) if keep else np.empty(chunk, np.float32)
        xc_buf, x2_buf, q_buf = (np.empty(chunk, np.float32) for _ in range(3))
        for lo, hi in _chunks(flat.size):
            n = hi - lo
            xs, xc, x2, d = flat[lo:hi], xc_buf[:n], x2_buf[:n], data[lo:hi]
            e = inner[lo:hi] if keep else inner[:n]
            np.multiply(xs, np.float32(_INV_SQRT2), out=xc)
            _erf_chunk(xc, xc, x2, q_buf[:n], e)
            np.add(e, 1.0, out=x2)
            np.multiply(xs, 0.5, out=d)
            d *= x2
        inner, data = inner.reshape(x.shape) if keep else None, data.reshape(x.shape)
    else:
        inner = erf(x * _INV_SQRT2)
        data = 0.5 * x * (1.0 + inner)

    def backward(g):
        # d/dx = Phi(x) + x * pdf(x), with Phi taken from the forward's erf;
        # chunked like erf_f32 so the temporaries stay in cache
        xf, ef = x.reshape(-1), inner.reshape(-1)
        gf = np.ascontiguousarray(g).reshape(-1)
        out = np.empty_like(ef)
        pdf_buf = np.empty(min(xf.size, _BLOCK), x.dtype)
        for lo, hi in _chunks(xf.size):
            xs, pdf, local = xf[lo:hi], pdf_buf[: hi - lo], out[lo:hi]
            np.multiply(xs, xs, out=pdf)
            pdf *= -0.5
            np.exp(pdf, out=pdf)
            pdf *= xs
            pdf *= 1.0 / math.sqrt(2.0 * math.pi)
            np.multiply(ef[lo:hi], 0.5, out=local)
            local += 0.5
            local += pdf
            local *= gf[lo:hi]
        return (out.reshape(x.shape),)

    return _make(data, (a,), backward)


# -- shape ops ---------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = np.ascontiguousarray(a.data.reshape(shape))
    return _make(data, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = np.ascontiguousarray(a.data.transpose(axes))
    return _make(data, (a,), lambda g: (g.transpose(inverse),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                grads.append(np.ascontiguousarray(g[tuple(idx)]))
            else:
                grads.append(None)
        return tuple(grads)

    return _make(data, tuple(tensors), backward)


# -- gather ops --------------------------------------------------------------


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Look up rows of ``table`` by integer id; ids shape is preserved."""
    ids = np.asarray(ids)
    data = np.ascontiguousarray(table.data[ids])

    def backward(g):
        # a stable sort makes each id's rows contiguous, so one reduceat sums every run
        flat = ids.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        dt = np.zeros_like(table.data)
        dt[sorted_ids[starts]] = np.add.reduceat(g.reshape(-1, table.shape[-1])[order], starts, axis=0)
        return (dt,)

    return _make(data, (table,), backward)


def take_tokens(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather token positions per batch row: x[b,n,d], idx[b,k] -> [b,k,d]."""
    idx = np.asarray(idx)
    if x.ndim != 3 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise DimensionError(f"take_tokens: x {x.shape} vs idx {idx.shape}")
    bidx = np.arange(x.shape[0])[:, None]
    data = x.data[bidx, idx]

    def backward(g):
        dx = np.zeros_like(x.data)
        # rows without repeated positions (token masking, pooling) scatter by
        # plain assignment; np.add.at is only needed to sum repeats
        if (np.diff(np.sort(idx, axis=1), axis=1) != 0).all():
            dx[bidx, idx] = g
        else:
            np.add.at(dx, (bidx, idx), g)
        return (dx,)

    return _make(data, (x,), backward)


# -- matmul ------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product in the inputs' storage dtype; batched when ndim > 2.

    float32 inputs run as sgemm and float64 inputs as dgemm; a float32 input
    paired with a float64 one raises ``ContractError``. Leading (batch) extents
    must match exactly; broadcasting batch dims is not supported (``linear``
    shares a 2-D weight across leading axes).
    """
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: one 2-D product over ``x``'s flattened rows,
    with ``b`` added into its output in place. The three tensors share one
    dtype; mixing float32 and float64 raises ``ContractError``."""
    if w.ndim != 2 or x.ndim < 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    out = np.matmul(x2, w.data)
    out += b.data
    data = out.reshape(x.shape[:-1] + w.shape[1:])

    def backward(g):
        g2 = g.reshape(-1, w.shape[1])
        gx = np.matmul(g2, w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = np.matmul(x2.T, g2) if w.requires_grad else None
        gb = g2.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _make(data, (x, w, b), backward)


# -- reductions ---------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = np.sum(a.data, axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.data.dtype)
    data = np.asarray(data)

    def backward(g):
        g2 = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.shape).astype(a.data.dtype),)

    return _make(data, (a,), backward)


# -- normalization / softmax ---------------------------------------------------


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Last-axis mean accumulated in float64, cast once to ``x``'s dtype."""
    return x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Last-axis sum accumulated in float64, cast once to ``x``'s dtype."""
    return x.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shape mismatch: x last extent {d}, gain {gain.shape}, bias {bias.shape}"
        )
    if eps < 0:
        raise ContractError(f"layer_norm eps must be >= 0, got {eps}")
    dt = x.data.dtype
    xhat = x.data - _row_mean(x.data)
    var = np.mean(xhat * xhat, axis=-1, keepdims=True, dtype=np.float64)
    inv_sigma = (1.0 / np.sqrt(var + eps)).astype(dt)
    xhat *= inv_sigma
    data = xhat * gain.data + bias.data

    def backward(g):
        gx = None
        if x.requires_grad:
            dxhat = g * gain.data
            gx = dxhat - _row_mean(dxhat)
            gx -= xhat * _row_mean(dxhat * xhat)
            gx *= inv_sigma
        rows = (-1, d)
        ggain = gbias = None
        if gain.requires_grad:
            ggain = (g * xhat).reshape(rows).sum(axis=0, dtype=np.float64).astype(dt)
        if bias.requires_grad:
            gbias = g.reshape(rows).sum(axis=0, dtype=np.float64).astype(dt)
        return gx, ggain, gbias

    return _make(data, (x, gain, bias), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis with max subtraction for overflow safety."""
    s = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    s /= _row_sum(s)

    def backward(g):
        return (s * (g - _row_sum(g * s)),)

    return _make(s, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of ``-log softmax(logits)[i, targets[i]]`` as one node;
    its backward is ``(softmax - onehot) * g / rows``."""
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != logits.shape[:1]:
        raise DimensionError(f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    dt = logits.data.dtype
    rows = np.arange(len(targets))
    ls = logits.data - logits.data.max(axis=-1, keepdims=True)
    ls -= np.log(_row_sum(np.exp(ls)))
    data = np.asarray(-ls[rows, targets].sum(dtype=np.float64) / len(targets)).astype(dt)

    def backward(g):
        d = np.exp(ls)
        d[rows, targets] -= 1.0
        d *= g
        d /= len(targets)
        return (d,)

    return _make(data, (logits,), backward)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each last-axis row to unit Euclidean norm (the sum of squares
    accumulates in float64); the backward is ``(g - y * sum(g * y)) / norm``."""
    norm = np.sqrt(_row_sum(x.data * x.data))
    y = x.data / norm

    def backward(g):
        d = g - y * _row_sum(g * y)
        d /= norm
        return (d,)

    return _make(y, (x,), backward)


# -- backward pass -------------------------------------------------------------


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) on every reachable leaf that requires grad.

    Leaves are tensors without a backward rule (parameters and inputs);
    gradients flowing through intermediate tensors are consumed and dropped,
    so their ``grad`` stays ``None``. A leaf keeps its first gradient as
    received, with no copy. The walk consumes the graph as it goes;
    reaching a consumed node raises ``ContractError``.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ContractError("backward root is not connected to the graph")
    # every consumer of a node is newer than it, so popping the newest pending
    # node finds its gradient complete
    pending: dict[int, np.ndarray] = {root._seq: np.ones_like(root.data)}
    heap: list[tuple[int, Tensor]] = [(-root._seq, root)]
    while heap:
        _, node = heapq.heappop(heap)
        g = pending.pop(node._seq)
        if node._parents is None:
            raise ContractError(f"{node!r} was consumed by an earlier backward; a graph is walked once")
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        parents, grads = node._parents, node._backward(g)
        node._parents = node._backward = None  # frees what the rule saved from the forward
        for parent, pg in zip(parents, grads):
            if pg is None or not parent.requires_grad:
                continue
            prev = pending.get(parent._seq)
            if prev is None:
                heapq.heappush(heap, (-parent._seq, parent))
            pending[parent._seq] = pg if prev is None else prev + pg


def zero_grads(tensors) -> None:
    """Reset accumulated gradients between optimizer steps."""
    for t in tensors:
        t.grad = None


# -- gradient checking ----------------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-3) -> float:
    """Worst relative discrepancy between backprop and central differences.

    The finite-difference side evaluates ``f`` on float64 tensors and divides
    by the actually-stored perturbation, so the oracle error is dominated by
    the O(eps^2) truncation term rather than storage rounding.
    """
    probe = Tensor(x.data.copy(), requires_grad=True, dtype=x.data.dtype)
    out = f(probe)
    if out.size != 1:
        raise ContractError(f"grad_check target must be scalar, got {out.shape}")
    backward(out)
    analytic = probe.grad.astype(np.float64).reshape(-1)

    base = x.data.astype(np.float64).reshape(-1)
    numeric = np.zeros_like(base)
    with no_grad():
        for i in range(base.size):
            hi = base.copy()
            lo = base.copy()
            hi[i] = base[i] + eps
            lo[i] = base[i] - eps
            f_hi = f(Tensor(hi.reshape(x.shape), dtype=np.float64)).item()
            f_lo = f(Tensor(lo.reshape(x.shape), dtype=np.float64)).item()
            numeric[i] = (f_hi - f_lo) / (hi[i] - lo[i])

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))
