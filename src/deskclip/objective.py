"""Symmetric image-text contrastive loss with a learnable, clamped temperature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .encoders import EmbeddingOutput
from .model import MAX_LOG_SCALE
from .tensor import Tensor


@dataclass
class LogitScale:
    log_scale: Tensor  # shape (1,), learnable

    @property
    def value(self) -> float:
        return float(np.exp(min(self.log_scale.item(), MAX_LOG_SCALE)))


def _check_normalized(emb: EmbeddingOutput, side: str) -> None:
    if not emb.normalized:
        raise ContractError(f"{side} embeddings are not marked normalized")
    norms = np.linalg.norm(emb.vector.data.astype(np.float64), axis=-1)
    worst = float(np.abs(norms - 1.0).max())
    if worst > 1e-4:
        raise ContractError(f"{side} embeddings deviate from unit norm by {worst:.2e}")


def similarity_logits(img: EmbeddingOutput, txt: EmbeddingOutput, scale: LogitScale) -> Tensor:
    """scale * <img_i, txt_j> for every pair in the batch."""
    _check_normalized(img, "image")
    _check_normalized(txt, "text")
    if img.vector.shape != txt.vector.shape:
        raise DimensionError(f"embedding shapes differ: {img.vector.shape} vs {txt.vector.shape}")
    s = T.exp(scale.log_scale)
    sims = T.matmul(img.vector, T.transpose(txt.vector, (1, 0)))
    return T.mul(sims, s)


def clip_loss(logits: Tensor) -> Tensor:
    """Mean of row-wise and column-wise cross-entropy against the diagonal."""
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise DimensionError(f"logits must be square, got {logits.shape}")
    b = logits.shape[0]
    eye = Tensor(np.eye(b, dtype=np.float32))
    rows = T.tsum(T.mul(T.log_softmax_rows(logits), eye))
    cols = T.tsum(T.mul(T.log_softmax_rows(T.transpose(logits, (1, 0))), eye))
    return T.mul(T.add(rows, cols), Tensor(np.array(-0.5 / b, dtype=np.float32)))


def clamp_scale(scale: LogitScale) -> None:
    """Pull log_scale back below its cap; call after every optimizer step."""
    scale.log_scale.data = np.minimum(scale.log_scale.data, np.float32(MAX_LOG_SCALE))
