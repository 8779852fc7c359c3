"""Symmetric image-text contrastive loss with a learnable, clamped temperature."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .encoders import EmbeddingOutput
from .model import MAX_LOG_SCALE
from .tensor import Tensor


def _check_normalized(emb: EmbeddingOutput, side: str) -> None:
    norms = np.linalg.norm(emb.vector.data.astype(np.float64), axis=-1)
    worst = float(np.abs(norms - 1.0).max())
    if worst > 1e-4:
        raise ContractError(f"{side} embeddings deviate from unit norm by {worst:.2e}")


def similarity_logits(img: EmbeddingOutput, txt: EmbeddingOutput, log_scale: Tensor) -> Tensor:
    """exp(log_scale) * <img_i, txt_j> for every pair in the batch."""
    _check_normalized(img, "image")
    _check_normalized(txt, "text")
    if img.vector.shape != txt.vector.shape:
        raise DimensionError(f"embedding shapes differ: {img.vector.shape} vs {txt.vector.shape}")
    s = T.exp(log_scale)
    sims = T.matmul(img.vector, T.transpose(txt.vector, (1, 0)))
    return T.mul(sims, s)


def clip_loss(logits: Tensor) -> Tensor:
    """Mean of row-wise and column-wise cross-entropy against the diagonal."""
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise DimensionError(f"logits must be square, got {logits.shape}")
    labels = np.arange(logits.shape[0])
    rows = T.cross_entropy(logits, labels)
    cols = T.cross_entropy(T.transpose(logits, (1, 0)), labels)
    return T.add(rows, cols) * 0.5


def clamp_scale(log_scale: Tensor) -> None:
    """Pull the learnable log scale back below its cap; call after every optimizer step."""
    log_scale.data = np.minimum(log_scale.data, np.float32(MAX_LOG_SCALE))
