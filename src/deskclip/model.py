"""Dual-encoder model: the two towers plus the learnable logit scale."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoders import (
    EmbeddingOutput,
    ImageEncoderConfig,
    MaskSpec,
    ModelConfig,
    TextEncoderConfig,
    encode_image,
    encode_text,
    image_param_shapes,
    init_tower_params,
    text_param_shapes,
)
from .tensor import Tensor

LOG_SCALE_INIT = math.log(1.0 / 0.07)
MAX_LOG_SCALE = math.log(100.0)


@dataclass
class ClipModel:
    cfg: ModelConfig
    params: dict[str, Tensor]  # keys: "image.*", "text.*", "logit_scale"

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int | np.random.Generator = 0) -> "ClipModel":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        image = init_tower_params(image_param_shapes(cfg.image, cfg.embed_dim),
                                  cfg.image.layers, cfg.image.width, rng)
        for name, p in image.items():
            params[f"image.{name}"] = p
        text = init_tower_params(text_param_shapes(cfg.text, cfg.embed_dim),
                                 cfg.text.layers, cfg.text.width, rng)
        for name, p in text.items():
            params[f"text.{name}"] = p
        params["logit_scale"] = Tensor(np.array([LOG_SCALE_INIT], dtype=np.float32), requires_grad=True)
        return cls(cfg, params)

    def tower_params(self, prefix: str) -> dict[str, Tensor]:
        cut = len(prefix) + 1
        return {name[cut:]: p for name, p in self.params.items() if name.startswith(prefix + ".")}

    @property
    def logit_scale(self) -> Tensor:
        return self.params["logit_scale"]

    def encode_image(self, images, mask: MaskSpec | None = None,
                     rng: np.random.Generator | None = None) -> EmbeddingOutput:
        return encode_image(images, self.cfg.image, self.tower_params("image"), self.cfg.embed_dim,
                            mask=mask, rng=rng)

    def encode_text(self, token_ids) -> EmbeddingOutput:
        return encode_text(token_ids, self.cfg.text, self.tower_params("text"), self.cfg.embed_dim)

    def trainable(self) -> dict[str, Tensor]:
        return {name: p for name, p in self.params.items() if p.requires_grad}


def preset(name: str) -> ModelConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown model preset {name!r}; options: {sorted(PRESETS)}") from None


# Published dual-encoder geometries (vocab/context follow the usual CLIP text
# stack so the parameter totals line up), plus two desk-scale configurations:
# "mini" is big enough that matmuls dominate a training step, "tiny" is for
# fast overfit-style runs.
PRESETS: dict[str, ModelConfig] = {
    "B/16": ModelConfig(
        image=ImageEncoderConfig(layers=12, width=768, heads=12, image_size=224, patch_size=16),
        text=TextEncoderConfig(layers=12, width=512, heads=8, vocab_size=49408, context_length=77),
    ),
    "L/14": ModelConfig(
        image=ImageEncoderConfig(layers=24, width=1024, heads=16, image_size=224, patch_size=14),
        text=TextEncoderConfig(layers=12, width=768, heads=12, vocab_size=49408, context_length=77),
    ),
    "L/14+": ModelConfig(
        image=ImageEncoderConfig(layers=24, width=1024, heads=16, image_size=336, patch_size=14),
        text=TextEncoderConfig(layers=12, width=768, heads=12, vocab_size=49408, context_length=77),
    ),
    "mini": ModelConfig(
        image=ImageEncoderConfig(layers=2, width=128, heads=4, image_size=32, patch_size=4),
        text=TextEncoderConfig(layers=2, width=64, heads=2, vocab_size=259, context_length=32),
    ),
    "tiny": ModelConfig(
        image=ImageEncoderConfig(layers=2, width=64, heads=2, image_size=32, patch_size=8),
        text=TextEncoderConfig(layers=2, width=64, heads=2, vocab_size=259, context_length=32),
    ),
}
