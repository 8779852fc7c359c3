"""The two towers: patch tokenization, random token dropping, positional
table resampling, and where the published parameter counts come from."""

import time

import numpy as np

from deskclip.encoders import (
    MaskSpec,
    image_param_shapes,
    interpolate_pos_embed,
    patchify,
    sample_mask,
    text_param_shapes,
)
from deskclip.model import ClipModel, preset
from deskclip.tensor import Tensor, no_grad

# -- tokenization arithmetic ---------------------------------------------------
imgs = Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))
print("224px / 16px patches ->", patchify(imgs, 16).shape[1], "tokens")
imgs = Tensor(np.zeros((1, 3, 336, 336), dtype=np.float32))
print("336px / 14px patches ->", patchify(imgs, 14).shape[1], "tokens")

# -- token dropping ------------------------------------------------------------
rng = np.random.default_rng(7)
kept = sample_mask(196, MaskSpec(ratio=0.5), rng)
print(f"mask ratio 0.5 on 196 tokens keeps {len(kept)} (class token is kept separately)")

# -- masking halves the step cost -------------------------------------------------
cfg = preset("mini")
model = ClipModel.init(cfg, 0)
batch = np.random.default_rng(0).standard_normal((64, 3, 32, 32)).astype(np.float32)
with no_grad():
    for label, mask in (("unmasked", None), ("masked  ", MaskSpec(0.5))):
        t0 = time.perf_counter()
        model.encode_image(batch, mask=mask, rng=np.random.default_rng(1))
        patches = cfg.image.n_patches
        tokens = 1 + (mask.kept_count(patches) if mask is not None else patches)
        print(f"{label}: {tokens:3d} token positions, {time.perf_counter() - t0:.3f}s forward")

# -- continuing a checkpoint at higher resolution ----------------------------------
pos = Tensor(np.random.default_rng(2).standard_normal((1 + 16 * 16, 64)).astype(np.float32))
resampled = interpolate_pos_embed(pos, 24)
print(f"positional table {pos.shape} -> {resampled.shape} (class row copied through)")

# -- parameter accounting -----------------------------------------------------------
for name in ("B/16", "L/14"):
    c = preset(name)
    img = sum(int(np.prod(s)) for s in image_param_shapes(c.image, c.embed_dim).values())
    txt = sum(int(np.prod(s)) for s in text_param_shapes(c.text, c.embed_dim).values())
    print(f"{name}: image tower {img / 1e6:.1f}M params, text tower {txt / 1e6:.1f}M params")
