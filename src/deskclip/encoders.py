"""Vision and text transformer towers with optional token masking.

Both towers are pre-norm transformers. The image tower patchifies, prepends a
class token, adds positional embeddings, and (in training) may drop a random
subset of patch tokens before the blocks; the class token always survives.
The text tower runs causal attention and pools at the end-of-sequence token,
whose id is by convention ``vocab_size - 1``.

Each embedding reads one row of its tower's last block: the class token or
the end-of-sequence token. So that block computes its queries, residual and
MLP for that row alone, and the text tower drops the positions after the
batch's last end-of-sequence token before its embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .domains import check, within
from .errors import ContractError, DimensionError, InputError
from .resample import bilinear_resize
from .tensor import Tensor

NEG_INF = -1e9  # additive attention mask; survives float32 and max-subtraction


@dataclass(frozen=True)
class ImageEncoderConfig:
    layers: int = within("[0, inf)")
    width: int = within("[1, inf)")
    heads: int = within("[1, inf)")
    image_size: int = within("[1, inf)")
    patch_size: int = within("[1, inf)")
    channels: int = within("[1, inf)", 3)
    drop_path: float = within("[0, 1)", 0.0)

    __post_init__ = check

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid * self.grid


@dataclass(frozen=True)
class TextEncoderConfig:
    layers: int = within("[0, inf)")
    width: int = within("[1, inf)")
    heads: int = within("[1, inf)")
    vocab_size: int = within("[1, inf)")
    context_length: int = within("[2, inf)")  # BOS and EOS

    __post_init__ = check

    @property
    def eos_id(self) -> int:
        return self.vocab_size - 1


@dataclass(frozen=True)
class ModelConfig:
    image: ImageEncoderConfig
    text: TextEncoderConfig
    embed_dim: int = within("[0, inf)", 0)  # 0 means "use text width"

    def __post_init__(self):
        check(self)
        if self.embed_dim == 0:
            object.__setattr__(self, "embed_dim", self.text.width)


@dataclass(frozen=True)
class MaskSpec:
    """Random token dropping: keep ceil((1-ratio) * n) patches, at least one."""

    ratio: float = within("[0, 1)")

    __post_init__ = check

    def kept_count(self, n_tokens: int) -> int:
        return max(1, math.ceil((1.0 - self.ratio) * n_tokens))


@dataclass
class EmbeddingOutput:
    vector: Tensor  # [batch, embed_dim], unit-norm rows


# -- parameter tables ---------------------------------------------------------


def _block_shapes(width: int) -> dict[str, tuple[int, ...]]:
    hidden = 4 * width
    return {
        "norm1.gain": (width,),
        "norm1.bias": (width,),
        "attn.q.weight": (width, width),
        "attn.q.bias": (width,),
        "attn.k.weight": (width, width),
        "attn.k.bias": (width,),
        "attn.v.weight": (width, width),
        "attn.v.bias": (width,),
        "attn.proj.weight": (width, width),
        "attn.proj.bias": (width,),
        "norm2.gain": (width,),
        "norm2.bias": (width,),
        "mlp.fc.weight": (width, hidden),
        "mlp.fc.bias": (hidden,),
        "mlp.proj.weight": (hidden, width),
        "mlp.proj.bias": (width,),
    }


def image_param_shapes(cfg: ImageEncoderConfig, embed_dim: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {
        "patch_embed.weight": (cfg.channels * cfg.patch_size**2, cfg.width),
        "patch_embed.bias": (cfg.width,),
        "cls_token": (cfg.width,),
        "pos_embed": (1 + cfg.n_patches, cfg.width),
    }
    for i in range(cfg.layers):
        for name, shape in _block_shapes(cfg.width).items():
            shapes[f"blocks.{i}.{name}"] = shape
    shapes["final_norm.gain"] = (cfg.width,)
    shapes["final_norm.bias"] = (cfg.width,)
    shapes["proj"] = (cfg.width, embed_dim)
    return shapes


def text_param_shapes(cfg: TextEncoderConfig, embed_dim: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {
        "token_embed.weight": (cfg.vocab_size, cfg.width),
        "pos_embed": (cfg.context_length, cfg.width),
    }
    for i in range(cfg.layers):
        for name, shape in _block_shapes(cfg.width).items():
            shapes[f"blocks.{i}.{name}"] = shape
    shapes["proj"] = (cfg.width, embed_dim)
    return shapes


def count_params(cfg: ModelConfig) -> int:
    """Trainable scalars in both towers plus the logit scale."""
    image = sum(int(np.prod(s)) for s in image_param_shapes(cfg.image, cfg.embed_dim).values())
    text = sum(int(np.prod(s)) for s in text_param_shapes(cfg.text, cfg.embed_dim).values())
    return image + text + 1


def init_tower_params(
    shapes: dict[str, tuple[int, ...]], layers: int, width: int, rng: np.random.Generator
) -> dict[str, Tensor]:
    """Fresh parameters; scheme follows the usual CLIP depth-scaled normals."""
    attn_std = width**-0.5
    proj_std = (width**-0.5) * ((2 * layers) ** -0.5) if layers else width**-0.5
    fc_std = (2 * width) ** -0.5
    params: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if name.endswith(("norm1.gain", "norm2.gain", "final_norm.gain")):
            data = np.ones(shape, dtype=np.float32)
        elif name.endswith(".bias"):
            data = np.zeros(shape, dtype=np.float32)
        elif name in ("cls_token", "pos_embed", "token_embed.weight", "patch_embed.weight"):
            data = (rng.standard_normal(shape) * 0.02).astype(np.float32)
        elif ".attn.proj." in name or ".mlp.proj." in name:
            data = (rng.standard_normal(shape) * proj_std).astype(np.float32)
        elif ".mlp.fc." in name:
            data = (rng.standard_normal(shape) * fc_std).astype(np.float32)
        else:  # q/k/v weights and the output projection
            data = (rng.standard_normal(shape) * attn_std).astype(np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return params


def validate_params(shapes: dict[str, tuple[int, ...]], params: dict[str, Tensor], tower: str) -> None:
    for name, shape in shapes.items():
        if name not in params:
            raise DimensionError(f"{tower}.{name}: parameter missing")
        got = params[name].shape
        if tuple(got) != tuple(shape):
            raise DimensionError(f"{tower}.{name}: expected shape {shape}, got {got}")


def assign_depth(name: str, layers: int) -> int:
    """Depth index used for layer-wise LR decay: 0 = embeddings, layers+1 = head."""
    if name.startswith("blocks."):
        return int(name.split(".")[1]) + 1
    if name.startswith(("final_norm.", "proj")):
        return layers + 1
    return 0


# -- ops ------------------------------------------------------------------------


def patchify(images: Tensor, patch_size: int) -> Tensor:
    """[b,c,H,W] -> [b, n, c*p*p] raster-order non-overlapping patches."""
    if images.ndim != 4:
        raise DimensionError(f"patchify expects [b,c,H,W], got {images.shape}")
    b, c, h, w = images.shape
    if h % patch_size or w % patch_size:
        raise DimensionError(f"image extent {h}x{w} not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    x = T.reshape(images, (b, c, gh, patch_size, gw, patch_size))
    x = T.transpose(x, (0, 2, 4, 1, 3, 5))
    return T.reshape(x, (b, gh * gw, c * patch_size * patch_size))


def sample_mask(n_tokens: int, spec: MaskSpec, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of kept patch tokens (class token handled by the caller)."""
    if n_tokens < 1:
        raise ContractError(f"n_tokens must be >= 1, got {n_tokens}")
    kept = spec.kept_count(n_tokens)
    idx = rng.choice(n_tokens, size=kept, replace=False)
    return np.sort(idx)


def interpolate_pos_embed(pos: Tensor, new_grid: int) -> Tensor:
    """Resample a [1 + g*g, d] positional table to grid ``new_grid``.

    The class-token row (index 0) is copied through unchanged.
    """
    rows, d = pos.shape
    g = math.isqrt(rows - 1)
    if g * g != rows - 1:
        raise DimensionError(f"positional table has {rows - 1} grid rows, not a perfect square")
    if new_grid == g:
        return Tensor(pos.data.copy(), dtype=pos.dtype)
    grid = pos.data[1:].reshape(g, g, d).transpose(2, 0, 1)
    resized = bilinear_resize(grid, new_grid, new_grid)
    flat = resized.transpose(1, 2, 0).reshape(new_grid * new_grid, d)
    return Tensor(np.concatenate([pos.data[:1], flat], axis=0), dtype=pos.dtype)


def _linear(x: Tensor, params: dict[str, Tensor], name: str) -> Tensor:
    return T.linear(x, params[f"{name}.weight"], params[f"{name}.bias"])


def _attention(
    h: Tensor, params: dict[str, Tensor], prefix: str, heads: int, causal: bool,
    rows: np.ndarray | None = None,
) -> Tensor:
    """Multi-head self-attention over ``h`` [b, n, width].

    Keys and values cover every position. Queries come from every position,
    or only from ``rows`` [b, k] when given, so the output is [b, k, width];
    a causal row keeps the keys at or before its own position.
    """
    b, n, width = h.shape
    hd = width // heads

    def split_heads(t, axes=(0, 2, 1, 3)):
        return T.transpose(T.reshape(t, (b, t.shape[1], heads, hd)), axes)

    hq = h if rows is None else T.take_tokens(h, rows)
    m = hq.shape[1]
    q = split_heads(_linear(hq, params, f"{prefix}.q"))
    # keys go straight to [b, heads, hd, n], ready to multiply
    kt = split_heads(_linear(h, params, f"{prefix}.k"), (0, 2, 3, 1))
    v = split_heads(_linear(h, params, f"{prefix}.v"))

    scores = T.matmul(q, kt) * (1.0 / math.sqrt(hd))
    if causal:
        q_pos = np.arange(n)[None] if rows is None else rows  # [1, n] or [b, k]
        after = np.arange(n) > q_pos[:, :, None]
        scores = T.add(scores, Tensor(np.where(after, NEG_INF, 0.0)[:, None], dtype=scores.dtype))
    weights = T.softmax_rows(scores)
    out = T.matmul(weights, v)
    out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, m, width))
    return _linear(out, params, f"{prefix}.proj")


def drop_path(branch: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Per-sample residual-branch dropping; identity at rate 0 or without a
    generator (only training forwards pass one)."""
    if rate == 0.0 or rng is None:
        return branch
    b = branch.shape[0]
    keep = (rng.random(b) >= rate).astype(branch.dtype) / (1.0 - rate)
    shape = (b,) + (1,) * (branch.ndim - 1)
    return T.mul(branch, Tensor(keep.reshape(shape), dtype=branch.dtype))


def _block(
    x: Tensor,
    params: dict[str, Tensor],
    i: int,
    heads: int,
    causal: bool,
    dp_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
) -> Tensor:
    """One pre-norm block; with ``rows`` [b, k] it returns only those rows [b, k, width]."""
    p = f"blocks.{i}"
    h = T.layer_norm(x, params[f"{p}.norm1.gain"], params[f"{p}.norm1.bias"])
    if rows is not None:
        x = T.take_tokens(x, rows)
    x = T.add(x, drop_path(_attention(h, params, f"{p}.attn", heads, causal, rows), dp_rate, rng))
    h = T.layer_norm(x, params[f"{p}.norm2.gain"], params[f"{p}.norm2.bias"])
    h = _linear(T.gelu(_linear(h, params, f"{p}.mlp.fc")), params, f"{p}.mlp.proj")
    return T.add(x, drop_path(h, dp_rate, rng))


def _blocks_pooled(
    x: Tensor,
    params: dict[str, Tensor],
    layers: int,
    heads: int,
    causal: bool,
    rows: np.ndarray,
    dp_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run every block and return the pooled ``rows`` [b, 1] as [b, width].

    Only the last block is pruned to ``rows``: the pooled row reads every
    position's keys and values there, and nothing reads its other rows.
    """
    for i in range(layers - 1):
        x = _block(x, params, i, heads, causal, dp_rate, rng)
    if layers:
        x = _block(x, params, layers - 1, heads, causal, dp_rate, rng, rows=rows)
    else:
        x = T.take_tokens(x, rows)
    return T.reshape(x, (x.shape[0], x.shape[2]))


def encode_image(
    images,
    cfg: ImageEncoderConfig,
    params: dict[str, Tensor],
    embed_dim: int,
    mask: MaskSpec | None = None,
    rng: np.random.Generator | None = None,
) -> EmbeddingOutput:
    """Embed a batch of images to unit-norm vectors.

    ``mask`` and ``rng`` are training-only arguments; evaluation callers leave
    them None and get a deterministic forward pass without masking or drop path.
    """
    validate_params(image_param_shapes(cfg, embed_dim), params, "image")
    x = Tensor(images, dtype=params["patch_embed.weight"].dtype)
    if x.ndim != 4 or x.shape[1] != cfg.channels or x.shape[2:] != (cfg.image_size, cfg.image_size):
        raise DimensionError(
            f"images {x.shape} do not match config "
            f"[b,{cfg.channels},{cfg.image_size},{cfg.image_size}]"
        )
    if mask is not None and rng is None:
        raise ContractError("masked encoding needs the caller's seeded generator")

    b = x.shape[0]
    tokens = _linear(patchify(x, cfg.patch_size), params, "patch_embed")
    cls = T.add(T.reshape(params["cls_token"], (1, 1, cfg.width)),
                Tensor(np.zeros((b, 1, cfg.width)), dtype=tokens.dtype))
    x = T.concat([cls, tokens], axis=1)
    x = T.add(x, params["pos_embed"])

    if mask is not None:
        kept = np.stack([sample_mask(cfg.n_patches, mask, rng) for _ in range(b)])
        idx = np.concatenate([np.zeros((b, 1), dtype=np.int64), kept + 1], axis=1)
        x = T.take_tokens(x, idx)

    cls_rows = np.zeros((b, 1), dtype=np.int64)  # the class token is row 0, masked or not
    cls_feat = _blocks_pooled(x, params, cfg.layers, cfg.heads, causal=False, rows=cls_rows,
                              dp_rate=cfg.drop_path, rng=rng)
    feat = T.layer_norm(cls_feat, params["final_norm.gain"], params["final_norm.bias"])
    out = T.l2_normalize_rows(T.matmul(feat, params["proj"]))
    return EmbeddingOutput(out)


def encode_text(
    token_ids: np.ndarray,
    cfg: TextEncoderConfig,
    params: dict[str, Tensor],
    embed_dim: int,
) -> EmbeddingOutput:
    """Embed tokenized captions; pools at the (single) end-of-sequence token."""
    ids = np.asarray(token_ids)
    if ids.ndim != 2:
        raise DimensionError(f"token ids must be [b, L], got {ids.shape}")
    if ids.size == 0:
        raise InputError(f"token ids {ids.shape} hold no tokens")
    b, length = ids.shape
    if length > cfg.context_length:
        raise DimensionError(f"sequence length {length} exceeds context {cfg.context_length}")
    if ids.max() >= cfg.vocab_size or ids.min() < 0:
        raise InputError(f"token id out of range for vocab {cfg.vocab_size}")
    eos_counts = (ids == cfg.eos_id).sum(axis=1)
    bad = np.nonzero(eos_counts != 1)[0]
    if bad.size:
        raise InputError(f"row {int(bad[0])} has {int(eos_counts[bad[0]])} end-of-sequence tokens, expected 1")
    validate_params(text_param_shapes(cfg, embed_dim), params, "text")

    # causal attention: positions after the batch's last EOS never reach a pooled row
    eos_pos = np.argmax(ids == cfg.eos_id, axis=1).reshape(b, 1)
    ids = ids[:, : int(eos_pos.max()) + 1]
    x = T.embedding(params["token_embed.weight"], ids)
    x = T.add(x, T.embedding(params["pos_embed"], np.arange(ids.shape[1])))
    feat = _blocks_pooled(x, params, cfg.layers, cfg.heads, causal=True, rows=eos_pos)
    out = T.l2_normalize_rows(T.matmul(feat, params["proj"]))
    return EmbeddingOutput(out)
