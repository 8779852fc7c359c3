"""Synthetic paired image-caption corpus, byte tokenizer, shards, augmentation.

Images are class-indexed sinusoidal gratings plus per-sample noise, so the
class is recoverable from raw pixels (a nearest-centroid classifier separates
them) and zero-shot metrics on the corpus are meaningful. Everything is
deterministic per seed. Shards store 8-bit CHW pixels; loading converts to
float32 in [-1, 1].
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import Reader, atomic_writer
from .domains import check, within
from .errors import ContractError, CorruptionError, FormatError, InputError
from .resample import bilinear_resize

SHARD_MAGIC = b"CFSH"
SHARD_VERSION = 1
RECORDS_PER_SHARD = 512

PAD_ID, BOS_ID, EOS_ID = 256, 257, 258
VOCAB_SIZE = 259

_SYLLABLES = ("ba", "do", "fi", "gu", "ka", "lo", "mi", "nu",
              "pe", "ra", "su", "ti", "vo", "wa", "ze", "yo")


def class_name(index: int) -> str:
    """Deterministic pronounceable name, unique below 16^3 classes."""
    return _SYLLABLES[(index // 256) % 16] + _SYLLABLES[(index // 16) % 16] + _SYLLABLES[index % 16]


# -- tokenizer -----------------------------------------------------------------


@dataclass(frozen=True)
class TokenizerSpec:
    """Byte-level vocabulary: ids 0..255 are raw bytes, then PAD, BOS, EOS."""

    context_length: int = within("[2, inf)", 32)  # BOS and EOS

    __post_init__ = check


def tokenize(caption: str | bytes, spec: TokenizerSpec) -> np.ndarray:
    """BOS + bytes + EOS, truncated so EOS always fits, padded to context."""
    raw = caption.encode("utf-8") if isinstance(caption, str) else bytes(caption)
    body = raw[: spec.context_length - 2]
    ids = np.full(spec.context_length, PAD_ID, dtype=np.int64)
    ids[0] = BOS_ID
    ids[1 : 1 + len(body)] = np.frombuffer(body, dtype=np.uint8)
    ids[1 + len(body)] = EOS_ID
    return ids


def detokenize(ids: np.ndarray, spec: TokenizerSpec) -> bytes:
    out = []
    for t in np.asarray(ids).tolist():
        if t == EOS_ID:
            break
        if t < 256 and t >= 0:
            out.append(t)
    return bytes(out)


# -- shard format ----------------------------------------------------------------


@dataclass
class ShardRecord:
    class_id: int
    image: np.ndarray  # uint8, CHW
    caption: bytes


def write_shard(records: list[ShardRecord], path: str | Path) -> None:
    with atomic_writer(path, SHARD_MAGIC, SHARD_VERSION) as f:
        f.write(struct.pack("<Q", len(records)))
        for r in records:
            img = np.ascontiguousarray(r.image, dtype=np.uint8).tobytes()
            f.write(struct.pack("<II", r.class_id, len(img)))
            f.write(img)
            f.write(struct.pack("<I", len(r.caption)))
            f.write(r.caption)


def read_shard(path: str | Path, image_shape: tuple[int, int, int] | None = None,
               num_classes: int | None = None):
    """Yield records in file order; raises on bad magic, truncation, an image
    that does not fit ``image_shape`` or a class id not below ``num_classes``."""
    r = Reader(path, SHARD_MAGIC, SHARD_VERSION, "shard")
    for _ in range(r.unpack("<Q", "record count")[0]):
        at = r.off
        class_id, img_len = r.unpack("<II", "record header")
        if num_classes is not None and class_id >= num_classes:
            raise CorruptionError(f"{path}: class id {class_id} at byte offset {at} does not name "
                                  f"one of {num_classes} classes", offset=at)
        if image_shape is not None and img_len != math.prod(image_shape):
            raise CorruptionError(f"{path}: {img_len}-byte image at byte offset {at + 4} does not "
                                  f"fit shape {image_shape}", offset=at + 4)
        img = r.array(np.uint8, image_shape or (img_len,), "image payload")
        yield ShardRecord(class_id, img, r.take(r.unpack("<I", "caption length")[0], "caption payload"))
    r.finish()


# -- corpus generation -------------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    num_classes: int = within("[2, inf)")
    samples_per_class: int = within("[0, inf)")
    image_size: int = within("[1, inf)", 32)
    caption_templates: tuple[str, ...] = ("a photo of a {}",)
    seed: int = within("[0, inf)", 0)
    eval_per_class: int = within("[0, inf)", 0)  # 0 means samples_per_class // 4, at least 1
    channels: int = within("[1, inf)", 3)

    def __post_init__(self):
        check(self)
        if self.eval_per_class == 0:
            object.__setattr__(self, "eval_per_class", max(1, self.samples_per_class // 4))


def _class_pattern(index: int, size: int, channels: int) -> np.ndarray:
    """Grating with class-indexed frequency/orientation/phase, in [0, 1]."""
    fx = 1 + index % 3
    fy = 1 + (index // 3) % 3
    if index % 2:
        fx, fy = fy, -fx
    phase = 2.0 * math.pi * ((index * 0.61803398875) % 1.0)
    y, x = np.mgrid[0:size, 0:size] / size
    img = np.empty((channels, size, size), dtype=np.float64)
    for ch in range(channels):
        img[ch] = 0.5 + 0.42 * np.sin(2.0 * math.pi * (fx * x + fy * y) + phase + ch * 2.0)
    return img


def _render(spec: CorpusSpec, class_id: int, rng: np.random.Generator) -> np.ndarray:
    base = _class_pattern(class_id, spec.image_size, spec.channels)
    noisy = base + rng.normal(0.0, 0.05, size=base.shape)
    return (np.clip(noisy, 0.0, 1.0) * 255.0).round().astype(np.uint8)


def generate_corpus(spec: CorpusSpec, out_dir: str | Path) -> Path:
    """Write train/eval shards plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    names = [class_name(i) for i in range(spec.num_classes)]

    def make_records(per_class):
        records = []
        for c in range(spec.num_classes):
            for _ in range(per_class):
                img = _render(spec, c, rng)
                template = spec.caption_templates[rng.integers(len(spec.caption_templates))]
                records.append(ShardRecord(c, img, template.format(names[c]).encode("utf-8")))
        return records

    def write_split(records, stem):
        paths = []
        for i in range(0, max(len(records), 1), RECORDS_PER_SHARD):
            chunk = records[i : i + RECORDS_PER_SHARD]
            p = out / f"{stem}-{i // RECORDS_PER_SHARD:03d}.shard"
            write_shard(chunk, p)
            paths.append(p.name)
        return paths

    train = make_records(spec.samples_per_class)
    heldout = make_records(spec.eval_per_class)
    manifest = {
        "version": 1,
        "seed": spec.seed,
        "image_size": spec.image_size,
        "channels": spec.channels,
        "num_classes": spec.num_classes,
        "samples_per_class": spec.samples_per_class,
        "eval_per_class": spec.eval_per_class,
        "class_names": names,
        "caption_templates": list(spec.caption_templates),
        "train_shards": write_split(train, "train"),
        "eval_shards": write_split(heldout, "eval"),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


@dataclass
class Corpus:
    manifest: dict
    train: list[ShardRecord]
    heldout: list[ShardRecord]

    @property
    def class_names(self) -> list[str]:
        return self.manifest["class_names"]


_MANIFEST_KEYS = ("channels", "image_size", "class_names", "train_shards", "eval_shards")


def load_corpus(manifest_path: str | Path) -> Corpus:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise FormatError(f"{manifest_path}: manifest is not JSON ({err})") from None
    if not isinstance(manifest, dict) or manifest.get("version") != 1:
        raise FormatError(f"{manifest_path}: unsupported manifest version")
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise FormatError(f"{manifest_path}: manifest has no key {key!r}")
    for key in ("channels", "image_size"):
        if type(manifest[key]) is not int or manifest[key] < 1:
            raise FormatError(f"{manifest_path}: manifest key {key!r} must be a positive integer, "
                              f"got {manifest[key]!r}")
    if not isinstance(manifest["class_names"], list):
        raise FormatError(f"{manifest_path}: manifest key 'class_names' must be a list")
    for key in ("train_shards", "eval_shards"):
        if not isinstance(manifest[key], list) or not all(isinstance(n, str) for n in manifest[key]):
            raise FormatError(f"{manifest_path}: manifest key {key!r} must be a list of file names")
    shape = (manifest["channels"], manifest["image_size"], manifest["image_size"])
    base = manifest_path.parent

    def read_split(names):
        records = []
        for name in names:
            records.extend(read_shard(base / name, shape, len(manifest["class_names"])))
        return records

    return Corpus(manifest, read_split(manifest["train_shards"]), read_split(manifest["eval_shards"]))


def to_float(image_u8: np.ndarray) -> np.ndarray:
    """8-bit pixels to float32 in [-1, 1]."""
    return (image_u8.astype(np.float32) / 127.5) - 1.0


# -- augmentation -------------------------------------------------------------------


def random_resized_crop(image: np.ndarray, scale_range: tuple[float, float],
                        rng: np.random.Generator) -> np.ndarray:
    """Area-uniform square crop resized back to the input extent (1:1 aspect)."""
    lo, hi = scale_range
    if not 0.0 < lo <= hi <= 1.0:
        raise ContractError(f"scale range must satisfy 0 < lo <= hi <= 1, got {scale_range}")
    size = image.shape[-1]
    frac = rng.uniform(lo, hi)
    side = min(size, max(1, round(size * math.sqrt(frac))))
    top = int(rng.integers(0, size - side + 1))
    left = int(rng.integers(0, size - side + 1))
    crop = image[..., top : top + side, left : left + side]
    if side == size:
        return np.ascontiguousarray(crop)
    return bilinear_resize(crop, size, size)


# -- deterministic batching -----------------------------------------------------------


@dataclass
class Batch:
    images: np.ndarray  # float32 [b,c,h,w]
    token_ids: np.ndarray  # int64 [b,L], PAD_ID after EOS


class BatchStream:
    """Fixed-size batches over an endless stream of per-epoch permutations.

    Batch composition is a pure function of (seed, position): epoch ``e`` uses
    the permutation seeded by (seed, e), and batches may span epoch
    boundaries, so no record is dropped or duplicated within an epoch and a
    resumed run recomputes identical batches from its step counter alone.
    """

    def __init__(self, records: list[ShardRecord], tokenizer: TokenizerSpec, seed: int):
        if not records:
            raise InputError("empty corpus")
        self.records = records
        self.seed = seed
        self.token_ids = np.stack([tokenize(r.caption, tokenizer) for r in records])
        self._perms: dict[int, np.ndarray] = {}  # only the epochs the latest batch spans

    def _permutation(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, epoch]))
        return rng.permutation(len(self.records))

    def indices_at(self, position: int, batch_size: int) -> np.ndarray:
        n = len(self.records)
        epochs = range(position // n, (position + batch_size - 1) // n + 1)
        self._perms = {e: self._perms[e] if e in self._perms else self._permutation(e) for e in epochs}
        out = np.empty(batch_size, dtype=np.int64)
        for i in range(batch_size):
            g = position + i
            out[i] = self._perms[g // n][g % n]
        return out

    def batch_at(self, step: int, batch_size: int) -> Batch:
        idx = self.indices_at(step * batch_size, batch_size)
        images = np.stack([to_float(self.records[i].image) for i in idx])
        return Batch(images=images, token_ids=self.token_ids[idx])
