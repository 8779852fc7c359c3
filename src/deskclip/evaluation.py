"""Zero-shot evaluation: prompt-ensembled classification, retrieval recall,
the robustness gap, and machine-readable reports."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .data import Corpus, TokenizerSpec, random_resized_crop, template_problem, to_float, tokenize
from .errors import DimensionError, InputError
from .model import ClipModel
from .tensor import no_grad

REPORT_SCHEMA_VERSION = 1
DEFAULT_TEMPLATES = ("a photo of a {}",)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def make_text_encoder(model: ClipModel) -> Callable[[Sequence[str]], np.ndarray]:
    """Caption strings -> normalized embedding rows, evaluation mode."""
    spec = TokenizerSpec(model.cfg.text.context_length)

    def encode(captions: Sequence[str]) -> np.ndarray:
        ids = np.stack([tokenize(c, spec) for c in captions])
        with no_grad():
            return model.encode_text(ids).vector.data.copy()

    return encode


def build_class_embeddings(
    class_names: Sequence[str],
    templates: Sequence[str],
    encode_texts: Callable[[Sequence[str]], np.ndarray],
) -> np.ndarray:
    """Unit class table [classes, d]: embed every filled template in one
    ``encode_texts`` call, normalize each, average per class, renormalize."""
    if not class_names:
        raise InputError("no class names given")
    if repeated := [name for name, k in Counter(class_names).items() if k > 1]:
        raise InputError(f"class name {repeated[0]!r} is given more than once")
    if problem := template_problem(templates):
        raise InputError(problem)
    embs = _normalize_rows(encode_texts([t.format(name) for name in class_names for t in templates]))
    return _normalize_rows(embs.reshape(len(class_names), len(templates), -1).mean(axis=1))


def zero_shot_classify(
    image_embeddings: np.ndarray,
    table: np.ndarray,
    labels: np.ndarray | None = None,
) -> dict:
    """Argmax of cosine similarity against the [classes, d] ``table``; ties
    break toward the lowest class index."""
    img = np.asarray(image_embeddings, dtype=np.float64)
    if img.shape[-1] != table.shape[-1]:
        raise DimensionError(
            f"image dim {img.shape[-1]} vs class embedding dim {table.shape[-1]}")
    scores = _normalize_rows(img) @ _normalize_rows(table).T
    order = np.argsort(-scores, axis=1, kind="stable")  # stable: lowest index wins ties
    result = {"predictions": order[:, 0]}
    if labels is not None:
        labels = np.asarray(labels)
        k5 = min(5, table.shape[0])
        result["top1"] = float((order[:, 0] == labels).mean() * 100.0)
        result["top5"] = float((order[:, :k5] == labels[:, None]).any(axis=1).mean() * 100.0)
    return result


def recall_at_k(
    query_embeddings: np.ndarray,
    gallery_embeddings: np.ndarray,
    ground_truth: Sequence[Sequence[int]],
    ks: Sequence[int] = (1, 5, 10),
) -> dict[int, float]:
    """R@k = share of queries whose top-k cosine neighbors hit any true item."""
    q = _normalize_rows(query_embeddings)
    g = _normalize_rows(gallery_embeddings)
    if len(ground_truth) != q.shape[0]:
        raise InputError(f"{q.shape[0]} queries but {len(ground_truth)} ground-truth entries")
    if bad := [k for k in ks if k < 1]:
        raise InputError(f"recall@k needs k >= 1, got k = {bad[0]}")
    truth = []
    for i, items in enumerate(ground_truth):
        items = set(int(x) for x in items)
        if not items:
            raise InputError(f"query {i} has no ground-truth gallery item")
        if not all(0 <= x < g.shape[0] for x in items):
            raise InputError(f"query {i}: ground-truth items {sorted(items)} outside the "
                             f"gallery of {g.shape[0]}")
        truth.append(items)
    order = np.argsort(-(q @ g.T), axis=1, kind="stable")
    out = {}
    for k in ks:
        hits = [bool(truth[i] & set(order[i, :k].tolist())) for i in range(q.shape[0])]
        out[int(k)] = float(np.mean(hits) * 100.0)
    return out


def retrieval_report(
    image_embeddings: np.ndarray,
    text_embeddings: np.ndarray,
    caption_to_image: Sequence[int],
    ks: Sequence[int] = (1, 5, 10),
) -> dict[str, dict[int, float]]:
    """Both retrieval directions for captions mapped many-to-one onto images."""
    caption_to_image = [int(c) for c in caption_to_image]
    n_images = np.asarray(image_embeddings).shape[0]
    image_truth = [[] for _ in range(n_images)]
    for cap_idx, img_idx in enumerate(caption_to_image):
        if not 0 <= img_idx < n_images:
            raise InputError(f"caption {cap_idx} maps to image {img_idx}, outside the "
                             f"gallery of {n_images}")
        image_truth[img_idx].append(cap_idx)
    return {
        "text_retrieval": recall_at_k(image_embeddings, text_embeddings, image_truth, ks),
        "image_retrieval": recall_at_k(
            text_embeddings, image_embeddings, [[i] for i in caption_to_image], ks),
    }


def robustness_gap(reference_top1: float, variant_top1s: Sequence[float]) -> dict[str, float]:
    """avg over {reference} + variants, and delta = reference - avg."""
    if not variant_top1s:
        raise InputError("need at least one variant benchmark accuracy")
    values = [reference_top1, *variant_top1s]
    if any(not 0.0 <= v <= 100.0 for v in values):
        raise InputError(f"accuracies must be in [0, 100], got {values}")
    avg = float(np.mean(values))
    return {"avg": avg, "delta": float(reference_top1 - avg)}


def mean_top1_top5(top1: float, top5: float) -> float:
    if top5 < top1:
        raise InputError(f"top5 {top5} below top1 {top1} is impossible")
    return (top1 + top5) / 2.0


def center_frame(video: Sequence) -> object:
    """Index floor(n/2), turning video classification into image classification."""
    n = len(video)
    if n == 0:
        raise InputError("empty frame sequence")
    return video[n // 2]


# -- published-table fixtures ---------------------------------------------------------


@dataclass
class RobustnessRow:
    model: str
    reference: float
    variants: list[float]
    delta: float
    avg: float
    corrected_delta: float | None


def load_robustness_fixtures() -> list[RobustnessRow]:
    text = resources.files("deskclip").joinpath("fixtures/robustness_zero_shot.csv").read_text()
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    rows = []
    for rec in csv.DictReader(lines):
        rows.append(RobustnessRow(
            model=rec["model"],
            reference=float(rec["in1k"]),
            variants=[float(rec[k]) for k in ("in_a", "in_r", "in_v2", "in_sketch", "objectnet")],
            delta=float(rec["delta"]),
            avg=float(rec["avg"]),
            corrected_delta=float(rec["corrected_delta"]) if rec["corrected_delta"] else None,
        ))
    return rows


# -- report assembly --------------------------------------------------------------------


@dataclass
class EvalReport:
    benchmarks: dict[str, dict[str, float]]
    reference_benchmark: str
    averaged: float
    delta_gap: float
    retrieval: dict[str, dict[int, float]]

    def to_rows(self) -> list[tuple[str, str, float]]:
        rows = []
        for name, metrics in self.benchmarks.items():
            for metric, value in metrics.items():
                rows.append((name, metric, value))
        rows.append(("summary", "avg_top1", self.averaged))
        rows.append(("summary", "delta_gap", self.delta_gap))
        for direction, table in self.retrieval.items():
            for k, value in table.items():
                rows.append((direction, f"R@{k}", value))
        return rows

    def to_json(self) -> str:
        return json.dumps({
            "schema_version": REPORT_SCHEMA_VERSION,
            "reference_benchmark": self.reference_benchmark,
            "benchmarks": self.benchmarks,
            "averaged": self.averaged,
            "delta_gap": self.delta_gap,
            "retrieval": {d: {f"R@{k}": v for k, v in t.items()}
                          for d, t in self.retrieval.items()},
        }, indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [f"zero-shot report (schema v{REPORT_SCHEMA_VERSION})"]
        for name, metrics in self.benchmarks.items():
            parts = ", ".join(f"{m} {v:.1f}" for m, v in metrics.items())
            lines.append(f"  {name}: {parts}")
        lines.append(f"  averaged top-1: {self.averaged:.1f}")
        lines.append(f"  delta gap: {self.delta_gap:.1f}")
        for direction, table in self.retrieval.items():
            parts = ", ".join(f"R@{k} {v:.1f}" for k, v in sorted(table.items()))
            lines.append(f"  {direction}: {parts}")
        return "\n".join(lines) + "\n"


def _encode_images(model: ClipModel, images: np.ndarray) -> np.ndarray:
    outs = []
    with no_grad():
        for i in range(0, images.shape[0], 64):
            outs.append(model.encode_image(images[i : i + 64]).vector.data)
    return np.concatenate(outs, axis=0)


def evaluate(model: ClipModel, corpus: Corpus,
             templates: Sequence[str] | None = None,
             class_names: Sequence[str] | None = None) -> EvalReport:
    """Zero-shot protocol on the held-out split, with two synthetic
    distribution-shift variants (extra noise, aggressive crop) feeding the
    robustness gap, plus image/text retrieval over the held-out pairs."""
    names = list(class_names) if class_names is not None else corpus.class_names
    labels = np.array([r.class_id for r in corpus.heldout])
    unnamed = labels[labels >= len(names)]
    if unnamed.size:
        raise InputError(f"held-out label {unnamed[0]} has no class name ({len(names)} given)")
    templates = tuple(templates) if templates is not None else DEFAULT_TEMPLATES
    text_encoder = make_text_encoder(model)
    classes = build_class_embeddings(names, templates, text_encoder)

    images = to_float(np.stack([r.image for r in corpus.heldout]))
    rng = np.random.default_rng(0)  # fixed shift variants, comparable across checkpoints
    variants = {
        "heldout": images,
        "heldout-noise": np.clip(
            images + rng.normal(0.0, 0.25, size=images.shape), -1.0, 1.0).astype(np.float32),
        "heldout-crop": np.stack([random_resized_crop(img, (0.5, 0.7), rng) for img in images]),
    }
    embeddings = {name: _encode_images(model, imgs) for name, imgs in variants.items()}
    benchmarks = {}
    for name, emb in embeddings.items():
        scored = zero_shot_classify(emb, classes, labels)
        benchmarks[name] = {"top1": scored["top1"], "top5": scored["top5"]}
    gap = robustness_gap(benchmarks["heldout"]["top1"],
                         [v["top1"] for k, v in benchmarks.items() if k != "heldout"])
    captions = [r.caption.decode("utf-8") for r in corpus.heldout]
    retrieval = retrieval_report(
        embeddings["heldout"], text_encoder(captions), list(range(len(captions))))
    return EvalReport(benchmarks, "heldout", gap["avg"], gap["delta"], retrieval)
