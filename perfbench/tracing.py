"""Spans around deskclip's layer entry points.

Tracing is installed by rebinding module and class attributes to thin
wrappers for the length of a ``with Rebinding(...)`` block and restoring the
originals on exit, so an untraced run executes deskclip exactly as shipped.
Spans stay in memory; ``Tracer.to_json`` writes them out at the end.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at top level
    op: int = -1  # closed-loop operation issued by the benchmark
    step: int = -1  # index of the enclosing ``trainer.step`` span, -1 outside steps
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span stack; every span records its parent and step."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        step = self.spans[parent].step if parent >= 0 else -1
        if name == "trainer.step":
            step = idx
        self.spans.append(Span(name, 0.0, parent=parent, op=self.op, step=step, attrs=attrs))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self.spans[idx].end = end

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _wrap(tracer: Tracer, fn: Callable, name: str,
          before: Callable | None, after: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name, before(args, kwargs) if before else {})
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after:
            after(tracer.spans[idx], args, result)
        return result

    return traced


def _image_attrs(args, kwargs) -> dict:
    model, images = args[0], args[1]
    mask = kwargs.get("mask", args[2] if len(args) > 2 else None)
    n = model.cfg.image.n_patches
    return {"masked": mask is not None, "images": len(images),
            "tokens": 1 + (mask.kept_count(n) if mask is not None else n)}


def _step_attrs(args, kwargs) -> dict:
    return {"masked": args[0].cfg.mask_ratio > 0}


def _record_wall(span: Span, args, result) -> None:
    span.attrs["wall_time"] = result.wall_time


def _record_bytes(span: Span, args, result) -> None:
    span.attrs["bytes"] = os.path.getsize(args[0])


def layer_targets() -> list[tuple]:
    """(owner, attribute, span name, before hook, after hook) for each layer
    entry point; callers reach every one of them through the attribute."""
    from deskclip import checkpoint, data, evaluation, tensor, trainer
    from deskclip.model import ClipModel
    from deskclip.optim import Optimizer

    return [
        (data, "load_corpus", "data.load_corpus", None, None),
        (data.BatchStream, "batch_at", "data.batch", None, None),
        (trainer, "random_resized_crop", "data.crop", None, None),
        (evaluation, "random_resized_crop", "data.crop", None, None),
        (ClipModel, "encode_image", "encoders.image_fwd", _image_attrs, None),
        (ClipModel, "encode_text", "encoders.text_fwd", None, None),
        (trainer, "similarity_logits", "objective.loss", None, None),
        (trainer, "clip_loss", "objective.loss", None, None),
        (tensor, "backward", "tensor.backward", None, None),
        (Optimizer, "step", "optim.step", None, None),
        (trainer.Trainer, "__init__", "trainer.init", None, None),
        (trainer.Trainer, "train", "trainer.train", None, None),
        (trainer.Trainer, "train_step", "trainer.step", _step_attrs, _record_wall),
        (trainer.Trainer, "resume", "trainer.resume", None, None),
        (trainer, "save_checkpoint", "checkpoint.save", None, _record_bytes),
        (trainer, "load_checkpoint", "checkpoint.load", None, None),
        (checkpoint, "load_checkpoint", "checkpoint.load", None, None),
        (evaluation, "evaluate", "evaluation.report", None, None),
        (evaluation, "build_class_embeddings", "evaluation.class_embed", None, None),
        (evaluation, "zero_shot_classify", "evaluation.score", None, None),
        (evaluation, "retrieval_report", "evaluation.score", None, None),
    ]


class Rebinding:
    """Context manager that swaps each target for a span-recording wrapper."""

    def __init__(self, tracer: Tracer, targets: list[tuple]):
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple] = []

    def __enter__(self) -> "Rebinding":
        for owner, attr, name, before, after in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, original, name, before, after))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- analysis ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def nesting_problems(spans: list[Span], slack: float = 1e-6) -> list[str]:
    """Children must lie inside their parent and must not overlap each other."""
    problems = []
    last_child_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if s.start < p.start - slack or s.end > p.end + slack:
            problems.append(f"span {i} {s.name} escapes its parent {p.name}")
        if s.start < last_child_end.get(s.parent, -float("inf")) - slack:
            problems.append(f"span {i} {s.name} overlaps a sibling")
        last_child_end[s.parent] = s.end
    return problems
