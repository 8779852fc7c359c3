"""The deskclip benchmark workloads, their correctness gates and their metrics.

Every workload is a closed loop driven from this single process: the next
training step, evaluation report or training run is issued only after the
previous one has returned. BLAS keeps its default thread count.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

import deskclip.checkpoint as dc_checkpoint
import deskclip.data as dc_data
import deskclip.evaluation as dc_evaluation
from deskclip.data import CorpusSpec, TokenizerSpec, to_float, tokenize
from deskclip.model import MAX_LOG_SCALE, ClipModel, preset
from deskclip.tensor import no_grad
from deskclip.trainer import TrainConfig, Trainer

import tracing

# set-ups per run: one before the loop, the rest spread evenly through it on
# throwaway workload instances, so setup_s samples the whole measured window
SETUP_REPEATS = 9
# smallbatch operation i trains with trainer seed i % LOSS_RUNS; its loss
# metric averages the held-out loss of the first LOSS_RUNS operations
LOSS_RUNS = 6
# |first-step loss - ln(batch)| above this fails the init-loss gate, which runs
# at batch 64 only; at batch 8 the initial loss spans ln 8 - 0.2 to + 1.2 nats
# across trainer seeds, so it says nothing there (see README.md)
INIT_LOSS_TOLERANCE = 1.0
# cosine-score slack within which the brute-force evaluation oracle treats two
# candidates as tied, so either order is accepted
SCORE_TIE = 1e-6
# a traced step's span may exceed the StepRecord.wall_time it returns by the
# bookkeeping train_step does after stamping it, plus wrapper cost
WALL_GAP_ABS_S, WALL_GAP_REL = 2e-3, 0.05

E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "loss": "nats", "peak_rss_mb": "MB"}

TRAIN_TEMPLATES = ("a photo of a {}", "an image of a {}")
EVAL_TEMPLATES = ("a photo of a {}", "an image of a {}", "a grainy picture of a {}",
                  "one {} pattern")


@dataclass(frozen=True)
class Sizes:
    train_preset: str
    train_batch: int
    train_corpus: tuple[int, int]  # classes, train samples per class
    eval_preset: str
    eval_corpus: tuple[int, int]
    small_preset: str
    small_batch: int
    small_steps: int
    small_interval: int


SIZES = {
    # configs/corpus.json and configs/ablate-corpus.json shapes
    "full": Sizes("mini", 64, (16, 32), "mini", (64, 16), "tiny", 8, 60, 10),
    # smoke-test scale: every code path, a few seconds per workload
    "toy": Sizes("tiny", 8, (4, 8), "tiny", (6, 8), "tiny", 4, 12, 4),
}


@dataclass
class Gates:
    """Correctness checks and failed operations, counted toward error_rate."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def median_tail(values: list[float]) -> tuple[float, str]:
    """Median, and the highest percentile with at least ten samples beyond it
    (shown once that percentile lies above the median)."""
    n = len(values)
    if n <= 20:
        return statistics.median(values), f"n={n}"
    ordered = sorted(values)
    return statistics.median(values), f"p{100 * (n - 10) // n}={ordered[n - 11]:.6g} n={n}"


def _train_config(model: str, batch: int, **kw) -> TrainConfig:
    base = dict(model=preset(model), peak_lr_image=1e-3, peak_lr_text=1e-3,
                warmup_steps=20, total_steps=100_000, batch_size=batch, seed=0, augment=True)
    base.update(kw)
    return TrainConfig(**base)


def _check_finite(gates: Gates, losses: list[float], label: str) -> None:
    gates.check(all(math.isfinite(x) for x in losses), f"{label}: non-finite loss")


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def _corpus(self, classes: int, per_class: int, templates: tuple[str, ...]):
        spec = CorpusSpec(classes, per_class, 32, templates, seed=self.seed)
        return dc_data.load_corpus(dc_data.generate_corpus(spec, self.workdir / "corpus"))

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def op(self, traced: bool) -> float:
        """Run one closed-loop operation; return its wall time in seconds."""
        raise NotImplementedError

    def verify(self, gates: Gates) -> None:
        raise NotImplementedError

    def metrics(self) -> dict[str, float]:
        """End-to-end values other than setup_s and peak_rss_mb."""
        raise NotImplementedError

    def named(self) -> list[tuple[str, float, str, str]]:
        """Workload-specific figures: (name, value, unit, detail)."""
        raise NotImplementedError

    def applied_ratio(self) -> float:
        return 0.0


class TrainMini(Workload):
    """Unmasked and masked trainers stepping alternately (ABAB...)."""

    name = "train-mini-b64"

    def setup(self) -> None:
        s = self.sizes
        self.corpus = self._corpus(*s.train_corpus, TRAIN_TEMPLATES)
        self.cfgs = {"unmasked": _train_config(s.train_preset, s.train_batch, mask_ratio=0.0),
                     "masked": _train_config(s.train_preset, s.train_batch, mask_ratio=0.5)}
        self.arms = {arm: Trainer(cfg, self.corpus) for arm, cfg in self.cfgs.items()}
        self.steps = {arm: [] for arm in self.arms}  # (op wall, StepRecord.wall_time, traced)

    def _step(self, trainer: Trainer) -> tuple[float, float]:
        t0 = time.perf_counter()
        batch = trainer.stream.batch_at(trainer.attempted, trainer.cfg.batch_size)
        record = trainer.train_step(batch)
        return time.perf_counter() - t0, record.wall_time

    def warmup(self) -> None:
        for trainer in self.arms.values():
            self._step(trainer)

    def op(self, traced: bool) -> float:
        total = 0.0
        for arm, trainer in self.arms.items():
            wall, step_wall = self._step(trainer)
            self.steps[arm].append((wall, step_wall, traced))
            total += wall
        return total

    def _untraced(self, arm: str, column: int) -> list[float]:
        return [s[column] for s in self.steps[arm] if not s[2]]

    def verify(self, gates: Gates) -> None:
        for arm, cfg in self.cfgs.items():
            losses = [r.loss for r in self.arms[arm].records]
            _check_finite(gates, losses, arm)
            gates.check(abs(losses[0] - math.log(cfg.batch_size)) < INIT_LOSS_TOLERANCE,
                        f"{arm}: first-step loss {losses[0]:.4f} not within "
                        f"{INIT_LOSS_TOLERANCE} of ln {cfg.batch_size}")
            replay = Trainer(cfg, self.corpus)
            for step in range(2):
                record = replay.train_step(replay.stream.batch_at(step, cfg.batch_size))
                gates.check(record.loss == self.arms[arm].records[step].loss,
                            f"{arm} step {step}: seeded replay loss differs")

    def metrics(self) -> dict[str, float]:
        b = self.sizes.train_batch
        pair = sum(statistics.median(self._untraced(arm, 0)) for arm in self.arms)
        first = [r.loss for t in self.arms.values() for r in t.records[:8]]
        return {"items_per_s": len(self.arms) * b / pair, "loss": float(np.mean(first))}

    def named(self) -> list[tuple[str, float, str, str]]:
        b = self.sizes.train_batch
        unmasked, masked = self._untraced("unmasked", 1), self._untraced("masked", 1)
        rows = [("masked_speedup", statistics.median(unmasked) / statistics.median(masked), "x",
                 "median unmasked train_step / median masked train_step, interleaved")]
        for arm in self.arms:
            walls = self._untraced(arm, 0)
            med, tail = median_tail(walls)
            rows.append((f"{arm}_samples_per_s", b / med, "1/s", f"step {med:.4f}s {tail}"))
        return rows

    def applied_ratio(self) -> float:
        ts = self.arms.values()
        return sum(t.schedule_step for t in ts) / sum(t.attempted for t in ts)


class EvalZeroShot(Workload):
    """Repeated evaluate() reports of one fixed, seeded model."""

    name = "eval-zeroshot"

    def setup(self) -> None:
        self.corpus = self._corpus(*self.sizes.eval_corpus, EVAL_TEMPLATES)
        self.model = ClipModel.init(preset(self.sizes.eval_preset), 0)
        self.walls: list[tuple[float, bool]] = []
        self.reports: list[str] = []

    def warmup(self) -> None:
        images = np.stack([to_float(r.image) for r in self.corpus.heldout[:64]])
        spec = TokenizerSpec(self.model.cfg.text.context_length)
        with no_grad():
            self.model.encode_image(images)
            self.model.encode_text(np.stack([tokenize(t.format("x"), spec)
                                             for t in EVAL_TEMPLATES]))

    def op(self, traced: bool) -> float:
        t0 = time.perf_counter()
        report = dc_evaluation.evaluate(self.model, self.corpus, templates=EVAL_TEMPLATES)
        wall = time.perf_counter() - t0
        self.walls.append((wall, traced))
        self.reports.append(report.to_json())
        return wall

    def _class_table(self) -> np.ndarray:
        """Prompt-ensembled class embeddings straight from encode_text."""
        spec = TokenizerSpec(self.model.cfg.text.context_length)
        rows = []
        with no_grad():
            for name in self.corpus.class_names:
                ids = np.stack([tokenize(t.format(name), spec) for t in EVAL_TEMPLATES])
                rows.append(_unit(self.model.encode_text(ids).vector.data).mean(axis=0))
        return _unit(np.stack(rows))

    def verify(self, gates: Gates) -> None:
        gates.check(all(r == self.reports[0] for r in self.reports),
                    f"{self.name}: repeated reports differ")
        report = json.loads(self.reports[0])
        img, txt = heldout_embeddings(self.model, self.corpus)
        classes = self._class_table()
        labels = np.array([r.class_id for r in self.corpus.heldout])
        gates.check(bool(np.isfinite(img).all() and np.isfinite(txt).all()),
                    f"{self.name}: non-finite embeddings")
        zs = img @ classes.T
        for key, k in (("top1", 1), ("top5", min(5, classes.shape[0]))):
            _within(gates, report["benchmarks"]["heldout"][key], zs, labels, k, f"heldout {key}")
        sims = img @ txt.T
        diag = np.arange(len(labels))
        for direction, scores in (("text_retrieval", sims), ("image_retrieval", sims.T)):
            for k in (1, 5, 10):
                _within(gates, report["retrieval"][direction][f"R@{k}"], scores, diag, k,
                        f"{direction} R@{k}")
        self.heldout_loss = contrastive_loss(self.model, img, txt)

    def metrics(self) -> dict[str, float]:
        walls = [w for w, traced in self.walls if not traced]
        return {"items_per_s": len(self.corpus.heldout) / statistics.median(walls),
                "loss": self.heldout_loss}

    def named(self) -> list[tuple[str, float, str, str]]:
        walls = [w for w, traced in self.walls if not traced]
        med, tail = median_tail(walls)
        return [("eval_heldout_images_per_s", len(self.corpus.heldout) / med, "1/s",
                 f"report {med:.4f}s {tail}")]


def _unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def heldout_embeddings(model: ClipModel, corpus) -> tuple[np.ndarray, np.ndarray]:
    """Unit image and caption embeddings of the held-out split, in evaluation mode."""
    spec = TokenizerSpec(model.cfg.text.context_length)
    images = np.stack([to_float(r.image) for r in corpus.heldout])
    with no_grad():
        img = np.concatenate([model.encode_image(images[i:i + 64]).vector.data
                              for i in range(0, len(images), 64)])
        txt = model.encode_text(np.stack([tokenize(r.caption, spec)
                                          for r in corpus.heldout])).vector.data
    return _unit(img), _unit(txt)


def contrastive_loss(model: ClipModel, img: np.ndarray, txt: np.ndarray) -> float:
    """Symmetric InfoNCE over matched held-out pairs at the model's clamped scale."""
    logits = (img @ txt.T) * math.exp(min(model.logit_scale.item(), MAX_LOG_SCALE))
    rows = (logsumexp(logits, axis=1) - np.diag(logits)).mean()
    cols = (logsumexp(logits, axis=0) - np.diag(logits)).mean()
    return float((rows + cols) / 2)


def _within(gates: Gates, reported: float, scores: np.ndarray, truth: np.ndarray, k: int,
            what: str) -> None:
    """The reported hit rate (percent) must lie between the hit rates with
    every near-tie resolved against and in favour of the true item."""
    true = scores[np.arange(len(truth)), truth][:, None]
    others = np.ones_like(scores, dtype=bool)
    others[np.arange(len(truth)), truth] = False
    above_surely = ((scores > true + SCORE_TIE) & others).sum(axis=1)
    above_maybe = ((scores > true - SCORE_TIE) & others).sum(axis=1)
    lo, hi = 100.0 * np.mean(above_maybe < k), 100.0 * np.mean(above_surely < k)
    gates.check(lo - 1e-9 <= reported <= hi + 1e-9,
                f"{what}: reported {reported} outside brute-force [{lo}, {hi}]")


class SmallBatchCkpt(Workload):
    """tiny/b8 Trainer.train() with checkpoints, then resume from the last one."""

    name = "smallbatch-ckpt"

    def setup(self) -> None:
        s = self.sizes
        self.corpus = self._corpus(*s.train_corpus, TRAIN_TEMPLATES)
        self.cfg = _train_config(s.small_preset, s.small_batch, peak_lr_image=2e-3,
                                 peak_lr_text=2e-3, warmup_steps=5, total_steps=s.small_steps,
                                 mask_ratio=0.5, checkpoint_interval=s.small_interval)
        Trainer(self.cfg, self.corpus, run_dir=self.workdir / "setup-run")
        self.runs: list[dict] = []
        self._applied = [0, 0]

    def warmup(self) -> None:
        self.op(traced=False)
        self.runs.clear()
        self._applied = [0, 0]

    def op(self, traced: bool) -> float:
        cfg = replace(self.cfg, seed=len(self.runs) % LOSS_RUNS)
        run_dir = self.workdir / f"run-{len(self.runs)}"
        last = (cfg.total_steps - 1) // cfg.checkpoint_interval * cfg.checkpoint_interval
        t0 = time.perf_counter()
        first = Trainer(cfg, self.corpus, run_dir=run_dir / "train")
        first.train()
        ckpt = dc_checkpoint.load_checkpoint(run_dir / "train" / f"ckpt-{last:06d}.bin")
        resumed = Trainer(cfg, self.corpus, run_dir=run_dir / "resume")
        resumed.resume(ckpt)
        resumed.train()
        wall = time.perf_counter() - t0
        from_step = int(ckpt.metadata["attempted"])
        losses = [r.loss for r in first.records]
        self.runs.append({
            "wall": wall, "traced": traced, "seed": cfg.seed, "losses": losses,
            "steps": first.attempted + resumed.attempted - from_step,
            "model": first.model if len(self.runs) < LOSS_RUNS else None,
            "resume_exact": ([r.loss for r in resumed.records] == losses[from_step:]
                             and (run_dir / "train" / "final.bin").read_bytes()
                             == (run_dir / "resume" / "final.bin").read_bytes()),
        })
        for t, start in ((first, (0, 0)), (resumed, (int(ckpt.metadata["step"]), from_step))):
            self._applied[0] += t.schedule_step - start[0]
            self._applied[1] += t.attempted - start[1]
        shutil.rmtree(run_dir)
        return wall

    def verify(self, gates: Gates) -> None:
        replay = Trainer(self.cfg, self.corpus)
        replay.train()
        first_of_seed = {}
        for i, run in enumerate(self.runs):
            _check_finite(gates, run["losses"], f"run {i}")
            ref = first_of_seed.setdefault(run["seed"], run)
            gates.check(run["losses"] == ref["losses"],
                        f"run {i}: losses differ from the first run at trainer seed {run['seed']}")
            gates.check(run["resume_exact"], f"run {i}: resume is not bit-exact")
        gates.check([r.loss for r in replay.records] == self.runs[0]["losses"],
                    "seed-0 replay losses differ from run 0")
        self.heldout_loss = float(np.mean([
            contrastive_loss(r["model"], *heldout_embeddings(r["model"], self.corpus))
            for r in self.runs[:LOSS_RUNS]]))

    def _untraced(self) -> list[dict]:
        return [r for r in self.runs if not r["traced"]]

    def metrics(self) -> dict[str, float]:
        runs = self._untraced()
        wall = statistics.median(r["wall"] for r in runs)
        return {"items_per_s": runs[0]["steps"] * self.cfg.batch_size / wall,
                "loss": self.heldout_loss}

    def named(self) -> list[tuple[str, float, str, str]]:
        runs = self._untraced()
        med, tail = median_tail([r["wall"] for r in runs])
        final = float(np.mean(self.runs[0]["losses"][-10:]))
        return [("smallbatch_steps_per_s", runs[0]["steps"] / med, "1/s",
                 f"train+resume {med:.4f}s {tail}"),
                ("smallbatch_final_loss", final, "nats",
                 "mean of the last 10 step losses at trainer seed 0")]

    def applied_ratio(self) -> float:
        return self._applied[0] / self._applied[1]


WORKLOADS = {w.name: w for w in (TrainMini, EvalZeroShot, SmallBatchCkpt)}


# -- per-layer metrics from the trace ---------------------------------------------------

# name -> (unit, better); values are medians over steps (training workloads) or
# over evaluate() reports, unless the README says per call
LAYER_METRICS = {
    "data.batch_ms": ("ms", "lower"),
    "data.crop_ms": ("ms", "lower"),
    "data.crops_per_step": ("count", "lower"),
    "data.load_corpus_s": ("s", "lower"),
    "encoders.image_fwd_ms.masked": ("ms", "lower"),
    "encoders.image_fwd_ms.unmasked": ("ms", "lower"),
    "encoders.kept_tokens": ("count", "lower"),
    "encoders.text_fwd_ms": ("ms", "lower"),
    "objective.loss_ms": ("ms", "lower"),
    "tensor.backward_ms.masked": ("ms", "lower"),
    "tensor.backward_ms.unmasked": ("ms", "lower"),
    "optim.step_ms": ("ms", "lower"),
    "optim.applied_ratio": ("ratio", "higher"),
    "trainer.step_self_ms": ("ms", "lower"),
    "trainer.init_s": ("s", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "evaluation.image_encode_calls": ("count", "lower"),
    "evaluation.class_embed_ms": ("ms", "lower"),
    "evaluation.score_ms": ("ms", "lower"),
    "evaluation.report_self_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.max_wall_gap_ms": ("ms", "lower"),
}


def _group_key(span: tracing.Span) -> tuple[str, int]:
    return ("step", span.step) if span.step >= 0 else ("op", span.op)


def layer_metrics(tracer: tracing.Tracer, op_walls: list[tuple[float, bool]],
                  applied_ratio: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer values plus one human-readable line per timed layer."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    in_ops = [i for i, s in enumerate(spans) if s.op >= 0]
    values: dict[str, float] = {}
    lines: list[str] = []

    def put(name: str, samples: list[float], scale: float = 1.0) -> None:
        samples = [x * scale for x in samples]
        values[name] = statistics.median(samples) if samples else 0.0
        if samples and LAYER_METRICS[name][0] in ("ms", "s"):
            lines.append(f"layer {name} median={values[name]:.6g} {median_tail(samples)[1]}")

    def per_group(pick, amount) -> list[float]:
        sums: dict[tuple[str, int], float] = {}
        for i in in_ops:
            if pick(spans[i]):
                key = _group_key(spans[i])
                sums[key] = sums.get(key, 0.0) + amount(i)
        return list(sums.values())

    def self_of(name, where=lambda s: True):
        return per_group(lambda s: s.name == name and where(s), lambda i: selfs[i])

    def step_masked(s):
        return s.step >= 0 and spans[s.step].attrs["masked"]

    def calls(name, column=None):
        return [(spans[i].attrs[column] if column else spans[i].duration)
                for i, s in enumerate(spans) if s.name == name]

    put("data.batch_ms", calls("data.batch"), 1e3)
    put("data.crop_ms", self_of("data.crop"), 1e3)
    put("data.crops_per_step", per_group(lambda s: s.name == "data.crop", lambda i: 1.0))
    put("data.load_corpus_s", calls("data.load_corpus"))
    put("encoders.image_fwd_ms.masked",
        self_of("encoders.image_fwd", lambda s: s.attrs["masked"]), 1e3)
    put("encoders.image_fwd_ms.unmasked",
        self_of("encoders.image_fwd", lambda s: not s.attrs["masked"]), 1e3)
    tokens = calls("encoders.image_fwd", "tokens")
    values["encoders.kept_tokens"] = float(np.mean(tokens)) if tokens else 0.0
    put("encoders.text_fwd_ms", self_of("encoders.text_fwd"), 1e3)
    put("objective.loss_ms", self_of("objective.loss"), 1e3)
    put("tensor.backward_ms.masked", self_of("tensor.backward", step_masked), 1e3)
    put("tensor.backward_ms.unmasked",
        self_of("tensor.backward", lambda s: not step_masked(s)), 1e3)
    put("optim.step_ms", self_of("optim.step"), 1e3)
    values["optim.applied_ratio"] = applied_ratio
    put("trainer.step_self_ms", [selfs[i] for i in in_ops if spans[i].name == "trainer.step"],
        1e3)
    put("trainer.init_s", calls("trainer.init"))
    put("checkpoint.save_ms", calls("checkpoint.save"), 1e3)
    put("checkpoint.load_ms", calls("checkpoint.load"), 1e3)
    put("checkpoint.bytes", calls("checkpoint.save", "bytes"))
    put("evaluation.image_encode_calls",
        per_group(lambda s: s.name == "encoders.image_fwd"
                  and _has_ancestor(spans, s, "evaluation.report"), lambda i: 1.0))
    put("evaluation.class_embed_ms", self_of("evaluation.class_embed"), 1e3)
    put("evaluation.score_ms", self_of("evaluation.score"), 1e3)
    put("evaluation.report_self_ms", self_of("evaluation.report"), 1e3)

    traced = [w for w, t in op_walls if t]
    plain = [w for w, t in op_walls if not t]
    overhead = statistics.median(traced) - statistics.median(plain)
    values["trace.overhead_ms"] = overhead * 1e3
    values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
    values["trace.max_wall_gap_ms"] = max(
        [1e3 * (s.duration - s.attrs["wall_time"]) for s in spans if s.name == "trainer.step"],
        default=0.0)
    return values, lines


def _has_ancestor(spans: list[tracing.Span], span: tracing.Span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def check_trace(gates: Gates, tracer: tracing.Tracer) -> None:
    """Spans nest, and each traced step's children plus its self time add up
    to the wall_time its StepRecord reports, within the stated slack."""
    problems = tracing.nesting_problems(tracer.spans)
    gates.check(not problems, f"trace nesting: {problems[:3]}")
    selfs = tracing.self_times(tracer.spans)
    children: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent >= 0:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    for i, s in enumerate(tracer.spans):
        if s.name != "trainer.step":
            continue
        total, wall = children.get(i, 0.0) + selfs[i], s.attrs["wall_time"]
        gates.check(abs(total - s.duration) < 1e-9
                    and -1e-6 <= total - wall <= WALL_GAP_ABS_S + WALL_GAP_REL * wall,
                    f"step span {i}: children+self {total:.6f}s vs wall_time {wall:.6f}s")


# -- one benchmark run ------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, scale: str,
        workdir: Path, out_dir: Path, fingerprint: dict) -> dict:
    """Set up, measure for ``seconds``, verify, print; return the result object."""
    def make(k: int) -> Workload:
        return WORKLOADS[name](seed, SIZES[scale], workdir / f"instance-{k}")

    wl = make(0)
    gates = Gates()
    tracer = tracing.Tracer()
    targets = tracing.layer_targets() if trace else []

    def section(traced: bool):
        return tracing.Rebinding(tracer, targets) if traced else contextlib.nullcontext()

    print(f"fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} scale {scale}")
    setup: list[float] = []

    def timed_setup(instance: Workload) -> None:
        op, tracer.op = tracer.op, -1
        with section(trace):
            t0 = time.perf_counter()
            instance.setup()
            setup.append(time.perf_counter() - t0)
        tracer.op = op

    timed_setup(wl)
    wl.warmup()

    walls: list[tuple[float, bool]] = []
    min_ops = 4 if trace else 3
    start = time.perf_counter()
    # an operation starts only if one more of the last one's length ends in time
    while len(walls) < min_ops or time.perf_counter() - start + walls[-1][0] <= seconds:
        traced = trace and len(walls) % 2 == 1
        tracer.op = len(walls)
        try:
            with section(traced):
                wall = wl.op(traced)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            gates.check(False, f"operation {len(walls)} raised")
            break
        gates.check(True, "")
        walls.append((wall, traced))
        if len(setup) < SETUP_REPEATS and (
                time.perf_counter() - start >= seconds * len(setup) / SETUP_REPEATS):
            timed_setup(make(len(setup)))
    rss = peak_rss_mb()
    while len(setup) < SETUP_REPEATS:
        timed_setup(make(len(setup)))
    complete = not gates.failed  # every operation returned
    if complete:
        try:
            wl.verify(gates)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            gates.check(False, "verification raised")
            complete = False
        if trace:
            check_trace(gates, tracer)

    metrics: dict[str, dict] = {}
    if complete:
        for row in wl.named():
            print(f"named {row[0]} {row[1]:.6g} {row[2]} ({row[3]})")
        if trace:
            values, lines = layer_metrics(tracer, walls, wl.applied_ratio())
            print("\n".join(lines))
            metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items()}
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
                {"fingerprint": fingerprint, "workload": name, "seed": seed,
                 "metrics": values, "spans": tracer.to_json()}) + "\n")
        else:
            values = {"setup_s": statistics.median(setup), "peak_rss_mb": rss, **wl.metrics()}
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    for failure in gates.failures:
        print(f"FAILED {failure}")
    for key, m in metrics.items():
        print(f"metric {key} {m['value']:.6g} {m['unit']}")
    print(f"metric error_rate {gates.failed / gates.attempted:.6g} ratio "
          f"({gates.failed} failed of {gates.attempted} operations and checks)")
    return {"correct": not gates.failed, "attempted": gates.attempted,
            "failed": gates.failed, "metrics": metrics}
