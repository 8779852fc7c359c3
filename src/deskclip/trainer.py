"""Training orchestration: init policies, masked contrastive steps, scheduling,
loss scaling, checkpointing, benchmarking, and the toy ablation workflow."""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import PAD_ID, VOCAB_SIZE, Batch, BatchStream, Corpus, TokenizerSpec, random_resized_crop
from .domains import check, within
from .encoders import MaskSpec, ModelConfig, interpolate_pos_embed, param_tables
from .errors import ContractError, DimensionError, DivergenceError, InputError
from .model import MAX_LOG_SCALE, ClipModel
from .objective import clamp_scale, clip_loss, similarity_logits
from .optim import (
    SCHEDULE_SHAPES,
    LossScalerState,
    Optimizer,
    OptimizerConfig,
    ParamGroup,
    Schedule,
    layer_scales,
    lr_at,
    scaler_update,
)
from .tensor import Tensor

INIT_POLICIES = ("scratch", "image-from-checkpoint", "both-from-checkpoint")
# the metadata Trainer.resume restores; Trainer.save writes them all
RESUME_METADATA = ("step", "attempted", "samples_seen", "rng_state", "scaler")


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    optimizer: OptimizerConfig = OptimizerConfig()
    peak_lr_image: float = within("[0, inf)", 2e-4)
    peak_lr_text: float = within("[0, inf)", 2e-5)
    layer_decay_image: float = within("(0, 1]", 0.75)
    layer_decay_text: float = within("(0, 1]", 0.75)
    schedule_shape: str = within(SCHEDULE_SHAPES, "cosine")
    warmup_steps: int = within("[0, inf)", 2000)
    total_steps: int = within("[1, inf)", 10000)
    mask_ratio: float = within("[0, 1)", 0.5)
    batch_size: int = within("[1, inf)", 64)
    seed: int = within("[0, inf)", 0)
    init_policy: str = within(INIT_POLICIES, "scratch")
    init_checkpoint: str = ""
    init_strict: bool = False
    augment: bool = True
    crop_scale_lo: float = within("(0, 1]", 0.9)
    crop_scale_hi: float = within("(0, 1]", 1.0)
    checkpoint_interval: int = within("[0, inf)", 0)  # 0 -> every 10% of total steps
    scale_init: float = within("(0, inf)", 2.0**15)
    scale_growth_interval: int = within("[1, inf)", 2000)
    data_manifest: str = ""

    __post_init__ = check  # so a value outside its domain fails before a run directory exists

    @property
    def schedule(self) -> Schedule:
        return Schedule(self.warmup_steps, self.total_steps, self.schedule_shape)

    def to_flat(self) -> dict:
        return {key: get(self) for key, get in _GETTERS}

    @classmethod
    def from_flat(cls, flat: dict) -> "TrainConfig":
        flat = dict(flat)
        values = {}
        for key, path, kind, required in _FLAT_KEYS:
            if key in flat:
                values[path] = coerce(kind, flat.pop(key), f"config key {key}")
            elif required:
                raise InputError(f"config key {key} is required")
        if flat:
            raise InputError(f"unknown config keys: {sorted(flat)}")
        return _build((), values)


# -- flat config schema, derived from the dataclass fields ------------------------


def _schema(cls: type, path: tuple[str, ...] = ()):
    """Yield ``(path, type, required)`` for every field below ``cls``, depth first."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        sub = path + (f.name,)
        yield sub, hints[f.name], f.default is MISSING and f.default_factory is MISSING
        if is_dataclass(hints[f.name]):
            yield from _schema(hints[f.name], sub)


# A leaf's flat key is its name prefixed by the name of the field holding it
# (model.image.layers -> image_layers); these keys predate that rule.
_LEGACY_KEYS = {
    "model.image.image_size": "image_size",
    "model.embed_dim": "embed_dim",
    "optimizer.beta1": "beta1",
    "optimizer.beta2": "beta2",
    "optimizer.weight_decay": "weight_decay",
}
_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")

_SCHEMA = list(_schema(TrainConfig))
_CONFIG_TYPES = {(): TrainConfig, **{p: t for p, t, _ in _SCHEMA if is_dataclass(t)}}
# (flat key, attribute path, type, required) per leaf, in field order
_FLAT_KEYS = [(_LEGACY_KEYS.get(".".join(p), "_".join(p[-2:])), p, t, required)
              for p, t, required in _SCHEMA if not is_dataclass(t)]
_GETTERS = [(key, attrgetter(".".join(p))) for key, p, _, _ in _FLAT_KEYS]
_KEY = {p: key for key, p, _, _ in _FLAT_KEYS}  # flat key of each leaf's attribute path


def coerce(kind: type, value, what: str):
    """``value`` as a ``kind``; raises ``InputError`` naming ``what`` if it is none.
    A string parses; any other value must convert to an equal one (a bool is no number)."""
    if kind is bool:
        if isinstance(value, bool):
            return value
        word = str(value).lower()
        if word not in _TRUE + _FALSE:
            raise InputError(f"{what}: {value!r} is not a boolean (true/false, yes/no, 1/0)")
        return word in _TRUE
    try:
        out = kind(value)
        if isinstance(value, str) or (not isinstance(value, bool) and out == value):
            return out
    except (TypeError, ValueError, OverflowError):  # int(inf), float(10**400)
        pass
    raise InputError(f"{what}: {value!r} is not a valid {kind.__name__}")


def _build(path: tuple[str, ...], values: dict):
    """Construct the config at ``path`` from leaf values keyed by attribute path."""
    cls = _CONFIG_TYPES[path]
    kwargs = {}
    for f in fields(cls):
        sub = path + (f.name,)
        if sub in _CONFIG_TYPES:
            kwargs[f.name] = _build(sub, values)
        elif sub in values:
            kwargs[f.name] = values[sub]
    try:
        return cls(**kwargs)
    except (ContractError, DimensionError) as err:  # raised by domains.check
        raise type(err)("config key " + err.render(*(_KEY[path + (n,)] for n in err.fields))) from None


@dataclass
class StepRecord:
    step: int
    loss: float
    lrs: dict[str, float]
    logit_scale: float
    overflow: bool
    tokens: int
    wall_time: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "StepRecord":
        return cls(**json.loads(line))


@dataclass
class LoadReport:
    loaded: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # left at fresh initialization
    resampled: list[str] = field(default_factory=list)
    unused: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (f"loaded {len(self.loaded)}, fresh {len(self.missing)}, "
                f"resampled {len(self.resampled)}, unused {len(self.unused)}")


def init_from_checkpoint(model: ClipModel, ckpt: Checkpoint, policy: str = "permissive",
                         towers: tuple[str, ...] = ("image", "text", "logit_scale")) -> LoadReport:
    """Copy name-and-shape-matched tensors; resample mismatched image
    positional tables; everything else stays freshly initialized (permissive)
    or raises (strict)."""
    if policy not in ("permissive", "strict"):
        raise ContractError(f"unknown init policy {policy!r}")
    report = LoadReport()
    for name, param in model.params.items():
        if not any(name == t or name.startswith(t + ".") for t in towers):
            report.missing.append(name)
            continue
        src = ckpt.tensors.get(name)
        if src is not None and tuple(src.shape) == tuple(param.shape):
            param.data = src.astype(np.float32)
            report.loaded.append(name)
            continue
        if (src is not None and name == "image.pos_embed"
                and src.ndim == 2 and src.shape[1] == param.shape[1]):
            try:
                param.data = interpolate_pos_embed(Tensor(src.astype(np.float32)), model.cfg.image.grid).data
                report.resampled.append(name)
                continue
            except DimensionError:  # not a square grid: left fresh, or refused below
                pass
        if policy == "strict":
            got = None if src is None else tuple(src.shape)
            raise DimensionError(f"{name}: checkpoint has {got}, model needs {tuple(param.shape)}")
        report.missing.append(name)
    report.unused = sorted(set(ckpt.tensors).difference(report.loaded, report.resampled))
    return report


def build_param_groups(model: ClipModel, cfg: TrainConfig) -> list[ParamGroup]:
    """One group per tower, each member's LR scaled by layer-wise decay of the
    depth its table declares, and an unscaled group for the logit scale."""
    groups, tables = [], param_tables(model.cfg)
    for tower, peak_lr, decay, layers in (
            ("image", cfg.peak_lr_image, cfg.layer_decay_image, model.cfg.image.layers),
            ("text", cfg.peak_lr_text, cfg.layer_decay_text, model.cfg.text.layers)):
        scales = layer_scales(decay, layers)
        lr_scales = {f"{tower}.{name}": float(scales[row.depth]) for name, row in tables[tower].items()}
        groups.append(ParamGroup(tower, list(lr_scales), peak_lr, lr_scales))
    return groups + [ParamGroup("logit_scale", ["logit_scale"], cfg.peak_lr_text)]


class Trainer:
    """Owns model, optimizer, scaler, and counters for one training run."""

    def __init__(self, cfg: TrainConfig, corpus: Corpus, run_dir: Path | None = None):
        for path, need in ((("model", "text", "vocab_size"), VOCAB_SIZE),  # ids the byte tokenizer emits
                           (("model", "image", "channels"), corpus.manifest["channels"]),
                           (("model", "image", "image_size"), corpus.manifest["image_size"])):
            if (have := attrgetter(".".join(path))(cfg)) != need:
                raise InputError(f"config key {_KEY[path]}: {have} does not fit the data's {need}")
        self.cfg = cfg
        self.corpus = corpus
        self.run_dir = Path(run_dir) if run_dir is not None else None
        init_ss, step_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        self.model = ClipModel.init(cfg.model, np.random.default_rng(init_ss))
        self.load_report: LoadReport | None = None
        if cfg.init_policy != "scratch":
            if not cfg.init_checkpoint:
                raise InputError(f"init_policy {cfg.init_policy!r} needs init_checkpoint")
            towers = ("image",) if cfg.init_policy == "image-from-checkpoint" else (
                "image", "text", "logit_scale")
            ckpt = load_checkpoint(cfg.init_checkpoint)
            self.load_report = init_from_checkpoint(
                self.model, ckpt, "strict" if cfg.init_strict else "permissive", towers)
        self.stream = BatchStream(
            corpus.train, TokenizerSpec(cfg.model.text.context_length), seed=cfg.seed)
        self.opt = Optimizer(self.model.trainable(), build_param_groups(self.model, cfg), cfg.optimizer)
        self.scaler = LossScalerState(scale=cfg.scale_init,
                                      growth_interval=cfg.scale_growth_interval)
        self.schedule = cfg.schedule
        self.mask = MaskSpec(cfg.mask_ratio) if cfg.mask_ratio > 0 else None
        self.rng_step = np.random.default_rng(step_ss)
        self.schedule_step = 0
        self.attempted = 0
        self.samples_seen = 0
        self.records: list[StepRecord] = []
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)

    # -- single step ---------------------------------------------------------

    def step(self) -> StepRecord:
        """The one rule for which batch attempt k trains on: stream positions k x batch_size on."""
        return self.train_step(self.stream.batch_at(self.attempted, self.cfg.batch_size))

    def train_step(self, batch: Batch) -> StepRecord:
        cfg = self.cfg
        t0 = time.perf_counter()
        images = batch.images
        if cfg.augment:
            images = np.stack([
                random_resized_crop(img, (cfg.crop_scale_lo, cfg.crop_scale_hi), self.rng_step)
                for img in images
            ])
        patches = cfg.model.image.n_patches
        image_tokens = 1 + (self.mask.kept_count(patches) if self.mask is not None else patches)
        img_emb = self.model.encode_image(images, mask=self.mask, rng=self.rng_step)
        txt_emb = self.model.encode_text(batch.token_ids)
        loss = clip_loss(similarity_logits(img_emb, txt_emb, self.model.logit_scale))
        loss_value = loss.item()

        T.backward(T.mul(loss, Tensor(np.float32(self.scaler.scale))))
        group_lrs = {g.name: lr_at(self.schedule, g.peak_lr, self.schedule_step)
                     for g in self.opt.groups}
        overflow = not self.opt.step(group_lrs, self.scaler.scale)
        if not overflow:
            clamp_scale(self.model.logit_scale)
            self.opt.adopt("logit_scale")
        try:
            scaler_update(self.scaler, overflow)
        except DivergenceError as err:
            err.records = self.records[-10:]
            raise
        step = self.schedule_step
        if not overflow:
            self.samples_seen += batch.images.shape[0]
            self.schedule_step += 1
        T.zero_grads(self.opt.params.values())
        self.attempted += 1
        wall_time = time.perf_counter() - t0
        record = StepRecord(
            step=step,
            loss=loss_value,
            lrs=group_lrs,
            logit_scale=float(np.exp(min(self.model.logit_scale.item(), MAX_LOG_SCALE))),
            overflow=overflow,
            tokens=len(images) * image_tokens + int((batch.token_ids != PAD_ID).sum()),
            wall_time=wall_time,
        )
        self.records.append(record)
        self._log(record)
        return record

    # -- full runs ------------------------------------------------------------

    def train(self) -> Path | None:
        """Step to total_steps, checkpointing every interval, then save final.bin."""
        cfg = self.cfg
        interval = cfg.checkpoint_interval or max(1, cfg.total_steps // 10)
        while self.schedule_step < cfg.total_steps:
            applied = not self.step().overflow
            if (self.run_dir is not None and applied
                    and self.schedule_step % interval == 0
                    and self.schedule_step < cfg.total_steps):
                self.save(self.run_dir / f"ckpt-{self.schedule_step:06d}.bin")
        final = None
        if self.run_dir is not None:
            final = self.run_dir / "final.bin"
            self.save(final)
        return final

    def _log(self, record: StepRecord) -> None:
        if self.run_dir is None:
            return
        with open(self.run_dir / "steps.jsonl", "a") as f:
            f.write(record.to_json() + "\n")

    # -- checkpointing -----------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        meta = {
            "format": "deskclip-checkpoint",
            "step": self.schedule_step,
            "attempted": self.attempted,
            "samples_seen": self.samples_seen,
            "log_scale": self.model.logit_scale.item(),
            "rng_state": self.rng_step.bit_generator.state,
            "scaler": asdict(self.scaler),
            "config": self.cfg.to_flat(),
        }
        ckpt = Checkpoint(
            tensors={name: p.data for name, p in self.model.params.items()},
            optimizer=self.opt.state_arrays(),
            metadata=meta,
        )
        save_checkpoint(path, ckpt)
        return Path(path)

    def resume(self, ckpt: Checkpoint) -> None:
        """Restore params, optimizer state, rng, and counters for bit-exact continuation.

        Every entry read here, every tensor's shape, every optimizer array's
        size and every counter, step count, scaler and rng state are checked
        before anything is restored, so a rejected checkpoint leaves the
        trainer as it was.
        """
        opt_sizes = {name: arr.size for name, arr in self.opt.state_arrays().items()}
        for what, table, names in (("tensor", ckpt.tensors, self.model.params),
                                   ("optimizer array", ckpt.optimizer, opt_sizes),
                                   ("metadata key", ckpt.metadata, RESUME_METADATA)):
            for name in names:
                if name not in table:
                    raise InputError(f"checkpoint has no {what} {name!r} to resume from")
        for name, param in self.model.params.items():
            src = ckpt.tensors[name]
            if tuple(src.shape) != tuple(param.shape):
                raise DimensionError(f"{name}: resume shape {src.shape} vs model {param.shape}")
        for name, want in opt_sizes.items():
            if ckpt.optimizer[name].size != want:
                raise DimensionError(f"optimizer array {name!r}: checkpoint has "
                                     f"{ckpt.optimizer[name].size} values, resume needs {want}")
        for name in (n for n in opt_sizes if n.startswith("t/")):
            t = float(ckpt.optimizer[name].flat[0])
            if not (math.isfinite(t) and t >= 0 and t == int(t)):
                raise InputError(f"optimizer array {name!r}: {t} is not a step count")
        meta = ckpt.metadata
        for key in ("step", "attempted", "samples_seen"):
            if type(meta[key]) is not int or meta[key] < 0:
                raise InputError(f"metadata key {key!r}: {meta[key]!r} is not a non-negative integer")
        try:
            scaler = LossScalerState(**meta["scaler"])
        except (TypeError, ContractError):
            raise InputError(f"metadata key 'scaler': {meta['scaler']!r} is not a loss scaler "
                             f"state") from None
        rng = np.random.default_rng(0)
        try:
            rng.bit_generator.state = meta["rng_state"]
        except (TypeError, ValueError, KeyError, OverflowError):
            raise InputError(f"metadata key 'rng_state': {meta['rng_state']!r} is not a "
                             f"{type(rng.bit_generator).__name__} state") from None
        for name, param in self.model.params.items():
            param.data = ckpt.tensors[name].astype(np.float32)
        self.opt.load_state_arrays(ckpt.optimizer)
        self.schedule_step = meta["step"]
        self.attempted = meta["attempted"]
        self.samples_seen = meta["samples_seen"]
        self.rng_step = rng
        self.scaler = scaler


# -- benchmarking -------------------------------------------------------------------


def bench(cfg: TrainConfig, corpus: Corpus, steps: int, warmup: int = 5) -> dict:
    """Median step time and its quartiles with masking on vs off; first
    ``warmup`` steps excluded.

    The two trainers step alternately, so drift in machine speed during the
    run hits both arms alike instead of skewing their ratio.
    """
    if steps < 1:
        raise ContractError(f"need at least 1 timed step, got {steps}")
    report: dict = {"steps_timed": steps, "warmup_excluded": warmup,
                    "batch_size": cfg.batch_size}
    arms = {label: (ratio, Trainer(replace(cfg, mask_ratio=ratio, warmup_steps=0,
                                           total_steps=warmup + steps,
                                           checkpoint_interval=0), corpus))
            for label, ratio in (("unmasked", 0.0), ("masked", cfg.mask_ratio or 0.5))}
    times: dict[str, list[float]] = {label: [] for label in arms}
    for _ in range(warmup + steps):
        for label, (_, trainer) in arms.items():
            times[label].append(trainer.step().wall_time)
    for label, (ratio, _) in arms.items():
        q1, med, q3 = (float(q) for q in np.percentile(times[label][warmup:], [25, 50, 75]))
        report[label] = {
            "mask_ratio": ratio,
            "q1_step_seconds": q1,
            "median_step_seconds": med,
            "q3_step_seconds": q3,
            "iqr_step_seconds": q3 - q1,
            "seconds_per_sample": med / cfg.batch_size,
            "seconds_per_1m_samples": med / cfg.batch_size * 1e6,
        }
    report["step_time_ratio"] = (
        report["masked"]["median_step_seconds"] / report["unmasked"]["median_step_seconds"])
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


# -- ablation workflow ------------------------------------------------------------------


def final_loss(records: list[StepRecord]) -> float:
    """Mean loss over the last ten attempted steps, overflowed ones left out."""
    tail = [r.loss for r in records[-10:] if not r.overflow]
    return float(np.mean(tail)) if tail else float("nan")


def run_ablation(cfg: TrainConfig, corpus: Corpus, run_dir: Path) -> dict:
    """Four-arm recipe comparison at toy scale, plus the stage-0 pretraining
    run that provides the initialization checkpoint (twice the arm budget,
    standing in for a separately pretrained model).

    Arms: from-scratch AdamW, initialized AdamW, initialized LAMB, and
    initialized LAMB with masking. The two LAMB arms step alternately: after
    each unmasked step, the masked arm steps until its summed step wall_time
    catches up, so its step count shows the masking speedup and drift in host
    speed hits both arms alike. Each arm trains in its own subdirectory of
    ``run_dir``.
    """

    def arm_row(trainer, final):
        return {
            "name": trainer.run_dir.name,
            "optimizer": trainer.cfg.optimizer.kind,
            "init": trainer.cfg.init_policy,
            "mask_ratio": trainer.cfg.mask_ratio,
            "steps": trainer.schedule_step,
            "final_loss": final_loss(trainer.records),
            "wall_seconds": sum(r.wall_time for r in trainer.records),
            "ckpt": str(final),
        }

    def run_arm(name, arm_cfg):
        trainer = Trainer(arm_cfg, corpus, run_dir=run_dir / name)
        return arm_row(trainer, trainer.train())

    # arms keep only their final checkpoint
    base = replace(cfg, init_policy="scratch", init_checkpoint="",
                   checkpoint_interval=10 * cfg.total_steps)
    lamb = base.optimizer if base.optimizer.kind == "lamb" else replace(base.optimizer, kind="lamb")
    adamw = replace(lamb, kind="adamw")
    mask_ratio = cfg.mask_ratio if cfg.mask_ratio > 0 else 0.5

    pre_row = run_arm("stage0-pretrain", replace(base, optimizer=lamb, mask_ratio=0.0,
                                                 total_steps=2 * cfg.total_steps))
    init = dict(init_policy="both-from-checkpoint", init_checkpoint=pre_row["ckpt"])
    arm1 = run_arm("scratch-adamw", replace(base, optimizer=adamw, mask_ratio=0.0))
    arm2 = run_arm("init-adamw", replace(base, optimizer=adamw, mask_ratio=0.0, **init))
    lamb_cfg = replace(base, optimizer=lamb, mask_ratio=0.0, **init)
    unmasked = Trainer(lamb_cfg, corpus, run_dir=run_dir / "init-lamb")
    masked = Trainer(replace(lamb_cfg, mask_ratio=mask_ratio, total_steps=cfg.total_steps * 4),
                     corpus, run_dir=run_dir / "init-lamb-mask")
    unmasked_s = masked_s = 0.0
    while unmasked.schedule_step < unmasked.cfg.total_steps:
        unmasked_s += unmasked.step().wall_time
        while masked_s < unmasked_s and masked.schedule_step < masked.cfg.total_steps:
            masked_s += masked.step().wall_time
    arm3, arm4 = (arm_row(t, t.save(t.run_dir / "final.bin")) for t in (unmasked, masked))

    report = {
        "arms": [pre_row, arm1, arm2, arm3, arm4],
        "checks": {
            "init_beats_scratch": arm2["final_loss"] < arm1["final_loss"],
            "masked_steps_multiple": arm4["steps"] / max(arm3["steps"], 1),
        },
    }
    (run_dir / "ablate.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (run_dir / "ablate.txt").write_text(format_ablation_table(report))
    return report


def format_ablation_table(report: dict) -> str:
    header = f"{'arm':<18} {'optimizer':<9} {'init':<22} {'mask':>5} {'steps':>6} {'loss':>8} {'wall s':>8}"
    lines = [header, "-" * len(header)]
    for row in report["arms"]:
        lines.append(
            f"{row['name']:<18} {row['optimizer']:<9} {row['init']:<22} "
            f"{row['mask_ratio']:>5.2f} {row['steps']:>6d} {row['final_loss']:>8.4f} "
            f"{row['wall_seconds']:>8.2f}"
        )
    checks = report["checks"]
    lines.append("")
    lines.append(f"init beats scratch: {checks['init_beats_scratch']}")
    lines.append(f"masked steps multiple at equal wall-clock: {checks['masked_steps_multiple']:.2f}x")
    return "\n".join(lines) + "\n"
