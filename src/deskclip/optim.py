"""LAMB and AdamW with layer-wise LR decay, warmup schedules, and loss scaling.

One update rule serves both: LAMB is the decoupled-decay AdamW step scaled by
a per-tensor trust ratio phi, and AdamW is that step at phi = 1. Moments and a
float64 master of each parameter are updated in place; the float32 tensors are
refreshed from the master after every applied step. Optimizer.step is the only
reader of gradients: it divides each by the loss scale out of place, in
float32, and skips the whole update if any quotient is non-finite. Masters
sync only where tensors are written from outside: ``Optimizer.adopt`` after
the logit-scale clamp, and the end of ``load_state_arrays`` on resume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import check, within
from .errors import ContractError, DivergenceError, RangeError
from .tensor import Tensor

SCALE_FLOOR = 2.0**-20
SCHEDULE_SHAPES = ("cosine", "linear")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = within(("lamb", "adamw"), "lamb")
    beta1: float = within("[0, 1)", 0.9)
    beta2: float = within("[0, 1)", 0.98)
    eps: float = within("(0, inf)", 1e-6)
    weight_decay: float = within("[0, inf)", 0.05)

    __post_init__ = check


def default_decay_exempt(name: str) -> bool:
    """Biases, norm gains, and the logit scale take no weight decay."""
    return name.endswith(".bias") or name.endswith(".gain") or name == "logit_scale"


@dataclass
class ParamGroup:
    name: str
    member_names: list[str]
    peak_lr: float
    lr_scales: dict[str, float] = field(default_factory=dict)  # member -> LR multiplier, 1.0 if absent


@dataclass(frozen=True)
class Schedule:
    warmup_steps: int = within("[0, inf)")
    total_steps: int = within("[1, inf)")
    shape: str = within(SCHEDULE_SHAPES, "cosine")

    __post_init__ = check


def lr_at(schedule: Schedule, peak: float, step: int) -> float:
    """Linear warmup 0 -> peak, then cosine or linear decay to exactly 0."""
    if step > schedule.total_steps:
        raise RangeError(f"step {step} beyond schedule total {schedule.total_steps}")
    if step < schedule.warmup_steps:
        return peak * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    t = 1.0 if span == 0 else (step - schedule.warmup_steps) / span
    if schedule.shape == "cosine":
        return peak * 0.5 * (1.0 + math.cos(math.pi * t))
    return peak * (1.0 - t)


def layer_scales(layer_decay: float, num_layers: int) -> np.ndarray:
    """Scale per depth index 0..num_layers+1; the head (last index) is 1."""
    if not 0.0 < layer_decay <= 1.0:
        raise ContractError(f"layer_decay must be in (0, 1], got {layer_decay}")
    exponents = num_layers + 1 - np.arange(num_layers + 2)
    return layer_decay**exponents


# -- per-tensor update rules ----------------------------------------------------


@dataclass
class MomentState:
    m: np.ndarray
    v: np.ndarray
    master: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, param: Tensor) -> "MomentState":
        w = param.data.astype(np.float64)
        return cls(m=np.zeros_like(w), v=np.zeros_like(w), master=w.copy())


def _update(param: Tensor, grad64: np.ndarray, state: MomentState, cfg: OptimizerConfig,
            lr: float, apply_decay: bool, trust_ratio: float | None) -> None:
    """One update of ``param`` from a finite float64 gradient, in place on the master:
    the AdamW step scaled by phi = ``trust_ratio``, or by LAMB's ||master|| / ||update||
    when that is None (AdamW passes 1)."""
    # in place, with the operands and rounding order of the scalar recurrences
    state.t += 1
    state.m *= cfg.beta1
    state.m += (1.0 - cfg.beta1) * grad64
    g2 = (1.0 - cfg.beta2) * grad64
    g2 *= grad64
    state.v *= cfg.beta2
    state.v += g2
    update = state.m / (1.0 - cfg.beta1**state.t)
    v_hat = np.divide(state.v, 1.0 - cfg.beta2**state.t, out=g2)
    np.sqrt(v_hat, out=v_hat)
    v_hat += cfg.eps
    update /= v_hat
    if apply_decay and cfg.weight_decay:
        update += cfg.weight_decay * state.master
    if trust_ratio is None:
        w_norm = float(np.linalg.norm(state.master))
        u_norm = float(np.linalg.norm(update))
        trust_ratio = w_norm / u_norm if w_norm > 0.0 and u_norm > 0.0 else 1.0
    update *= lr * trust_ratio
    state.master -= update
    param.data = state.master.astype(param.data.dtype)


def lamb_step(param: Tensor, grad: np.ndarray, state: MomentState, cfg: OptimizerConfig,
              lr: float, apply_decay: bool = True, force_trust_ratio: float | None = None) -> bool:
    """Trust-ratio update; returns False (step skipped) on non-finite gradients."""
    grad64 = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(grad64).all():
        return False
    _update(param, grad64, state, cfg, lr, apply_decay, force_trust_ratio)
    return True


def adamw_step(param: Tensor, grad: np.ndarray, state: MomentState, cfg: OptimizerConfig,
               lr: float, apply_decay: bool = True) -> bool:
    """Decoupled-decay Adam update: the LAMB step at trust ratio 1."""
    return lamb_step(param, grad, state, cfg, lr, apply_decay, force_trust_ratio=1.0)


class Optimizer:
    """Drives per-tensor updates over parameter groups with layer-wise decay."""

    def __init__(self, params: dict[str, Tensor], groups: list[ParamGroup], cfg: OptimizerConfig):
        grouped = [n for g in groups for n in g.member_names]
        if sorted(grouped) != sorted(params):
            missing = set(params) - set(grouped)
            extra = set(grouped) - set(params)
            raise ContractError(f"groups must partition params exactly (missing={missing}, extra={extra})")
        self.params = params
        self.groups = groups
        self.cfg = cfg
        self.state = {name: MomentState.fresh(p) for name, p in params.items()}
        # (name, group, LR multiplier, takes decay) per tensor, in group order
        self.members = [(name, g.name, g.lr_scales.get(name, 1.0), not default_decay_exempt(name))
                        for g in groups for name in g.member_names]
        self.trust_ratio = 1.0 if cfg.kind == "adamw" else None  # None: LAMB's norm ratio
        self.last_effective_lrs: dict[str, float] = {}

    def step(self, group_lrs: dict[str, float], grad_scale: float) -> bool:
        """Apply one update given lr_at() values per group from each gradient
        divided by the loss scale, out of place; if any quotient is non-finite,
        touch nothing and return False (the step's overflow verdict)."""
        inv = np.float32(1.0 / grad_scale)  # scales are powers of two; inf stays inf
        grads = {name: p.grad * inv for name, p in self.params.items() if p.grad is not None}
        if not all(np.isfinite(g).all() for g in grads.values()):
            return False
        self.last_effective_lrs = {}
        for name, group, lr_scale, apply_decay in self.members:
            param = self.params[name]
            grad64 = grads[name].astype(np.float64) if name in grads else np.zeros(param.shape)
            lr = group_lrs[group] * lr_scale
            _update(param, grad64, self.state[name], self.cfg, lr, apply_decay, self.trust_ratio)
            self.last_effective_lrs[name] = lr
        return True

    def adopt(self, name: str) -> None:
        """Take a write made to parameter ``name`` outside the optimizer into its master."""
        data, master = self.params[name].data, self.state[name].master
        changed = master.astype(data.dtype) != data
        master[changed] = data[changed].astype(np.float64)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flatten optimizer state for checkpointing (float64 payloads)."""
        out: dict[str, np.ndarray] = {}
        for name, st in self.state.items():
            out[f"m/{name}"] = st.m
            out[f"v/{name}"] = st.v
            out[f"master/{name}"] = st.master
            out[f"t/{name}"] = np.array([st.t], dtype=np.float64)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, st in self.state.items():
            st.m = arrays[f"m/{name}"].astype(np.float64).reshape(st.m.shape)
            st.v = arrays[f"v/{name}"].astype(np.float64).reshape(st.v.shape)
            st.master = arrays[f"master/{name}"].astype(np.float64).reshape(st.master.shape)
            st.t = int(arrays[f"t/{name}"][0])
            self.adopt(name)  # the loaded tensor wins where an older file saved a pre-clamp master


# -- dynamic loss scaling ---------------------------------------------------------


@dataclass
class LossScalerState:
    scale: float = within("(0, inf)", 2.0**15)
    good_steps: int = within("[0, inf)", 0)
    growth_interval: int = within("[1, inf)", 2000)
    growth_factor: float = within("(1, inf)", 2.0)
    backoff_factor: float = within("(0, 1)", 0.5)

    __post_init__ = check


def scaler_update(state: LossScalerState, overflow: bool) -> bool:
    """Advance the scaler state machine; True when the step counts as effective.
    Falling below the floor is the one divergence rule (a non-finite loss
    brings non-finite gradients, so it overflows every step until then)."""
    if overflow:
        state.scale *= state.backoff_factor
        state.good_steps = 0
        if state.scale < SCALE_FLOOR:
            raise DivergenceError(f"loss scale {state.scale} underflowed the 2^-20 floor")
        return False
    state.good_steps += 1
    if state.good_steps >= state.growth_interval:
        state.scale *= state.growth_factor
        state.good_steps = 0
    return True
