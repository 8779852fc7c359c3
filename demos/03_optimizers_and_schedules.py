"""LAMB vs AdamW on a convex quadratic, layer-wise LR decay profiles, warmup
schedules, and the dynamic loss-scaler state machine."""

import numpy as np

from deskclip.optim import (
    LossScalerState,
    Optimizer,
    OptimizerConfig,
    ParamGroup,
    Schedule,
    layer_scales,
    lr_at,
    scaler_update,
)
from deskclip.tensor import Tensor

# -- drive a quadratic to its minimizer ------------------------------------------
rng = np.random.default_rng(1)
a = rng.standard_normal((10, 10))
a = a @ a.T / 10 + np.eye(10)
w_star = rng.standard_normal(10)

for kind in ("lamb", "adamw"):
    p = Tensor(rng.standard_normal(10).astype(np.float32), requires_grad=True)
    opt = Optimizer({"w": p}, [ParamGroup("all", ["w"], peak_lr=0.05)],
                    OptimizerConfig(kind, weight_decay=0.0))
    sched = Schedule(warmup_steps=100, total_steps=4000, shape="cosine")
    for step in range(4000):
        p.grad = (a @ (p.data.astype(np.float64) - w_star)).astype(np.float32)
        opt.step({"all": lr_at(sched, 0.05, step)}, grad_scale=1.0)
        p.grad = None
    dist = np.linalg.norm(p.data.astype(np.float64) - w_star)
    print(f"{kind:5s}: |w - w*| = {dist:.2e} after 4000 cosine-decayed steps")

# -- layer-wise decay profile -------------------------------------------------------
scales = layer_scales(0.75, 12)
print("\nper-depth LR scales at decay 0.75 over 12 blocks:")
print("  embeddings", f"{scales[0]:.6f}", " block 1", f"{scales[1]:.4f}",
      " block 12", f"{scales[12]:.4f}", " head", f"{scales[13]:.1f}")

# -- warmup then decay ----------------------------------------------------------------
sched = Schedule(warmup_steps=2000, total_steps=10000, shape="cosine")
for step in (0, 1000, 2000, 6000, 10000):
    print(f"  lr at step {step:>5d}: {lr_at(sched, 4e-4, step):.2e}")

# -- loss scaler ------------------------------------------------------------------------
state = LossScalerState(scale=2.0**15, growth_interval=4)
print("\nloss-scaler walk (growth every 4 good steps, halve on overflow):")
for overflow in (False, False, False, False, True, False):
    effective = scaler_update(state, overflow)
    print(f"  overflow={overflow!s:5s} -> scale 2^{np.log2(state.scale):.0f}, "
          f"step {'applied' if effective else 'skipped'}")
