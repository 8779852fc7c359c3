import math

import numpy as np
import pytest

from deskclip.errors import ContractError, DivergenceError, RangeError
from deskclip.optim import (
    LossScalerState,
    MomentState,
    Optimizer,
    OptimizerConfig,
    ParamGroup,
    Schedule,
    adamw_step,
    default_decay_exempt,
    lamb_step,
    layer_scales,
    lr_at,
    scaler_update,
)
from deskclip.tensor import Tensor

TABLE_CFG = dict(beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=0.05)


def scalar_oracle(kind, grads, w0=1.0, lr=1e-2, beta1=0.9, beta2=0.98, eps=1e-6, wd=0.05,
                  force_phi=None):
    """Independent 64-bit implementation of the update recurrences."""
    w, m, v = float(w0), 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        g = float(g)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        core = m_hat / (math.sqrt(v_hat) + eps)
        if kind == "lamb":
            u = core + wd * w
            if force_phi is not None:
                phi = force_phi
            else:
                phi = abs(w) / abs(u) if w != 0.0 and u != 0.0 else 1.0
            w = w - lr * phi * u
        else:
            w = w - lr * core - lr * wd * w
        trace.append(w)
    return trace


class TestLambStep:
    def test_zero_gradient_zero_decay_is_identity(self):
        cfg = OptimizerConfig("lamb", weight_decay=0.0)
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        before = p.data.copy()
        st = MomentState.fresh(p)
        assert lamb_step(p, np.zeros(2, dtype=np.float32), st, cfg, lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_matches_scalar_oracle_over_100_steps(self):
        cfg = OptimizerConfig("lamb", **TABLE_CFG)
        grads = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        st = MomentState.fresh(p)
        oracle = scalar_oracle("lamb", grads, lr=1e-2)
        for g, expected in zip(grads, oracle):
            lamb_step(p, np.array([g]), st, cfg, lr=1e-2)
            assert abs(float(p.data[0]) - expected) / max(abs(expected), 1e-12) < 1e-6

    def test_first_step_closed_form(self):
        # w=1, g=1, lr=0.1, no decay: m_hat=1, v_hat=1, u=1/(1+eps), phi=1/|u|
        cfg = OptimizerConfig("lamb", beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=0.0)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        lamb_step(p, np.array([1.0], dtype=np.float32), st := MomentState.fresh(p), cfg, lr=0.1)
        u = 1.0 / (1.0 + 1e-6)
        expected = 1.0 - 0.1 * (1.0 / u) * u
        assert float(p.data[0]) == pytest.approx(expected, rel=1e-7)

    def test_nonfinite_gradient_signals_overflow_without_mutation(self):
        cfg = OptimizerConfig("lamb", **TABLE_CFG)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        st = MomentState.fresh(p)
        assert not lamb_step(p, np.array([np.inf]), st, cfg, lr=0.1)
        assert float(p.data[0]) == 1.0 and st.t == 0


class TestAdamwStep:
    def test_zero_gradient_zero_decay_is_identity(self):
        cfg = OptimizerConfig("adamw", weight_decay=0.0)
        p = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        adamw_step(p, np.zeros(1, dtype=np.float32), MomentState.fresh(p), cfg, lr=0.1)
        assert float(p.data[0]) == 3.0

    def test_matches_scalar_oracle_over_100_steps(self):
        cfg = OptimizerConfig("adamw", **TABLE_CFG)
        grads = np.random.default_rng(1).standard_normal(100).astype(np.float32)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        st = MomentState.fresh(p)
        oracle = scalar_oracle("adamw", grads, lr=1e-2)
        for g, expected in zip(grads, oracle):
            adamw_step(p, np.array([g]), st, cfg, lr=1e-2)
            assert abs(float(p.data[0]) - expected) / max(abs(expected), 1e-12) < 1e-6

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_lamb_with_unit_trust_ratio_equals_adamw_exactly(self, weight_decay):
        cfg = OptimizerConfig("lamb", beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=weight_decay)
        acfg = OptimizerConfig("adamw", beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=weight_decay)
        rng = np.random.default_rng(2)
        pa = Tensor(rng.standard_normal(64).astype(np.float32), requires_grad=True)
        pb = Tensor(pa.data.copy(), requires_grad=True)
        sa, sb = MomentState.fresh(pa), MomentState.fresh(pb)
        for _ in range(100):
            g = rng.standard_normal(64).astype(np.float32)
            lamb_step(pa, g, sa, cfg, lr=1e-2, force_trust_ratio=1.0)
            adamw_step(pb, g, sb, acfg, lr=1e-2)
            assert pa.data.tobytes() == pb.data.tobytes()
            assert sa.master.tobytes() == sb.master.tobytes()


class TestLayerScales:
    def test_unit_decay_gives_all_ones(self):
        np.testing.assert_array_equal(layer_scales(1.0, 12), np.ones(14))

    def test_published_decay_profile(self):
        scales = layer_scales(0.75, 12)
        assert scales[-1] == 1.0
        assert scales[-2] == pytest.approx(0.75)
        assert scales[0] == pytest.approx(0.75**13)  # 0.023757264
        assert scales[0] == pytest.approx(0.023757264, rel=1e-6)

    def test_strictly_increasing_for_decay_below_one(self):
        scales = layer_scales(0.9, 6)
        assert np.all(np.diff(scales) > 0)


class TestLrAt:
    SCHED = Schedule(warmup_steps=2000, total_steps=10000, shape="cosine")

    def test_half_warmup_is_half_peak(self):
        assert lr_at(self.SCHED, 4e-4, 1000) == pytest.approx(2e-4)

    def test_zero_at_step_zero_and_total(self):
        for shape in ("cosine", "linear"):
            s = Schedule(2000, 10000, shape)
            assert lr_at(s, 1.0, 0) == 0.0
            assert lr_at(s, 1.0, 10000) == pytest.approx(0.0, abs=1e-12)

    def test_peak_at_warmup_boundary(self):
        assert lr_at(self.SCHED, 1.0, 2000) == pytest.approx(1.0)

    def test_cosine_midpoint_is_half_peak(self):
        assert lr_at(self.SCHED, 1.0, 6000) == pytest.approx(0.5)

    def test_step_beyond_total_raises(self):
        with pytest.raises(RangeError):
            lr_at(self.SCHED, 1.0, 10001)


class TestLossScaler:
    def test_backoff_halves_and_skips(self):
        st = LossScalerState(scale=2.0**15)
        assert scaler_update(st, overflow=True) is False
        assert st.scale == 2.0**14
        assert st.good_steps == 0

    def test_growth_after_interval(self):
        st = LossScalerState(scale=2.0**10, growth_interval=2000)
        doubled_at = []
        for i in range(2000):
            scaler_update(st, overflow=False)
            if st.scale != 2.0**10:
                doubled_at.append(i)
        assert st.scale == 2.0**11
        assert doubled_at == [1999]

    def test_alternating_overflow_never_grows(self):
        st = LossScalerState(scale=2.0**10, growth_interval=2)
        for _ in range(8):
            scaler_update(st, overflow=False)
            scaler_update(st, overflow=True)
        assert st.scale == 2.0**10 * 0.5**8

    def test_underflow_is_fatal(self):
        st = LossScalerState(scale=2.0**-20)
        with pytest.raises(DivergenceError):
            scaler_update(st, overflow=True)


class TestOptimizerInvariants:
    def test_decay_exempt_tensors_are_fixed_points(self):
        cfg = OptimizerConfig("lamb", **TABLE_CFG)
        bias = Tensor(np.array([0.3, -0.7], dtype=np.float32), requires_grad=True)
        opt = Optimizer(
            {"norm1.bias": bias},
            [ParamGroup("g", ["norm1.bias"], peak_lr=1.0)],
            cfg,
        )
        before = bias.data.copy()
        for _ in range(10):
            bias.grad = np.zeros(2, dtype=np.float32)
            opt.step({"g": 1.0}, grad_scale=1.0)
        np.testing.assert_array_equal(bias.data, before)

    def test_default_exemptions(self):
        assert default_decay_exempt("image.blocks.0.norm1.gain")
        assert default_decay_exempt("text.blocks.3.mlp.fc.bias")
        assert default_decay_exempt("logit_scale")
        assert not default_decay_exempt("image.blocks.0.mlp.fc.weight")
        assert not default_decay_exempt("image.pos_embed")

    def test_lamb_direction_invariant_to_gradient_rescaling(self):
        cfg = OptimizerConfig("lamb", beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=0.0)
        g = np.random.default_rng(3).standard_normal(16).astype(np.float32)

        def run(scale):
            p = Tensor(np.ones(16, dtype=np.float32), requires_grad=True)
            st = MomentState.fresh(p)
            prev = p.data.astype(np.float64)
            for _ in range(220):
                prev = p.data.astype(np.float64).copy()
                lamb_step(p, g * scale, st, cfg, lr=1e-4)
            return p.data.astype(np.float64) - prev

        d1, d10 = run(1.0), run(10.0)
        cos = d1 @ d10 / (np.linalg.norm(d1) * np.linalg.norm(d10))
        assert cos > 0.999

    @pytest.mark.parametrize("kind", ["lamb", "adamw"])
    def test_quadratic_reaches_minimizer(self, kind):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((10, 10))
        a = a @ a.T / 10 + np.eye(10)
        w_star = rng.standard_normal(10)
        p = Tensor(rng.standard_normal(10).astype(np.float32), requires_grad=True)
        opt = Optimizer(
            {"w": p},
            [ParamGroup("all", ["w"], peak_lr=0.05)],
            OptimizerConfig(kind, beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=0.0),
        )
        sched = Schedule(warmup_steps=100, total_steps=4000, shape="cosine")
        for s in range(4000):
            p.grad = (a @ (p.data.astype(np.float64) - w_star)).astype(np.float32)
            opt.step({"all": lr_at(sched, 0.05, s)}, grad_scale=1.0)
            p.grad = None
        assert np.linalg.norm(p.data.astype(np.float64) - w_star) < 1e-6

    def test_groups_must_partition_params(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ContractError):
            Optimizer({"a": p, "b": q}, [ParamGroup("g", ["a"], peak_lr=1.0)], OptimizerConfig())


class TestOptimizerReadsGradients:
    """``Optimizer.step`` unscales out of place: the gradients are only read."""

    def make(self, kind="lamb"):
        rng = np.random.default_rng(4)
        params = {"w": Tensor(rng.standard_normal((3, 5)).astype(np.float32), requires_grad=True),
                  "w.bias": Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)}
        opt = Optimizer(params, [ParamGroup("g", list(params), peak_lr=1e-2)], OptimizerConfig(kind))
        for p in params.values():
            p.grad = rng.standard_normal(p.shape).astype(np.float32) * np.float32(2.0**10)
        return params, opt

    @pytest.mark.parametrize("kind", ["lamb", "adamw"])
    def test_step_leaves_gradient_bytes_unchanged(self, kind):
        params, opt = self.make(kind)
        before = {name: p.grad.tobytes() for name, p in params.items()}
        for p in params.values():
            p.grad.flags.writeable = False
        assert opt.step({"g": 1e-2}, grad_scale=2.0**10)
        assert {name: p.grad.tobytes() for name, p in params.items()} == before

    def test_adamw_step_updates_each_master_in_place(self):
        params, opt = self.make("adamw")
        masters = {name: opt.state[name].master for name in params}
        before = {name: master.copy() for name, master in masters.items()}
        assert opt.step({"g": 1e-2}, grad_scale=2.0**10)
        for name in params:
            assert opt.state[name].master is masters[name]
            assert not np.array_equal(masters[name], before[name])

    def test_step_matches_a_pre_unscaled_gradient(self):
        scaled, opt_scaled = self.make()
        plain, opt_plain = self.make()
        for p in plain.values():
            p.grad = p.grad * np.float32(2.0**-10)
        assert opt_scaled.step({"g": 1e-2}, grad_scale=2.0**10)
        assert opt_plain.step({"g": 1e-2}, grad_scale=1.0)
        for name in scaled:
            assert scaled[name].data.tobytes() == plain[name].data.tobytes()
            assert opt_scaled.state[name].m.tobytes() == opt_plain.state[name].m.tobytes()

    def test_unscaling_overflow_to_inf_skips_the_whole_step(self):
        # 3e38 is finite in float32, but 3e38 / 2^-4 is not: the verdict reads the quotient
        params, opt = self.make()
        params["w"].grad = np.full((3, 5), 3e38, dtype=np.float32)
        data = {name: p.data.tobytes() for name, p in params.items()}
        state = {name: arr.tobytes() for name, arr in opt.state_arrays().items()}
        with np.errstate(over="ignore"):
            assert not opt.step({"g": 1e-2}, grad_scale=2.0**-4)
        assert {name: p.data.tobytes() for name, p in params.items()} == data
        assert {name: arr.tobytes() for name, arr in opt.state_arrays().items()} == state
