import gc
import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from deskclip import model as model_module
from deskclip import tensor as T
from deskclip import trainer as trainer_module
from deskclip.checkpoint import load_checkpoint
from deskclip.data import Batch, CorpusSpec, TokenizerSpec, generate_corpus, load_corpus
from deskclip.encoders import ImageEncoderConfig, MaskSpec, ModelConfig, TextEncoderConfig, assign_depth
from deskclip.errors import DimensionError, DivergenceError, InputError
from deskclip.model import ClipModel, MAX_LOG_SCALE, preset
from deskclip.optim import OptimizerConfig, Schedule, layer_scales, lr_at
from deskclip.trainer import (
    TrainConfig,
    Trainer,
    StepRecord,
    bench,
    build_param_groups,
    init_from_checkpoint,
    run_ablation,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec(num_classes=8, samples_per_class=6, image_size=32, seed=5,
                      caption_templates=("a photo of a {}",))
    return load_corpus(generate_corpus(spec, root))


def tiny_cfg(**kw):
    base = dict(
        model=preset("tiny"),
        optimizer=OptimizerConfig("lamb"),
        peak_lr_image=1e-3,
        peak_lr_text=1e-3,
        layer_decay_image=0.75,
        layer_decay_text=0.75,
        warmup_steps=5,
        total_steps=30,
        mask_ratio=0.0,
        batch_size=4,
        seed=1,
        augment=True,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestInitFromCheckpoint:
    def test_self_checkpoint_reload_loads_everything(self, corpus, tmp_path):
        trainer = Trainer(tiny_cfg(total_steps=6, warmup_steps=2), corpus)
        path = trainer.save(tmp_path / "self.bin")
        model = ClipModel.init(trainer.cfg.model, 99)
        report = init_from_checkpoint(model, load_checkpoint(path))
        assert sorted(report.loaded) == sorted(model.params)
        assert report.missing == [] and report.resampled == [] and report.unused == []
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, trainer.model.params[name].data)

    def test_resolution_change_resamples_only_positional_table(self, corpus, tmp_path):
        trainer = Trainer(tiny_cfg(total_steps=4, warmup_steps=1), corpus)
        path = trainer.save(tmp_path / "lowres.bin")
        # same towers at higher input resolution: 32px/8 grid 4 -> 48px/8 grid 6
        big = ModelConfig(
            image=ImageEncoderConfig(layers=2, width=64, heads=2, image_size=48, patch_size=8),
            text=TextEncoderConfig(layers=2, width=64, heads=2, vocab_size=259, context_length=32),
        )
        model = ClipModel.init(big, 123)
        report = init_from_checkpoint(model, load_checkpoint(path))
        assert report.resampled == ["image.pos_embed"]
        assert report.missing == []
        assert model.params["image.pos_embed"].shape == (1 + 36, 64)

    def test_text_only_checkpoint_leaves_image_fresh(self, corpus, tmp_path):
        trainer = Trainer(tiny_cfg(total_steps=4, warmup_steps=1), corpus)
        path = trainer.save(tmp_path / "full.bin")
        model = ClipModel.init(trainer.cfg.model, 7)
        fresh_patch = model.params["image.patch_embed.weight"].data.copy()
        report = init_from_checkpoint(model, load_checkpoint(path), towers=("text",))
        assert all(n.startswith("text.") for n in report.loaded)
        assert "image.patch_embed.weight" in report.missing
        assert "logit_scale" in report.missing
        np.testing.assert_array_equal(model.params["image.patch_embed.weight"].data, fresh_patch)

    def test_strict_mismatch_raises_named_error(self, corpus, tmp_path):
        trainer = Trainer(tiny_cfg(total_steps=4, warmup_steps=1), corpus)
        path = trainer.save(tmp_path / "small.bin")
        wider = ModelConfig(
            image=ImageEncoderConfig(layers=2, width=128, heads=2, image_size=32, patch_size=8),
            text=trainer.cfg.model.text,
        )
        model = ClipModel.init(wider, 3)
        with pytest.raises(DimensionError, match="image."):
            init_from_checkpoint(model, load_checkpoint(path), policy="strict")


class TestTrainStep:
    def test_fixed_seed_runs_are_identical(self, corpus):
        losses = []
        for _ in range(2):
            trainer = Trainer(tiny_cfg(total_steps=50, warmup_steps=5, mask_ratio=0.5), corpus)
            run = [trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4)).loss
                   for _ in range(50)]
            losses.append(run)
        assert losses[0] == losses[1]

    def test_injected_overflow_skips_step_and_halves_scale(self, corpus, inject_overflow):
        trainer = Trainer(tiny_cfg(), corpus)
        inject_overflow(trainer, {3})
        before_scale = trainer.scaler.scale
        snapshots = {}
        for i in range(5):
            if i == 3:
                snapshots = {n: p.data.copy() for n, p in trainer.model.params.items()}
            rec = trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))
            if i == 3:
                assert rec.overflow
                for name, p in trainer.model.params.items():
                    np.testing.assert_array_equal(p.data, snapshots[name])
            else:
                assert not rec.overflow
        assert trainer.scaler.scale == before_scale * 0.5
        # the skipped attempt did not advance the schedule or the sample count
        assert trainer.schedule_step == 4
        assert trainer.samples_seen == 4 * 4

    def test_step_records_appended_once_per_attempt(self, corpus, inject_overflow):
        trainer = Trainer(tiny_cfg(), corpus)
        inject_overflow(trainer, {1})
        for _ in range(4):
            trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))
        assert len(trainer.records) == 4
        assert [r.overflow for r in trainer.records] == [False, True, False, False]

    @pytest.mark.parametrize("kind", ["lamb", "adamw"])
    def test_masters_equal_tensors_after_clamped_steps(self, corpus, monkeypatch, kind):
        monkeypatch.setattr(model_module, "LOG_SCALE_INIT", MAX_LOG_SCALE)
        trainer = Trainer(tiny_cfg(optimizer=OptimizerConfig(kind), total_steps=8), corpus)
        real_backward = T.backward

        def backward(root):  # a temperature gradient that keeps pushing past the cap
            real_backward(root)
            trainer.model.logit_scale.grad[:] = -trainer.scaler.scale

        monkeypatch.setattr(T, "backward", backward)
        clamped = 0
        for _ in range(8):
            assert not trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4)).overflow
            clamped += trainer.model.logit_scale.item() == np.float32(MAX_LOG_SCALE)
            for name, p in trainer.model.trainable().items():
                np.testing.assert_array_equal(
                    trainer.opt.state[name].master.astype(np.float32), p.data, err_msg=name)
        assert clamped >= 6

    def test_read_only_gradients_train_bit_identically(self, corpus, monkeypatch):
        # nothing after backward may write into a gradient: freeze every leaf's
        # gradient and step beside a plain twin
        cfg = tiny_cfg(mask_ratio=0.5, total_steps=12)
        frozen, plain = Trainer(cfg, corpus), Trainer(cfg, corpus)
        real_backward = T.backward

        def backward(root):
            real_backward(root)
            for p in frozen.model.trainable().values():
                p.grad.flags.writeable = False

        for _ in range(6):
            with monkeypatch.context() as m:
                m.setattr(T, "backward", backward)
                got = frozen.train_step(frozen.stream.batch_at(frozen.attempted, 4))
            want = plain.train_step(plain.stream.batch_at(plain.attempted, 4))
            assert (got.loss, got.overflow) == (want.loss, want.overflow)
        for name, p in plain.model.params.items():
            assert frozen.model.params[name].data.tobytes() == p.data.tobytes(), name
        for name, arr in plain.opt.state_arrays().items():
            assert frozen.opt.state_arrays()[name].tobytes() == arr.tobytes(), name

    def test_logit_scale_never_exceeds_clamp(self, corpus):
        trainer = Trainer(tiny_cfg(total_steps=20), corpus)
        for _ in range(20):
            trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))
        for rec in trainer.records:
            assert rec.logit_scale <= math.exp(MAX_LOG_SCALE) + 1e-6


class TestScheduleInstrumentation:
    def test_recorded_lr_matches_analytic_at_every_step(self, corpus):
        cfg = tiny_cfg(total_steps=24, warmup_steps=8)
        trainer = Trainer(cfg, corpus)
        for _ in range(24):
            trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))
        for rec in trainer.records:
            assert rec.lrs["image"] == pytest.approx(lr_at(cfg.schedule, cfg.peak_lr_image, rec.step))
            assert rec.lrs["text"] == pytest.approx(lr_at(cfg.schedule, cfg.peak_lr_text, rec.step))

    def test_half_warmup_record_is_half_peak(self, corpus):
        cfg = tiny_cfg(total_steps=16, warmup_steps=8)
        trainer = Trainer(cfg, corpus)
        for _ in range(10):
            trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))
        rec = next(r for r in trainer.records if r.step == 4)
        assert rec.lrs["image"] == pytest.approx(0.5 * cfg.peak_lr_image)

    def test_effective_per_tensor_lr_is_layer_scaled(self, corpus):
        cfg = tiny_cfg(total_steps=12, warmup_steps=2)
        trainer = Trainer(cfg, corpus)
        trainer.train_step(trainer.stream.batch_at(0, 4))
        step_used = trainer.records[-1].step
        scales = layer_scales(cfg.layer_decay_image, cfg.model.image.layers)
        base = lr_at(cfg.schedule, cfg.peak_lr_image, step_used)
        eff = trainer.opt.last_effective_lrs
        assert eff["image.patch_embed.weight"] == pytest.approx(base * scales[0])
        assert eff["image.blocks.0.attn.q.weight"] == pytest.approx(base * scales[1])
        assert eff["image.blocks.1.attn.q.weight"] == pytest.approx(base * scales[2])
        assert eff["image.proj"] == pytest.approx(base * scales[-1])

    def test_samples_accounting_exact(self, corpus, tmp_path):
        cfg = tiny_cfg(total_steps=10, warmup_steps=2)
        trainer = Trainer(cfg, corpus, run_dir=tmp_path / "run")
        trainer.train()
        assert trainer.samples_seen == cfg.batch_size * cfg.total_steps
        meta = load_checkpoint(tmp_path / "run" / "final.bin").metadata
        assert meta["samples_seen"] == cfg.batch_size * cfg.total_steps

    def test_lamb_ablation_arms_step_alternately_on_step_wall_times(self, corpus, tmp_path, monkeypatch):
        real_save = trainer_module.save_checkpoint

        def slow_save(path, ckpt):  # each save takes longer than several tiny steps
            time.sleep(0.2)
            real_save(path, ckpt)

        lamb_steps = []  # (arm, wall_time) in the order the two LAMB arms stepped
        real_step = Trainer.train_step

        def logged_step(trainer, batch):
            record = real_step(trainer, batch)
            if trainer.run_dir.name in ("init-lamb", "init-lamb-mask"):
                lamb_steps.append((trainer.run_dir.name, record.wall_time))
            return record

        monkeypatch.setattr(trainer_module, "save_checkpoint", slow_save)
        monkeypatch.setattr(Trainer, "train_step", logged_step)
        report = run_ablation(tiny_cfg(total_steps=6, warmup_steps=2), corpus, tmp_path / "ablate")
        arms = {row["name"]: row for row in report["arms"]}
        # the masked arm steps only while its summed wall_time is behind, and the
        # unmasked arm steps again only once the masked arm has caught up
        unmasked = masked = 0.0
        for arm, wall in lamb_steps:
            if arm == "init-lamb":
                assert masked >= unmasked
                unmasked += wall
            else:
                assert masked < unmasked
                masked += wall
        last_masked = next(wall for arm, wall in reversed(lamb_steps) if arm == "init-lamb-mask")
        assert masked - last_masked < unmasked <= masked
        assert arms["init-lamb"]["steps"] == 6
        # slow saves count in neither arm, so the masked arm stops well short of its 24 steps
        assert arms["init-lamb"]["wall_seconds"] == unmasked
        assert arms["init-lamb-mask"]["wall_seconds"] == masked
        assert arms["init-lamb-mask"]["steps"] < 24


class TestCheckpointing:
    def test_save_load_save_is_byte_identical(self, corpus, tmp_path):
        trainer = Trainer(tiny_cfg(total_steps=6, warmup_steps=2), corpus)
        for _ in range(3):
            trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))
        p1 = trainer.save(tmp_path / "one.bin")
        ckpt = load_checkpoint(p1)
        from deskclip.checkpoint import save_checkpoint

        p2 = tmp_path / "two.bin"
        save_checkpoint(p2, ckpt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_is_bit_exact_for_ten_steps(self, corpus, tmp_path):
        cfg = tiny_cfg(total_steps=25, warmup_steps=5, mask_ratio=0.5)
        straight = Trainer(cfg, corpus)
        for _ in range(25):
            straight.train_step(straight.stream.batch_at(straight.attempted, 4))

        first = Trainer(cfg, corpus)
        for _ in range(15):
            first.train_step(first.stream.batch_at(first.attempted, 4))
        path = first.save(tmp_path / "mid.bin")

        resumed = Trainer(cfg, corpus)
        resumed.resume(load_checkpoint(path))
        for _ in range(10):
            resumed.train_step(resumed.stream.batch_at(resumed.attempted, 4))

        tail = [r.loss for r in straight.records[15:]]
        cont = [r.loss for r in resumed.records]
        assert tail == cont
        for name, p in straight.model.params.items():
            np.testing.assert_array_equal(p.data, resumed.model.params[name].data)

    @pytest.mark.parametrize("table, entry, value, error, match", [
        ("optimizer", "m/text.proj", np.zeros(7), DimensionError, "'m/text.proj'.*7 values"),
        ("optimizer", "t/text.proj", np.array([np.nan]), InputError, "'t/text.proj'.*step count"),
        ("optimizer", "t/text.proj", np.array([1.5]), InputError, "'t/text.proj'.*step count"),
        ("metadata", "step", "x", InputError, "'step'.*non-negative integer"),
        ("metadata", "samples_seen", -1, InputError, "'samples_seen'.*non-negative integer"),
        ("metadata", "scaler", {"scale": -1.0}, InputError, "'scaler'"),
        ("metadata", "scaler", {"scale": float("nan")}, InputError, "'scaler'"),
        ("metadata", "rng_state", {"bit_generator": "PCG64"}, InputError, "'rng_state'"),
    ], ids=["wrong-size", "nan-t", "fractional-t", "text-step", "negative-samples", "bad-scaler",
            "nan-scale", "bad-rng-state"])
    def test_bad_entry_rejected_before_restoring(self, corpus, tmp_path, table, entry, value,
                                                 error, match):
        source = Trainer(tiny_cfg(total_steps=6, warmup_steps=2), corpus)
        for _ in range(2):
            source.train_step(source.stream.batch_at(source.attempted, 4))
        ckpt = load_checkpoint(source.save(tmp_path / "src.bin"))
        getattr(ckpt, table)[entry] = value

        target = Trainer(tiny_cfg(total_steps=6, warmup_steps=2), corpus)
        params = {n: p.data.copy() for n, p in target.model.params.items()}
        state = {n: a.copy() for n, a in target.opt.state_arrays().items()}
        rng_state, scaler = target.rng_step.bit_generator.state, target.scaler
        with pytest.raises(error, match=match):
            target.resume(ckpt)
        for name, data in params.items():
            np.testing.assert_array_equal(target.model.params[name].data, data, err_msg=name)
        for name, arr in target.opt.state_arrays().items():
            np.testing.assert_array_equal(arr, state[name], err_msg=name)
        assert (target.schedule_step, target.attempted, target.samples_seen) == (0, 0, 0)
        assert target.rng_step.bit_generator.state == rng_state and target.scaler is scaler

    def test_step_log_parseable_without_library(self, corpus, tmp_path):
        cfg = tiny_cfg(total_steps=5, warmup_steps=1)
        trainer = Trainer(cfg, corpus, run_dir=tmp_path / "run")
        trainer.train()
        lines = (tmp_path / "run" / "steps.jsonl").read_text().strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"step", "loss", "lrs", "logit_scale", "overflow", "tokens", "wall_time"}

    def test_step_log_not_held_open_between_steps(self, corpus, tmp_path):
        trainer = Trainer(tiny_cfg(total_steps=5, warmup_steps=1), corpus, run_dir=tmp_path / "run")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            trainer.train_step(trainer.stream.batch_at(0, 4))
            del trainer  # stepped without train(), as a caller that stops early would
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
        assert len((tmp_path / "run" / "steps.jsonl").read_text().splitlines()) == 1


class TestConfig:
    def test_flat_round_trip(self):
        cfg = tiny_cfg(mask_ratio=0.5, init_policy="scratch", schedule_shape="linear")
        assert TrainConfig.from_flat(cfg.to_flat()) == cfg

    def test_unknown_key_rejected(self):
        flat = tiny_cfg().to_flat()
        flat["bogus_knob"] = 3
        with pytest.raises(InputError):
            TrainConfig.from_flat(flat)

    def test_vocab_mismatch_with_byte_tokenizer_rejected(self, corpus):
        cfg = tiny_cfg(model=preset("B/16"))
        with pytest.raises(InputError):
            Trainer(cfg, corpus)

    @pytest.mark.parametrize("field, value, key", [("channels", 1, "image_channels"),
                                                   ("image_size", 16, "image_size")])
    def test_image_shape_must_fit_the_corpus(self, corpus, tmp_path, field, value, key):
        tiny = preset("tiny")
        cfg = tiny_cfg(model=replace(tiny, image=replace(tiny.image, **{field: value})))
        with pytest.raises(InputError, match=rf"^config key {key}: {value} does not fit the data's "
                                             rf"{corpus.manifest[field]}$"):
            Trainer(cfg, corpus, run_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_a_step_builds_no_config(self, corpus, monkeypatch):
        # the schedule and the mask are built once, by the trainer
        trainer = Trainer(tiny_cfg(mask_ratio=0.5), corpus)

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built during a step")

        for cls in (Schedule, MaskSpec, TokenizerSpec):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        for _ in range(2):
            trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))


class TestParamGroups:
    def test_groups_partition_and_depths(self, corpus):
        cfg = tiny_cfg()
        model = ClipModel.init(cfg.model, 0)
        groups = build_param_groups(model, cfg)
        names = sorted(n for g in groups for n in g.member_names)
        assert names == sorted(model.params)
        image = next(g for g in groups if g.name == "image")
        layers = cfg.model.image.layers
        scales = layer_scales(cfg.layer_decay_image, layers)
        for name, depth in (("image.pos_embed", 0), ("image.blocks.1.mlp.fc.weight", 2),
                            ("image.final_norm.gain", layers + 1)):
            assert assign_depth(name[len("image."):], layers) == depth
            assert image.lr_scales[name] == scales[depth]
        scale_group = next(g for g in groups if g.name == "logit_scale")
        assert scale_group.lr_scales.get("logit_scale", 1.0) == 1.0


class TestBench:
    def test_report_structure_and_methodology(self, corpus):
        cfg = tiny_cfg(batch_size=8, mask_ratio=0.5)
        report = bench(cfg, corpus, steps=8, warmup=2)
        assert report["steps_timed"] == 8
        assert report["warmup_excluded"] == 2
        for label in ("unmasked", "masked"):
            row = report[label]
            assert row["median_step_seconds"] > 0
            assert row["seconds_per_1m_samples"] == pytest.approx(
                row["median_step_seconds"] / 8 * 1e6)
        assert report["masked"]["mask_ratio"] == 0.5
        assert report["peak_rss_kb"] > 0

    def test_quartiles_bracket_the_median(self, corpus):
        report = bench(tiny_cfg(batch_size=8, mask_ratio=0.5), corpus, steps=6, warmup=1)
        for label in ("unmasked", "masked"):
            row = report[label]
            assert row["q1_step_seconds"] <= row["median_step_seconds"] <= row["q3_step_seconds"]
            assert row["iqr_step_seconds"] == row["q3_step_seconds"] - row["q1_step_seconds"]

    def test_repeated_runs_agree_within_ten_percent(self, corpus):
        from deskclip.model import preset as model_preset

        cfg = tiny_cfg(model=model_preset("mini"), batch_size=32, mask_ratio=0.5,
                       total_steps=40)
        ratios = [bench(cfg, corpus, steps=10, warmup=3)["step_time_ratio"] for _ in range(2)]
        assert abs(ratios[0] - ratios[1]) / ratios[0] < 0.10


class TestDivergence:
    def test_scale_floor_raises_with_recent_records(self, corpus, inject_overflow):
        from deskclip.errors import DivergenceError

        trainer = Trainer(tiny_cfg(), corpus)
        for _ in range(12):
            trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))
        trainer.scaler.scale = 2.0**-20
        inject_overflow(trainer, {trainer.attempted})
        with pytest.raises(DivergenceError) as err:
            trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4))
        assert len(err.value.records) == 10
        assert all(hasattr(r, "loss") for r in err.value.records)

    def test_nan_loss_backs_the_scale_off_until_the_floor_raises(self, corpus):
        # NaN images make the loss and the gradients NaN; each attempt is an
        # overflow, and the scaler's floor is the one rule that ends the run
        trainer = Trainer(tiny_cfg(scale_init=2.0**-16), corpus)
        for _ in range(12):
            assert not trainer.train_step(trainer.stream.batch_at(trainer.attempted, 4)).overflow
        good = trainer.stream.batch_at(trainer.attempted, 4)
        poisoned = Batch(np.full_like(good.images, np.nan), good.token_ids)
        with pytest.raises(DivergenceError, match="floor") as err:
            for _ in range(10):
                trainer.train_step(poisoned)
        # 2^-16 halves to 2^-20 in four recorded attempts; the fifth falls below the floor
        assert trainer.scaler.scale == 2.0**-21
        assert len(err.value.records) == 10
        assert [r.overflow for r in err.value.records] == [False] * 6 + [True] * 4
        assert all(math.isnan(r.loss) for r in err.value.records[-4:])
