"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Budgets and tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from deskclip import cli
from deskclip import tensor as T
from deskclip.checkpoint import load_checkpoint
from deskclip.data import CorpusSpec, generate_corpus, load_corpus, to_float
from deskclip.encoders import EmbeddingOutput, image_param_shapes, text_param_shapes
from deskclip.evaluation import (
    build_class_embeddings,
    load_robustness_fixtures,
    make_text_encoder,
    recall_at_k,
    retrieval_report,
    robustness_gap,
    zero_shot_classify,
)
from deskclip.model import ClipModel, LOG_SCALE_INIT, preset
from deskclip.objective import clip_loss, similarity_logits
from deskclip.optim import MomentState, OptimizerConfig, adamw_step, lamb_step, layer_scales, lr_at
from deskclip.tensor import Tensor
from deskclip.trainer import TrainConfig, Trainer, bench

from test_optim import scalar_oracle
from test_tensor import OP_CASES, case_rng, rand_tensor
from test_evaluation import brute_force_recall


def report(criterion: str, detail: str):
    print(f"\n[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def overfit_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    spec = CorpusSpec(num_classes=8, samples_per_class=1, image_size=32, seed=0, eval_per_class=1)
    return load_corpus(generate_corpus(spec, root))


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    spec = CorpusSpec(num_classes=8, samples_per_class=32, image_size=32, seed=0)
    return load_corpus(generate_corpus(spec, root))


def four_pair_loss_probe(seed):
    """Contrastive loss over 4 pairs as a function of raw embeddings."""
    b, d = 4, 6
    select_img = np.eye(b, 2 * b, dtype=np.float32)
    select_txt = np.eye(b, 2 * b, k=b, dtype=np.float32)

    def f(x):
        img = T.l2_normalize_rows(T.matmul(Tensor(select_img, dtype=x.dtype), x))
        txt = T.l2_normalize_rows(T.matmul(Tensor(select_txt, dtype=x.dtype), x))
        scale = Tensor(np.array([1.5], dtype=np.float32), dtype=x.dtype)
        return clip_loss(similarity_logits(EmbeddingOutput(img), EmbeddingOutput(txt), scale))

    x = Tensor(np.random.default_rng(seed).standard_normal((2 * b, d)).astype(np.float32),
               requires_grad=True)
    return f, x


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        for name, shape, build in OP_CASES:
            rng = case_rng(name, seed)
            consts = {}

            def c(s):
                if s not in consts:
                    consts[s] = rng.standard_normal(s).astype(np.float32)
                return consts[s]

            proj = {}

            def f(x):
                out = build(x, c)
                if "r" not in proj:
                    proj["r"] = rng.standard_normal(out.shape).astype(np.float32)
                return T.tsum(T.mul(out, Tensor(proj["r"], dtype=x.dtype)))

            err = T.grad_check(f, rand_tensor(np.random.default_rng(seed * 37 + 11), shape), eps=1e-3)
            assert err < 1e-3, f"{name} seed {seed}: {err}"
            worst = max(worst, err)
        f, x = four_pair_loss_probe(seed)
        err = T.grad_check(f, x, eps=1e-3)
        assert err < 1e-3, f"4-pair contrastive seed {seed}: {err}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient fidelity took {elapsed:.1f}s"
    report("criterion 1 (gradient fidelity)",
           f"max rel error {worst:.2e} < 1e-3 over {len(OP_CASES)} ops + 4-pair loss, "
           f"10 seeds, {elapsed:.1f}s < 60s")


def test_criterion_2_optimizer_oracles():
    cfg_l = OptimizerConfig("lamb", beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=0.05)
    cfg_a = OptimizerConfig("adamw", beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=0.05)
    worst = 0.0
    for kind, cfg, step_fn in (("lamb", cfg_l, lamb_step), ("adamw", cfg_a, adamw_step)):
        grads = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        st = MomentState.fresh(p)
        oracle = scalar_oracle(kind, grads, lr=1e-2)
        for g, expected in zip(grads, oracle):
            step_fn(p, np.array([g]), st, cfg, lr=1e-2)
            rel = abs(float(p.data[0]) - expected) / max(abs(expected), 1e-12)
            assert rel < 1e-6, f"{kind}: {rel}"
            worst = max(worst, rel)

    pa = Tensor(np.array([0.5, -1.5, 2.0], dtype=np.float32), requires_grad=True)
    pb = Tensor(pa.data.copy(), requires_grad=True)
    sa, sb = MomentState.fresh(pa), MomentState.fresh(pb)
    zero_wd_l = OptimizerConfig("lamb", beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=0.0)
    zero_wd_a = OptimizerConfig("adamw", beta1=0.9, beta2=0.98, eps=1e-6, weight_decay=0.0)
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = rng.standard_normal(3).astype(np.float32)
        lamb_step(pa, g, sa, zero_wd_l, lr=1e-2, force_trust_ratio=1.0)
        adamw_step(pb, g, sb, zero_wd_a, lr=1e-2)
        np.testing.assert_array_equal(pa.data, pb.data)
    report("criterion 2 (optimizer oracles)",
           f"both optimizers within {worst:.2e} of the 64-bit scalar oracle over 100 steps; "
           "LAMB at unit trust ratio is bitwise AdamW")


def test_criterion_3_masking_speedup(bench_corpus):
    t0 = time.perf_counter()
    cfg = TrainConfig(model=preset("mini"), warmup_steps=0, total_steps=100,
                      mask_ratio=0.5, batch_size=64, seed=0)
    out = bench(cfg, bench_corpus, steps=20, warmup=5)
    elapsed = time.perf_counter() - t0
    ratio = out["step_time_ratio"]
    assert ratio <= 0.65, f"masked/unmasked step-time ratio {ratio:.3f} > 0.65"
    assert elapsed < 300.0, f"bench took {elapsed:.1f}s"
    report("criterion 3 (masking speedup)",
           f"median step-time ratio {ratio:.3f} <= 0.65 over 20 timed steps, {elapsed:.0f}s < 300s")


def test_criterion_4_loss_sanity_and_overfit(overfit_corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    b, d = 64, 1024

    def unit(n):
        x = rng.standard_normal((n, d))
        return (x / np.linalg.norm(x, axis=-1, keepdims=True)).astype(np.float32)

    scale = Tensor(np.array([LOG_SCALE_INIT], dtype=np.float32))
    loss0 = clip_loss(similarity_logits(
        EmbeddingOutput(Tensor(unit(b))), EmbeddingOutput(Tensor(unit(b))), scale)).item()
    assert abs(loss0 - math.log(b)) < 0.2

    cfg = TrainConfig(model=preset("tiny"), optimizer=OptimizerConfig("lamb"),
                      peak_lr_image=2e-3, peak_lr_text=2e-3,
                      warmup_steps=20, total_steps=500, mask_ratio=0.0,
                      batch_size=8, seed=0, augment=False)
    trainer = Trainer(cfg, overfit_corpus)
    trainer.train()
    start = trainer.records[0].loss
    tail = float(np.mean([r.loss for r in trainer.records[-10:]]))
    assert tail < 0.05, f"overfit tail loss {tail}"

    images = np.stack([to_float(r.image) for r in overfit_corpus.train])
    labels = np.array([r.class_id for r in overfit_corpus.train])
    captions = [r.caption.decode() for r in overfit_corpus.train]
    with T.no_grad():
        img_emb = trainer.model.encode_image(images).vector.data
    txt_emb = make_text_encoder(trainer.model)(captions)
    classes = build_class_embeddings(
        [captions[int(np.nonzero(labels == c)[0][0])] for c in range(8)], ["{}"],
        make_text_encoder(trainer.model))
    scored = zero_shot_classify(img_emb, classes, labels)
    assert scored["top1"] == 100.0
    retr = retrieval_report(img_emb, txt_emb, list(range(8)))
    assert retr["text_retrieval"][1] == 100.0
    assert retr["image_retrieval"][1] == 100.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"loss sanity took {elapsed:.1f}s"
    report("criterion 4 (loss sanity)",
           f"init loss {loss0:.3f} within 0.2 of ln 64 = {math.log(64):.3f}; 8-pair run "
           f"{start:.2f} -> {tail:.4f} < 0.05 in 500 steps; 100% top-1 and R@1; {elapsed:.0f}s < 300s")


def test_criterion_5_table_fixtures_and_recall_oracle():
    rows = load_robustness_fixtures()
    assert len(rows) == 15
    corrected = 0
    for row in rows:
        out = robustness_gap(row.reference, row.variants)
        assert f"{out['avg']:.1f}" == f"{row.avg:.1f}", row.model
        expected = row.corrected_delta if row.corrected_delta is not None else row.delta
        assert f"{out['delta']:.1f}" == f"{expected:.1f}", row.model
        corrected += row.corrected_delta is not None
    assert corrected == 1

    for seed in range(50):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((20, 7))
        g = rng.standard_normal((40, 7))
        truth = [list(rng.choice(40, size=rng.integers(1, 4), replace=False)) for _ in range(20)]
        got = recall_at_k(q, g, truth, ks=(1, 5, 10))
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        gn = g / np.linalg.norm(g, axis=1, keepdims=True)
        for k in (1, 5, 10):
            assert got[k] == pytest.approx(brute_force_recall(qn @ gn.T, truth, k))
    report("criterion 5 (table fixtures)",
           "all 15 published delta/avg rows reproduced at 1-decimal precision "
           "(one printed delta corrected for internal inconsistency, see fixtures file); "
           "recall matches the brute-force oracle on 50 random instances")


def test_criterion_6_parameter_counts():
    targets = {"B/16": (86e6, 63e6), "L/14": (304e6, 124e6)}
    details = []
    for name, (img_m, txt_m) in targets.items():
        cfg = preset(name)
        img = sum(int(np.prod(s)) for s in image_param_shapes(cfg.image, cfg.embed_dim).values())
        txt = sum(int(np.prod(s)) for s in text_param_shapes(cfg.text, cfg.embed_dim).values())
        assert abs(img - img_m) / img_m < 0.02, f"{name} image tower {img}"
        assert abs(txt - txt_m) / txt_m < 0.02, f"{name} text tower {txt}"
        details.append(f"{name} image {img / 1e6:.1f}M/text {txt / 1e6:.1f}M")
    report("criterion 6 (parameter counts)",
           "; ".join(details) + " all within 2% of the published 86M/63M and 304M/124M")


def test_criterion_7_recipe_mechanics(overfit_corpus, inject_overflow):
    cfg = TrainConfig(model=preset("tiny"), peak_lr_image=4e-4, peak_lr_text=4e-5,
                      layer_decay_image=0.75, layer_decay_text=0.75,
                      warmup_steps=2000, total_steps=4000, mask_ratio=0.0,
                      batch_size=2, seed=3, augment=False)
    trainer = Trainer(cfg, overfit_corpus)
    for _ in range(1001):
        trainer.train_step(trainer.stream.batch_at(trainer.attempted, cfg.batch_size))
    rec = next(r for r in trainer.records if r.step == 1000)
    assert rec.lrs["image"] == 0.5 * cfg.peak_lr_image
    assert rec.lrs["text"] == 0.5 * cfg.peak_lr_text

    scales = layer_scales(cfg.layer_decay_image, cfg.model.image.layers)
    base = lr_at(cfg.schedule, cfg.peak_lr_image, trainer.records[-1].step)
    eff = trainer.opt.last_effective_lrs
    assert eff["image.patch_embed.weight"] == pytest.approx(base * scales[0], rel=1e-12)
    assert eff["image.blocks.0.norm1.gain"] == pytest.approx(base * scales[1], rel=1e-12)
    assert eff["image.proj"] == pytest.approx(base * scales[-1], rel=1e-12)

    faulty = Trainer(replace(cfg, warmup_steps=2, total_steps=10), overfit_corpus)
    inject_overflow(faulty, {2})
    for i in range(3):
        if i == 2:
            before = {n: p.data.copy() for n, p in faulty.model.params.items()}
            scale_before = faulty.scaler.scale
        rec = faulty.train_step(faulty.stream.batch_at(faulty.attempted, 2))
    assert rec.overflow
    assert faulty.scaler.scale == scale_before * 0.5
    for name, p in faulty.model.params.items():
        np.testing.assert_array_equal(p.data, before[name])
    report("criterion 7 (recipe mechanics)",
           "lr at step 1000 of 2000-step warmup is exactly half peak; per-tensor LRs match "
           "layer_scales analytically; injected overflow halves the scale and skips the step")


def test_criterion_8_ablation_direction(tmp_path):
    t0 = time.perf_counter()
    spec = {
        "num_classes": 64, "samples_per_class": 16, "image_size": 32, "seed": 0,
        "caption_templates": ["a photo of a {}", "an image of a {}",
                              "a grainy picture of a {}", "one {} pattern"],
    }
    (tmp_path / "corpus.json").write_text(json.dumps(spec))
    assert cli.run(["gen-data", "--spec", str(tmp_path / "corpus.json"),
                    "--out", str(tmp_path / "data")]) == 0

    cfg = TrainConfig(
        model=preset("mini"), optimizer=OptimizerConfig("lamb"),
        peak_lr_image=1e-3, peak_lr_text=1e-3,
        layer_decay_image=0.75, layer_decay_text=0.75,
        warmup_steps=10, total_steps=100, mask_ratio=0.5, batch_size=64, seed=0,
        data_manifest=str(tmp_path / "data" / "manifest.json"),
    )
    lines = [f"{k} = {v}" for k, v in sorted(cfg.to_flat().items())]
    (tmp_path / "ablate.cfg").write_text("\n".join(lines) + "\n")
    assert cli.run(["--run-root", str(tmp_path / "runs"), "ablate",
                    "--config", str(tmp_path / "ablate.cfg")]) == 0

    run_dir = next((tmp_path / "runs").glob("ablate-*"))
    out = json.loads((run_dir / "ablate.json").read_text())
    arms = {row["name"]: row for row in out["arms"]}
    assert out["checks"]["init_beats_scratch"], (
        f"init {arms['init-adamw']['final_loss']} vs scratch {arms['scratch-adamw']['final_loss']}")
    multiple = out["checks"]["masked_steps_multiple"]
    assert multiple >= 1.6, f"masked wall-clock steps multiple {multiple:.2f} < 1.6"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0, f"ablate took {elapsed / 60:.1f} min"
    report("criterion 8 (ablation direction)",
           f"init {arms['init-adamw']['final_loss']:.3f} < scratch "
           f"{arms['scratch-adamw']['final_loss']:.3f}; masked completed {multiple:.2f}x steps "
           f"at equal wall-clock; end-to-end {elapsed / 60:.1f} min < 20 min")


def test_criterion_9_reproducibility(overfit_corpus, tmp_path):
    cfg = TrainConfig(model=preset("tiny"), peak_lr_image=1e-3, peak_lr_text=1e-3,
                      warmup_steps=5, total_steps=25, mask_ratio=0.5, batch_size=4, seed=9)
    straight = Trainer(cfg, overfit_corpus)
    for _ in range(25):
        straight.train_step(straight.stream.batch_at(straight.attempted, 4))

    partial = Trainer(cfg, overfit_corpus)
    for _ in range(15):
        partial.train_step(partial.stream.batch_at(partial.attempted, 4))
    path = partial.save(tmp_path / "mid.bin")
    resumed = Trainer(cfg, overfit_corpus)
    resumed.resume(load_checkpoint(path))
    for _ in range(10):
        resumed.train_step(resumed.stream.batch_at(resumed.attempted, 4))
    assert [r.loss for r in straight.records[15:]] == [r.loss for r in resumed.records]
    for name, p in straight.model.params.items():
        np.testing.assert_array_equal(p.data, resumed.model.params[name].data)

    twin = Trainer(cfg, overfit_corpus)
    for _ in range(25):
        twin.train_step(twin.stream.batch_at(twin.attempted, 4))
    a = [(r.step, r.loss, r.lrs, r.logit_scale, r.overflow, r.tokens) for r in straight.records]
    b = [(r.step, r.loss, r.lrs, r.logit_scale, r.overflow, r.tokens) for r in twin.records]
    assert a == b
    report("criterion 9 (reproducibility)",
           "resume after save/load is bit-exact for 10 steps; identical seeds give "
           "identical step logs (all fields except wall time)")
