"""Generate a corpus, memorize a handful of pairs, and prove bit-exact resume."""

import tempfile
from pathlib import Path

import numpy as np

from deskclip.checkpoint import load_checkpoint
from deskclip.data import CorpusSpec, generate_corpus, load_corpus
from deskclip.model import preset
from deskclip.optim import OptimizerConfig
from deskclip.trainer import TrainConfig, Trainer

with tempfile.TemporaryDirectory(prefix="deskclip-demo-") as tmp:
    root = Path(tmp)
    manifest = generate_corpus(CorpusSpec(num_classes=8, samples_per_class=1, image_size=32,
                                          seed=0, eval_per_class=1), root / "data")
    corpus = load_corpus(manifest)
    print(f"corpus: {len(corpus.train)} train pairs, classes {corpus.class_names[:4]} ...")

    cfg = TrainConfig(
        model=preset("tiny"), optimizer=OptimizerConfig("lamb"),
        peak_lr_image=2e-3, peak_lr_text=2e-3,
        warmup_steps=20, total_steps=300, mask_ratio=0.0,
        batch_size=8, seed=0, augment=False,
    )
    trainer = Trainer(cfg, corpus, run_dir=root / "run")
    trainer.train()
    log = trainer.records
    print(f"loss: {log[0].loss:.3f} at step 0 -> {log[-1].loss:.5f} at step {log[-1].step}")
    print(f"logit scale settled at {log[-1].logit_scale:.1f} (clamped below 100)")

    # -- resume is bit-exact -----------------------------------------------------------
    half = Trainer(cfg, corpus)
    for _ in range(150):
        half.train_step(half.stream.batch_at(half.attempted, cfg.batch_size))
    ckpt_path = half.save(root / "halfway.bin")

    resumed = Trainer(cfg, corpus)
    resumed.resume(load_checkpoint(ckpt_path))
    for _ in range(150):
        resumed.train_step(resumed.stream.batch_at(resumed.attempted, cfg.batch_size))

    match = all(
        np.array_equal(p.data, resumed.model.params[n].data)
        for n, p in trainer.model.params.items()
    )
    print(f"save at step 150, resume, run to 300: parameters identical to the straight run: {match}")
