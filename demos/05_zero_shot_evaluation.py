"""The zero-shot protocol end to end: prompt-ensembled class embeddings,
classification on held-out images, retrieval recall, and the robustness gap."""

import tempfile
from pathlib import Path

from deskclip.data import CorpusSpec, generate_corpus, load_corpus
from deskclip.evaluation import (
    center_frame,
    evaluate,
    load_robustness_fixtures,
    mean_top1_top5,
    robustness_gap,
)
from deskclip.model import preset
from deskclip.optim import OptimizerConfig
from deskclip.trainer import TrainConfig, Trainer

with tempfile.TemporaryDirectory(prefix="deskclip-demo-") as tmp:  # the corpus is read into memory
    corpus = load_corpus(generate_corpus(
        CorpusSpec(num_classes=8, samples_per_class=24, image_size=32, seed=1,
                   caption_templates=("a photo of a {}", "an image of a {}")),
        Path(tmp) / "data"))

cfg = TrainConfig(
    model=preset("tiny"), optimizer=OptimizerConfig("lamb"),
    peak_lr_image=2e-3, peak_lr_text=2e-3,
    warmup_steps=20, total_steps=250, mask_ratio=0.5,
    batch_size=32, seed=0,
)
print("training a small model on the synthetic corpus ...")
trainer = Trainer(cfg, corpus)
trainer.train()

report = evaluate(trainer.model, corpus,
                  templates=("a photo of a {}", "an image of a {}"))
print(report.render_text())
print("note: held-out images of one class share near-identical captions, so "
      "exact-pair R@1 is floor-limited at roughly 1/(images per caption); "
      "classification and R@10 are the meaningful numbers here")

# the machine-readable forms
rows = report.to_rows()
print("flat rows (first 4):", rows[:4])

# -- the published-table arithmetic ------------------------------------------------
row = next(r for r in load_robustness_fixtures() if r.model == "EVA-02-CLIP-L/14+")
gap = robustness_gap(row.reference, row.variants)
print(f"\npublished robustness row: reference {row.reference}, "
      f"avg {gap['avg']:.1f}, delta {gap['delta']:.1f}")

# -- video protocol helpers -----------------------------------------------------------
frames = [f"frame-{i}" for i in range(5)]
print(f"center frame of 5: {center_frame(frames)}; "
      f"mean of top-1 50 and top-5 70: {mean_top1_top5(50.0, 70.0):.1f}")
