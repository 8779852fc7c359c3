"""The benchmark's hook points into deskclip, checked without running a workload.

``perfbench/harness.py`` imports every deskclip name the benchmark uses, and
tracing rebinds each ``(owner, attribute)`` of ``tracing.layer_targets()``,
which must be the owner's own attribute. A change that renames or deletes one
of them breaks the benchmark; these tests catch that in the main suite. The
harness's embedding and loss readers also run on a tiny model, because they
depend on what deskclip's encoders and model return.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from deskclip.data import CorpusSpec, generate_corpus, load_corpus
from deskclip.model import ClipModel, preset

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

harness, _ = run.import_harness()
import tracing  # noqa: E402  (importable once import_harness has set the path)


def test_harness_defines_every_declared_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(harness.WORKLOADS) == sorted(w["name"] for w in declared)


def test_every_layer_target_is_an_attribute_of_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.layer_targets() if attr not in vars(owner)]
    assert missing == []


def test_harness_reads_unit_embeddings_and_the_logit_scale(tmp_path):
    # heldout_embeddings reads encode_*(...).vector.data; contrastive_loss reads
    # model.logit_scale.item()
    spec = CorpusSpec(3, 4, 32, ("a photo of a {}",), seed=0)
    corpus = load_corpus(generate_corpus(spec, tmp_path / "corpus"))
    model = ClipModel.init(preset("tiny"), 0)
    img, txt = harness.heldout_embeddings(model, corpus)
    assert img.shape == txt.shape == (len(corpus.heldout), model.cfg.embed_dim)
    for rows in (img, txt):
        assert np.isfinite(rows).all()
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-6)
    assert math.isfinite(harness.contrastive_loss(model, img, txt))
