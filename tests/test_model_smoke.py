"""Full-size forward/backward smoke: the published base geometry end to end."""

import numpy as np

from deskclip import tensor as T
from deskclip.model import ClipModel, preset
from deskclip.objective import clip_loss, similarity_logits


def test_base_config_gradients_all_finite():
    cfg = preset("B/16")
    model = ClipModel.init(cfg, 0)
    rng = np.random.default_rng(1)
    images = rng.standard_normal((2, 3, 224, 224)).astype(np.float32)
    eos = cfg.text.vocab_size - 1
    ids = np.full((2, 77), 0, dtype=np.int64)
    ids[:, 0] = 1
    ids[0, 1:9] = rng.integers(2, 256, 8)
    ids[0, 9] = eos
    ids[1, 1:15] = rng.integers(2, 256, 14)
    ids[1, 15] = eos

    img = model.encode_image(images)
    txt = model.encode_text(ids)
    loss = clip_loss(similarity_logits(img, txt, model.logit_scale))
    assert np.isfinite(loss.item())
    T.backward(loss)
    for name, p in model.trainable().items():
        assert p.grad is not None, f"{name}: no gradient"
        assert np.isfinite(p.grad).all(), f"{name}: non-finite gradient"
