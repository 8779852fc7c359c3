import re
from dataclasses import replace

import numpy as np
import pytest

from deskclip import encoders
from deskclip import tensor as T
from deskclip.encoders import (
    ImageEncoderConfig,
    MaskSpec,
    ModelConfig,
    TextEncoderConfig,
    _block,
    _block_shapes,
    count_params,
    image_param_shapes,
    interpolate_pos_embed,
    patchify,
    sample_mask,
    text_param_shapes,
)
from deskclip.errors import ContractError, DimensionError, InputError
from deskclip.model import ClipModel, preset
from deskclip.tensor import Tensor

PAD, BOS, EOS = 256, 257, 258


def tiny_model(seed=0):
    return ClipModel.init(preset("tiny"), seed)


def make_ids(lengths, context):
    """BOS + arbitrary bytes + EOS + PAD, one row per requested length."""
    ids = np.full((len(lengths), context), PAD, dtype=np.int64)
    for r, n in enumerate(lengths):
        ids[r, 0] = BOS
        ids[r, 1:n - 1] = (np.arange(n - 2) * 7 + r) % 256
        ids[r, n - 1] = EOS
    return ids


class TestPatchify:
    def test_224_over_16_gives_196(self):
        out = patchify(Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32)), 16)
        assert out.shape == (1, 196, 3 * 16 * 16)

    def test_336_over_14_gives_576(self):
        out = patchify(Tensor(np.zeros((1, 3, 336, 336), dtype=np.float32)), 14)
        assert out.shape == (1, 576, 3 * 14 * 14)

    def test_constant_image_gives_identical_patches(self):
        out = patchify(Tensor(np.full((1, 3, 32, 32), 0.25, dtype=np.float32)), 8).data
        assert np.all(out == out[:, :1, :])

    def test_indivisible_extent_raises(self):
        with pytest.raises(DimensionError):
            patchify(Tensor(np.zeros((1, 3, 30, 30), dtype=np.float32)), 16)

    def test_raster_order(self):
        # pixel (0, patch_size) lands in patch index 1, not patch grid-w
        img = np.zeros((1, 1, 4, 4), dtype=np.float32)
        img[0, 0, 0, 2] = 1.0
        out = patchify(Tensor(img), 2).data
        assert out[0, 1].sum() == 1.0 and out[0].sum() == 1.0


class TestSampleMask:
    def test_half_of_196_keeps_98(self):
        kept = sample_mask(196, MaskSpec(0.5), np.random.default_rng(0))
        assert len(kept) == 98
        assert len(np.unique(kept)) == 98

    def test_ratio_zero_is_identity(self):
        kept = sample_mask(196, MaskSpec(0.0), np.random.default_rng(0))
        np.testing.assert_array_equal(kept, np.arange(196))

    def test_fixed_seed_is_deterministic(self):
        a = sample_mask(64, MaskSpec(0.5), np.random.default_rng(7))
        b = sample_mask(64, MaskSpec(0.5), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_sorted_and_in_range(self):
        kept = sample_mask(33, MaskSpec(0.7), np.random.default_rng(3))
        assert np.all(np.diff(kept) > 0) and kept.min() >= 0 and kept.max() < 33
        assert len(kept) == int(np.ceil(0.3 * 33))


class TestEncodeImage:
    def test_unit_norm_rows(self):
        m = tiny_model()
        rng = np.random.default_rng(0)
        out = m.encode_image(rng.standard_normal((3, 3, 32, 32)).astype(np.float32))
        np.testing.assert_allclose(np.linalg.norm(out.vector.data, axis=-1), 1.0, atol=1e-5)

    def test_identical_images_identical_embeddings(self):
        m = tiny_model()
        one = np.random.default_rng(1).standard_normal((1, 3, 32, 32)).astype(np.float32)
        batch = np.concatenate([one, one], axis=0)
        out = m.encode_image(batch).vector.data
        np.testing.assert_array_equal(out[0], out[1])

    def test_mask_ratio_zero_matches_unmasked_bitwise(self):
        m = tiny_model()
        imgs = np.random.default_rng(2).standard_normal((2, 3, 32, 32)).astype(np.float32)
        plain = m.encode_image(imgs).vector.data
        masked = m.encode_image(imgs, mask=MaskSpec(0.0), rng=np.random.default_rng(5)).vector.data
        np.testing.assert_array_equal(plain, masked)

    def test_masked_forward_processes_exact_token_count(self, monkeypatch):
        m = tiny_model()
        imgs = np.random.default_rng(3).standard_normal((2, 3, 32, 32)).astype(np.float32)
        seen = []

        def spy(x, *args, **kwargs):
            seen.append(x.shape[1])
            return _block(x, *args, **kwargs)

        monkeypatch.setattr(encoders, "_block", spy)
        for ratio in (0.25, 0.5, 0.75):
            seen.clear()
            m.encode_image(imgs, mask=MaskSpec(ratio), rng=np.random.default_rng(0))
            expected = int(np.ceil((1 - ratio) * 16)) + 1
            assert seen == [expected] * m.cfg.image.layers

    def test_eval_mode_ignores_seed(self):
        m = tiny_model()
        imgs = np.random.default_rng(4).standard_normal((2, 3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(
            m.encode_image(imgs).vector.data, m.encode_image(imgs).vector.data
        )

    def test_mask_without_rng_rejected(self):
        m = tiny_model()
        with pytest.raises(ContractError):
            m.encode_image(np.zeros((1, 3, 32, 32), dtype=np.float32), mask=MaskSpec(0.5))

    def test_param_shape_mismatch_names_parameter(self):
        m = tiny_model()
        m.params["image.patch_embed.weight"] = Tensor(np.zeros((5, 5)), requires_grad=True)
        with pytest.raises(DimensionError, match="image.patch_embed.weight"):
            m.encode_image(np.zeros((1, 3, 32, 32), dtype=np.float32))


class TestEncodeText:
    def test_unit_norm_rows(self):
        m = tiny_model()
        out = m.encode_text(make_ids([10, 14, 6], 32))
        np.testing.assert_allclose(np.linalg.norm(out.vector.data, axis=-1), 1.0, atol=1e-5)

    def test_batch_permutation_equivariance(self):
        m = tiny_model()
        ids = make_ids([8, 12, 16, 5], 32)
        perm = np.array([2, 0, 3, 1])
        base = m.encode_text(ids).vector.data
        shuffled = m.encode_text(ids[perm]).vector.data
        np.testing.assert_array_equal(shuffled, base[perm])

    def test_padding_beyond_eos_is_inert(self):
        # causal attention: tokens after the EOS position cannot reach it
        m = tiny_model()
        ids_short = make_ids([9], 12)
        ids_long = np.full((1, 20), PAD, dtype=np.int64)
        ids_long[0, :12] = ids_short[0]
        a = m.encode_text(ids_short).vector.data
        b = m.encode_text(ids_long).vector.data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_missing_eos_names_row(self):
        m = tiny_model()
        ids = make_ids([10, 10], 32)
        ids[1, 9] = 0  # stamp out the EOS in row 1
        with pytest.raises(InputError, match="row 1"):
            m.encode_text(ids)

    @pytest.mark.parametrize("shape", [(0, 32), (3, 0)])
    def test_ids_without_tokens_rejected_naming_shape(self, shape):
        with pytest.raises(InputError, match=re.escape(str(shape))):
            tiny_model().encode_text(np.zeros(shape, dtype=np.int64))


class TestTapeLength:
    def test_embeddings_record_at_most_115_nodes(self):
        m = tiny_model()
        imgs = np.random.default_rng(15).standard_normal((2, 3, 32, 32)).astype(np.float32)
        roots = [m.encode_image(imgs).vector, m.encode_text(make_ids([5, 9], 32)).vector]
        recorded, stack = set(), roots
        while stack:
            node = stack.pop()
            if node._backward is not None and id(node) not in recorded:
                recorded.add(id(node))
                stack.extend(node._parents)
        # a linear layer and the unit normalisation are one node each; keys
        # split once to [b, heads, hd, n]
        assert len(recorded) <= 115


class TestInterpolatePosEmbed:
    def test_identity_when_grids_match(self):
        pos = Tensor(np.random.default_rng(0).standard_normal((1 + 9, 4)).astype(np.float32))
        out = interpolate_pos_embed(pos, 3)
        np.testing.assert_array_equal(out.data, pos.data)

    def test_constant_table_stays_constant(self):
        pos = Tensor(np.full((1 + 4, 3), 0.5, dtype=np.float32))
        out = interpolate_pos_embed(pos, 5)
        assert out.shape == (1 + 25, 3)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-7)

    def test_linear_ramp_reproduced_at_resampled_coordinates(self):
        # grid values = x coordinate; closed-form bilinear of a ramp is the ramp
        d = 2
        grid = np.zeros((2, 2, d), dtype=np.float32)
        grid[:, 1, :] = 1.0
        pos = Tensor(np.concatenate([np.full((1, d), 7.0, dtype=np.float32), grid.reshape(4, d)]))
        out = interpolate_pos_embed(pos, 4)
        expected_x = np.arange(4) / 3.0
        got = out.data[1:].reshape(4, 4, d)
        for y in range(4):
            np.testing.assert_allclose(got[y, :, 0], expected_x, atol=1e-7)

    def test_class_row_always_preserved(self):
        pos = Tensor(np.random.default_rng(1).standard_normal((1 + 4, 3)).astype(np.float32))
        out = interpolate_pos_embed(pos, 6)
        np.testing.assert_array_equal(out.data[0], pos.data[0])

    def test_non_square_grid_rejected(self):
        with pytest.raises(DimensionError):
            interpolate_pos_embed(Tensor(np.zeros((1 + 5, 3), dtype=np.float32)), 4)

    @pytest.mark.parametrize("new_grid", [4, 3], ids=["same-grid", "resampled"])
    def test_float64_table_stays_float64(self, new_grid):
        pos = Tensor(np.random.default_rng(2).standard_normal((17, 4)), dtype=np.float64)
        out = interpolate_pos_embed(pos, new_grid)
        assert out.dtype == np.float64 and out.shape == (1 + new_grid**2, 4)


class TestCountParams:
    @pytest.mark.parametrize("name,image_m,text_m", [("B/16", 86e6, 63e6), ("L/14", 304e6, 124e6)])
    def test_published_tower_counts_within_2_percent(self, name, image_m, text_m):
        cfg = preset(name)
        image = sum(int(np.prod(s)) for s in image_param_shapes(cfg.image, cfg.embed_dim).values())
        text = sum(int(np.prod(s)) for s in text_param_shapes(cfg.text, cfg.embed_dim).values())
        assert abs(image - image_m) / image_m < 0.02
        assert abs(text - text_m) / text_m < 0.02
        assert count_params(cfg) == image + text + 1

    def test_zero_layer_config_matches_hand_count(self):
        cfg = ModelConfig(
            image=ImageEncoderConfig(layers=0, width=8, heads=2, image_size=16, patch_size=8),
            text=TextEncoderConfig(layers=0, width=6, heads=2, vocab_size=11, context_length=5),
            embed_dim=4,
        )
        n = 4  # patches
        image_hand = (3 * 64 * 8 + 8) + 8 + (1 + n) * 8 + 2 * 8 + 8 * 4
        text_hand = 11 * 6 + 5 * 6 + 6 * 4
        assert count_params(cfg) == image_hand + text_hand + 1


class TestConfigValidation:
    def test_width_must_divide_by_heads(self):
        with pytest.raises(DimensionError):
            ImageEncoderConfig(layers=1, width=10, heads=3, image_size=16, patch_size=8)

    def test_patch_must_divide_image(self):
        with pytest.raises(DimensionError):
            ImageEncoderConfig(layers=1, width=8, heads=2, image_size=17, patch_size=8)


class TestDropPath:
    def test_zero_rate_is_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 3, 2)).astype(np.float32))
        from deskclip.encoders import drop_path

        out = drop_path(x, 0.0, np.random.default_rng(1))
        assert out is x

    def test_eval_mode_is_identity_at_any_rate(self):
        from deskclip.encoders import drop_path

        x = Tensor(np.ones((4, 3), dtype=np.float32))
        out = drop_path(x, 0.9, None)
        assert out is x

    def test_training_scales_survivors_per_sample(self):
        from deskclip.encoders import drop_path

        x = Tensor(np.ones((64, 2, 2), dtype=np.float32))
        out = drop_path(x, 0.5, np.random.default_rng(3)).data
        per_sample = out.reshape(64, -1)
        dropped = np.all(per_sample == 0.0, axis=1)
        kept = np.all(per_sample == 2.0, axis=1)  # survivors scaled by 1/(1-rate)
        assert np.all(dropped | kept)
        assert 10 < dropped.sum() < 54

    def test_unmasked_training_forward_drops_paths(self):
        cfg = preset("tiny")
        m = ClipModel.init(replace(cfg, image=replace(cfg.image, drop_path=0.5)), 0)
        imgs = np.random.default_rng(6).standard_normal((4, 3, 32, 32)).astype(np.float32)
        plain = m.encode_image(imgs).vector.data
        trained = m.encode_image(imgs, rng=np.random.default_rng(0)).vector.data
        assert not np.array_equal(plain, trained)


_PRUNED_ROWS = np.array([[4], [0], [2]])


@pytest.mark.parametrize("causal, rows", [
    pytest.param(False, None, id="False"),
    pytest.param(True, None, id="True"),
    pytest.param(False, _PRUNED_ROWS, id="False-pruned"),
    pytest.param(True, _PRUNED_ROWS, id="True-pruned"),
])
def test_block_float32_gradients_match_float64_oracle(causal, rows):
    """One transformer block in float32 storage against its float64 copy."""
    rng = np.random.default_rng(11)
    width, heads = 16, 2
    base = {f"blocks.0.{name}": rng.standard_normal(shape) * 0.3
            for name, shape in _block_shapes(width).items()}
    x0 = rng.standard_normal((3, 5, width))
    proj = rng.standard_normal((3, 5 if rows is None else rows.shape[1], width))

    grads = {}
    for dtype in (np.float32, np.float64):
        params = {k: Tensor(v.astype(np.float32), requires_grad=True, dtype=dtype)
                  for k, v in base.items()}
        x = Tensor(x0.astype(np.float32), requires_grad=True, dtype=dtype)
        out = _block(x, params, 0, heads, causal=causal, rows=rows)
        assert out.dtype == dtype
        T.backward(T.tsum(T.mul(out, Tensor(proj, dtype=dtype))))
        grads[dtype] = {"x": x.grad, **{k: p.grad for k, p in params.items()}}

    # attn.k.bias has an exactly-zero gradient (each softmax row is shift
    # invariant), so near-zero entries are held to float32 rounding of the
    # O(10) gradient scale instead of to a relative bound
    for name, g64 in grads[np.float64].items():
        g32 = grads[np.float32][name]
        assert g32.dtype == np.float32
        np.testing.assert_allclose(g32, g64, rtol=1e-3, atol=1e-5, err_msg=name)


def full_sequence_pooled(x, params, layers, heads, causal, rows, dp_rate=0.0, rng=None):
    """Reference tower body: every block on every position, then pool ``rows``."""
    for i in range(layers):
        x = _block(x, params, i, heads, causal, dp_rate, rng)
    return T.reshape(T.take_tokens(x, rows), (x.shape[0], x.shape[2]))


def reference_text(ids, model):
    """encode_text without the EOS truncation or the row-pruned last block."""
    cfg, params = model.cfg.text, model.tower_params("text")
    x = T.add(T.embedding(params["token_embed.weight"], ids),
              T.embedding(params["pos_embed"], np.arange(ids.shape[1])))
    eos = np.argmax(ids == cfg.eos_id, axis=1).reshape(-1, 1)
    feat = full_sequence_pooled(x, params, cfg.layers, cfg.heads, True, eos)
    return T.l2_normalize_rows(T.matmul(feat, params["proj"]))


def embedding_and_grads(model, encode):
    out = encode()
    weights = np.random.default_rng(12).standard_normal(out.shape).astype(np.float32)
    T.backward(T.tsum(T.mul(out, Tensor(weights, dtype=out.dtype))))
    grads = {name: p.grad for name, p in model.trainable().items() if p.grad is not None}
    T.zero_grads(model.trainable().values())
    return out.data, grads


def assert_same_embedding_and_grads(model, pruned, reference):
    out, grads = embedding_and_grads(model, pruned)
    ref_out, ref_grads = embedding_and_grads(model, reference)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-6)
    assert sorted(grads) == sorted(ref_grads)
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-6, err_msg=name)


def float64_model(cfg, seed):
    """float64 storage, so a pruning error cannot hide under float32 rounding."""
    m = ClipModel.init(cfg, seed)
    for p in m.params.values():
        p.data = p.data.astype(np.float64)
    return m


class TestPooledRowsOnly:
    """The towers compute only what their pooled row reads, with unchanged results."""

    @pytest.mark.parametrize("mask", [None, MaskSpec(0.5)], ids=["unmasked", "masked"])
    def test_image_matches_full_sequence_reference(self, monkeypatch, mask):
        cfg = preset("tiny")
        m = float64_model(replace(cfg, image=replace(cfg.image, drop_path=0.25)), 0)
        imgs = np.random.default_rng(13).standard_normal((5, 3, 32, 32)).astype(np.float32)

        def encode():
            return m.encode_image(imgs, mask=mask, rng=np.random.default_rng(5)).vector

        def class_token_pooled(x, params, layers, heads, causal, rows, dp_rate, rng):
            return full_sequence_pooled(x, params, layers, heads, causal,
                                        np.zeros((len(imgs), 1), dtype=np.int64), dp_rate, rng)

        def reference():
            with monkeypatch.context() as patch:
                patch.setattr(encoders, "_blocks_pooled", class_token_pooled)
                return encode()

        assert_same_embedding_and_grads(m, encode, reference)

    def test_text_matches_full_sequence_reference(self):
        m = float64_model(preset("tiny"), 0)
        ids = make_ids([5, 32, 9, 17, 2], 32)  # EOS at every kind of position, the last included
        assert_same_embedding_and_grads(
            m, lambda: m.encode_text(ids).vector, lambda: reference_text(ids, m))

    def test_text_blocks_see_positions_through_the_last_eos(self, monkeypatch):
        m = tiny_model()
        seen = []

        def spy(x, *args, **kwargs):
            seen.append((x.shape[1], kwargs.get("rows") is not None))
            return _block(x, *args, **kwargs)

        monkeypatch.setattr(encoders, "_block", spy)
        m.encode_text(make_ids([5, 14, 9], 32))
        assert seen == [(14, False), (14, True)]

    def test_zero_layer_towers_pool_the_class_and_eos_rows(self):
        cfg = ModelConfig(
            image=ImageEncoderConfig(layers=0, width=8, heads=2, image_size=16, patch_size=8),
            text=TextEncoderConfig(layers=0, width=6, heads=2, vocab_size=11, context_length=5),
            embed_dim=4,
        )
        m = ClipModel.init(cfg, 3)
        p = {name: t.data.astype(np.float64) for name, t in m.params.items()}

        def unit(v):
            return v / np.linalg.norm(v, axis=-1, keepdims=True)

        imgs = np.random.default_rng(14).standard_normal((2, 3, 16, 16)).astype(np.float32)
        cls = p["image.cls_token"] + p["image.pos_embed"][0]
        cls = (cls - cls.mean()) / np.sqrt(cls.var() + 1e-5)
        cls = cls * p["image.final_norm.gain"] + p["image.final_norm.bias"]
        expected = unit(np.tile(cls @ p["image.proj"], (2, 1)))
        np.testing.assert_allclose(m.encode_image(imgs).vector.data, expected, atol=1e-6)

        ids = np.array([[10, 0, 0, 0, 0], [1, 2, 3, 4, 10]])
        eos = p["text.token_embed.weight"][10] + p["text.pos_embed"][[0, 4]]
        expected = unit(eos @ p["text.proj"])
        np.testing.assert_allclose(m.encode_text(ids).vector.data, expected, atol=1e-6)

