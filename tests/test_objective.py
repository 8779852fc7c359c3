import math

import numpy as np
import pytest
from scipy.special import logsumexp

from deskclip import tensor as T
from deskclip.encoders import EmbeddingOutput
from deskclip.errors import ContractError, DimensionError
from deskclip.model import LOG_SCALE_INIT, MAX_LOG_SCALE
from deskclip.objective import clamp_scale, clip_loss, similarity_logits
from deskclip.tensor import Tensor


def unit_rows(rng, b, d):
    x = rng.standard_normal((b, d))
    return (x / np.linalg.norm(x, axis=-1, keepdims=True)).astype(np.float32)


def emb(arr):
    return EmbeddingOutput(Tensor(arr))


def scale_of(value_log=LOG_SCALE_INIT, requires_grad=False):
    return Tensor(np.array([value_log], dtype=np.float32), requires_grad=requires_grad)


class TestSimilarityLogits:
    def test_identical_orthonormal_sets_give_scaled_identity(self):
        e = np.eye(4, 6, dtype=np.float32)
        s = scale_of(math.log(3.0))
        logits = similarity_logits(emb(e), emb(e), s).data
        np.testing.assert_allclose(logits, 3.0 * np.eye(4), atol=1e-5)

    def test_equal_image_rows_give_equal_logit_rows(self):
        rng = np.random.default_rng(0)
        img = np.tile(unit_rows(rng, 1, 8), (3, 1))
        txt = unit_rows(rng, 3, 8)
        logits = similarity_logits(emb(img), emb(txt), scale_of()).data
        np.testing.assert_allclose(logits[0], logits[1], atol=1e-6)
        np.testing.assert_allclose(logits[0], logits[2], atol=1e-6)

    def test_logits_bounded_by_scale(self):
        rng = np.random.default_rng(1)
        logits = similarity_logits(
            emb(unit_rows(rng, 16, 12)), emb(unit_rows(rng, 16, 12)), scale_of()
        ).data
        assert np.abs(logits).max() <= math.exp(LOG_SCALE_INIT) + 1e-5

    def test_unnormalized_input_rejected(self):
        bad = EmbeddingOutput(Tensor(np.full((2, 4), 2.0, dtype=np.float32)))
        rng = np.random.default_rng(2)
        with pytest.raises(ContractError):
            similarity_logits(bad, emb(unit_rows(rng, 2, 4)), scale_of())


class TestClipLoss:
    def test_single_pair_loss_is_zero(self):
        assert clip_loss(Tensor(np.array([[3.7]], dtype=np.float32))).item() == pytest.approx(0.0, abs=1e-7)

    def test_uniform_logits_give_log_batch(self):
        loss = clip_loss(Tensor(np.full((8, 8), 1.3, dtype=np.float32))).item()
        assert loss == pytest.approx(math.log(8.0), abs=1e-6)  # 2.0794415

    def test_orthonormal_pairs_at_large_scale_drive_loss_to_zero(self):
        e = np.eye(4, dtype=np.float32)
        logits = similarity_logits(emb(e), emb(e), scale_of(math.log(100.0)))
        assert clip_loss(logits).item() < 1e-6

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            logits = Tensor(rng.standard_normal((5, 5)).astype(np.float32) * 3)
            assert clip_loss(logits).item() >= 0.0

    def test_simultaneous_permutation_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((6, 6)).astype(np.float32)
        perm = rng.permutation(6)
        a = clip_loss(Tensor(logits)).item()
        b = clip_loss(Tensor(logits[np.ix_(perm, perm)])).item()
        assert a == pytest.approx(b, abs=1e-6)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((5, 5)).astype(np.float32)
        a = clip_loss(Tensor(logits)).item()
        b = clip_loss(Tensor(logits + 11.5)).item()
        assert a == pytest.approx(b, abs=1e-5)

    def test_matches_a_float64_logsumexp_formula(self):
        rng = np.random.default_rng(7)
        for b, spread in ((2, 1.0), (8, 3.0), (64, 3.0), (64, math.exp(LOG_SCALE_INIT))):
            logits = (rng.standard_normal((b, b)) * spread).astype(np.float32)
            x = logits.astype(np.float64)
            diag = np.diag(x)
            want = 0.5 * (np.mean(logsumexp(x, axis=1) - diag) + np.mean(logsumexp(x, axis=0) - diag))
            assert clip_loss(Tensor(logits)).item() == pytest.approx(want, rel=1e-6)

    def test_logits_and_loss_record_nine_nodes(self):
        rng = np.random.default_rng(10)
        img, txt = (EmbeddingOutput(Tensor(unit_rows(rng, 8, 6), requires_grad=True)) for _ in range(2))
        loss = clip_loss(similarity_logits(img, txt, scale_of(requires_grad=True)))
        recorded, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if node._backward is not None and id(node) not in recorded:
                recorded.add(id(node))
                stack.extend(node._parents)
        # exp, transpose, matmul and mul for the logits; two cross-entropies,
        # a transpose, an add and a mul for the loss
        assert len(recorded) == 9

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            clip_loss(Tensor(np.zeros((3, 4), dtype=np.float32)))

    def test_random_embeddings_give_approximately_log_batch(self):
        # statistical check: independent unit vectors at the init temperature
        rng = np.random.default_rng(6)
        b, d = 64, 1024
        logits = similarity_logits(emb(unit_rows(rng, b, d)), emb(unit_rows(rng, b, d)), scale_of())
        assert abs(clip_loss(logits).item() - math.log(b)) < 0.2

    @pytest.mark.parametrize("b", [2, 4, 8])
    def test_gradient_wrt_embeddings_matches_finite_differences(self, b):
        d = 6
        rng = np.random.default_rng(b)
        select_img = np.zeros((b, 2 * b), dtype=np.float32)
        select_txt = np.zeros((b, 2 * b), dtype=np.float32)
        select_img[np.arange(b), np.arange(b)] = 1.0
        select_txt[np.arange(b), b + np.arange(b)] = 1.0
        log_scale = np.array([1.0], dtype=np.float32)

        def f(x):
            img = T.l2_normalize_rows(T.matmul(Tensor(select_img, dtype=x.dtype), x))
            txt = T.l2_normalize_rows(T.matmul(Tensor(select_txt, dtype=x.dtype), x))
            scale = Tensor(log_scale, dtype=x.dtype)
            logits = similarity_logits(
                EmbeddingOutput(img), EmbeddingOutput(txt), scale
            )
            return clip_loss(logits)

        x = Tensor(rng.standard_normal((2 * b, d)).astype(np.float32), requires_grad=True)
        assert T.grad_check(f, x, eps=1e-3) < 1e-3


class TestClampScale:
    def test_clamps_above_max(self):
        s = scale_of(5.0)
        clamp_scale(s)
        assert s.item() == pytest.approx(MAX_LOG_SCALE, abs=1e-6)  # ln 100 = 4.60517

    def test_below_max_unchanged(self):
        s = scale_of(2.0)
        clamp_scale(s)
        assert s.item() == pytest.approx(2.0)

    def test_log_scale_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        img = unit_rows(rng, 4, 8)
        txt = unit_rows(rng, 4, 8)

        def f(ls):
            logits = similarity_logits(
                EmbeddingOutput(Tensor(img, dtype=ls.dtype)),
                EmbeddingOutput(Tensor(txt, dtype=ls.dtype)),
                ls,
            )
            return clip_loss(logits)

        x = Tensor(np.array([1.2], dtype=np.float32), requires_grad=True)
        assert T.grad_check(f, x, eps=1e-3) < 1e-3
