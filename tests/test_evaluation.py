import re

import numpy as np
import pytest

from deskclip.data import CorpusSpec, generate_corpus, load_corpus
from deskclip.errors import DimensionError, InputError
from deskclip.evaluation import (
    build_class_embeddings,
    center_frame,
    evaluate,
    load_robustness_fixtures,
    make_text_encoder,
    mean_top1_top5,
    recall_at_k,
    retrieval_report,
    robustness_gap,
    zero_shot_classify,
)
from deskclip.model import ClipModel, preset


def fake_text_encoder(table):
    """Maps 'caption {i}' style strings to fixed rows by lookup."""

    def encode(captions):
        return np.stack([table[c] for c in captions])

    return encode


class TestBuildClassEmbeddings:
    def test_single_template_equals_caption_embedding(self):
        v = np.array([3.0, 4.0])
        enc = fake_text_encoder({"a photo of a cat": v})
        out = build_class_embeddings(["cat"], ["a photo of a {}"], enc)
        np.testing.assert_allclose(out[0], v / 5.0)

    def test_duplicate_template_is_idempotent(self):
        v = np.array([1.0, 2.0, 2.0])
        enc = fake_text_encoder({"a photo of a dog": v})
        once = build_class_embeddings(["dog"], ["a photo of a {}"], enc)[0]
        twice = build_class_embeddings(["dog"], ["a photo of a {}", "a photo of a {}"], enc)[0]
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_orthogonal_templates_average_at_45_degrees(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        enc = fake_text_encoder({"x bird": e1, "y bird": e2})
        out = build_class_embeddings(["bird"], ["x {}", "y {}"], enc)[0]
        np.testing.assert_allclose(out, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_every_prompt_encoded_in_one_call(self):
        calls = []
        rng = np.random.default_rng(0)

        def counting_encoder(captions):
            calls.append(list(captions))
            return rng.standard_normal((len(captions), 4))

        table = build_class_embeddings(["cat", "dog", "owl"], ["x {}", "y {}"], counting_encoder)
        assert calls == [["x cat", "y cat", "x dog", "y dog", "x owl", "y owl"]]
        assert table.shape == (3, 4)

    def test_batched_table_matches_tables_built_per_class(self):
        # each per-class batch is cut at its own last EOS, the joint batch at the longest
        encode = make_text_encoder(ClipModel.init(preset("tiny"), 0))
        names = ["ox", "cat", "hippopotamus", "a rather long class name"]
        templates = ["{}", "a photo of a {}", "an image of one {} pattern"]
        per_class = np.concatenate([build_class_embeddings([n], templates, encode) for n in names])
        np.testing.assert_allclose(build_class_embeddings(names, templates, encode), per_class,
                                   rtol=0, atol=1e-6)

    def test_empty_class_list_rejected(self):
        with pytest.raises(InputError):
            build_class_embeddings([], ["a {}"], fake_text_encoder({}))

    def test_empty_templates_rejected(self):
        with pytest.raises(InputError):
            build_class_embeddings(["cat"], [], fake_text_encoder({}))

    @pytest.mark.parametrize("template", ["a {x} photo", "a {} {}", "a {0.real} photo", "a {"])
    def test_template_without_one_positional_field_rejected_by_name(self, template):
        encoded = []
        with pytest.raises(InputError, match=re.escape(repr(template))):
            build_class_embeddings(["cat"], ["a photo of a {}", template], encoded.append)
        assert encoded == []


class TestZeroShotClassify:
    def one_hot_classes(self, c, d):
        return np.eye(c, d)

    def test_one_hot_perfect_accuracy(self):
        classes = self.one_hot_classes(4, 6)
        images = np.eye(4, 6)
        out = zero_shot_classify(images, classes, labels=np.arange(4))
        assert out["top1"] == 100.0 and out["top5"] == 100.0

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        images = rng.standard_normal((10, 8))
        table = rng.standard_normal((5, 8))
        labels = rng.integers(0, 5, size=10)
        perm = np.array([3, 0, 4, 1, 2])
        base = zero_shot_classify(images, table, labels)
        permuted = zero_shot_classify(images, table[perm], labels=None)
        np.testing.assert_array_equal(perm[permuted["predictions"]], base["predictions"])
        inverse = np.argsort(perm)
        relabeled = zero_shot_classify(images, table[perm], labels=inverse[labels])
        assert relabeled["top1"] == base["top1"]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        images = rng.standard_normal((12, 6))
        table = rng.standard_normal((4, 6))
        labels = rng.integers(0, 4, size=12)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        base = zero_shot_classify(images, table, labels)
        rotated = zero_shot_classify(images @ q, table @ q, labels)
        assert rotated["top1"] == base["top1"]
        np.testing.assert_array_equal(rotated["predictions"], base["predictions"])

    def test_tie_breaks_to_lowest_class_index(self):
        images = np.array([[1.0, 0.0]])
        table = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = zero_shot_classify(images, table)
        assert out["predictions"][0] == 0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            zero_shot_classify(np.ones((2, 3)), np.ones((4, 5)))


def brute_force_recall(scores, truth, k):
    """Exhaustive ranking oracle on a raw score matrix."""
    hits = 0
    for i in range(scores.shape[0]):
        ranked = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        hits += bool(set(ranked[:k]) & set(truth[i]))
    return 100.0 * hits / scores.shape[0]


class TestRecallAtK:
    def test_identity_pairing_orthonormal(self):
        e = np.eye(6)
        out = recall_at_k(e, e, [[i] for i in range(6)], ks=(1, 5))
        assert out[1] == 100.0 and out[5] == 100.0

    def test_gallery_shuffle_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((8, 5))
        g = rng.standard_normal((12, 5))
        truth = [[int(rng.integers(0, 12))] for _ in range(8)]
        base = recall_at_k(q, g, truth)
        perm = rng.permutation(12)
        inverse = np.argsort(perm)
        shuffled = recall_at_k(q, g[perm], [[int(inverse[t]) for t in row] for row in truth])
        assert base == shuffled

    def test_constructed_ranks_one_and_seven(self):
        # 3 images x 2 captions each plus 4 distractors; each image's captions
        # are placed at ranks 1 and 7 of its score row.
        n_caps = 10
        scores = np.zeros((3, n_caps))
        truth = []
        for i in range(3):
            own = [2 * i, 2 * i + 1]
            truth.append(own)
            others = [j for j in range(n_caps) if j not in own]
            scores[i, own[0]] = 10.0  # rank 1
            for rank, j in enumerate(others):
                scores[i, j] = 9.0 - rank  # ranks 2..9
            scores[i, own[1]] = 9.0 - 5.0 + 0.5  # between 6th and 7th of the others
        gallery = np.eye(n_caps)
        out = recall_at_k(scores, gallery, truth, ks=(1, 5, 10))
        assert out[1] == 100.0
        for k in (1, 5, 10):
            assert out[k] == brute_force_recall(scores, truth, k)
        # caption -> image direction via the exhaustive oracle
        cap_truth = [[i] for i in range(3) for _ in range(2)] + [[0]] * 0
        img_gallery = np.eye(3)
        cap_scores = np.zeros((6, 3))
        for i in range(3):
            cap_scores[2 * i, i] = 1.0
            cap_scores[2 * i + 1, i] = 1.0
        got = recall_at_k(cap_scores, img_gallery, cap_truth, ks=(1, 5))
        assert got[5] == brute_force_recall(cap_scores, cap_truth, 5)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((20, 7))
        g = rng.standard_normal((40, 7))
        truth = [list(rng.choice(40, size=rng.integers(1, 4), replace=False)) for _ in range(20)]
        got = recall_at_k(q, g, truth, ks=(1, 5, 10))
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        gn = g / np.linalg.norm(g, axis=1, keepdims=True)
        scores = qn @ gn.T
        for k in (1, 5, 10):
            assert got[k] == pytest.approx(brute_force_recall(scores, truth, k))

    def test_query_without_ground_truth_named(self):
        with pytest.raises(InputError, match="query 1"):
            recall_at_k(np.eye(2), np.eye(2), [[0], []])

    @pytest.mark.parametrize("bad", [5, 3, -1])
    def test_ground_truth_outside_gallery_named(self, bad):
        with pytest.raises(InputError, match="query 2.*gallery of 3"):
            recall_at_k(np.eye(3), np.eye(3), [[0], [1], [bad]])

    @pytest.mark.parametrize("ks, bad", [([0, -1, 1], 0), ((1, -1), -1)])
    def test_k_below_one_named(self, ks, bad):
        with pytest.raises(InputError, match=f"k = {bad}$"):
            recall_at_k(np.eye(3), np.eye(3), [[0], [1], [2]], ks=ks)

    @pytest.mark.parametrize("bad", [-1, 7, 3])
    def test_caption_outside_gallery_named(self, bad):
        with pytest.raises(InputError, match=f"caption 2 maps to image {bad}.*gallery of 3"):
            retrieval_report(np.eye(3), np.eye(3), [0, 1, bad])

    def test_retrieval_report_directions(self):
        img = np.eye(3)
        txt = np.repeat(np.eye(3), 2, axis=0)  # two captions per image
        out = retrieval_report(img, txt, [0, 0, 1, 1, 2, 2])
        assert out["text_retrieval"][1] == 100.0
        assert out["image_retrieval"][1] == 100.0


class TestRobustnessGap:
    def test_published_large_row(self):
        out = robustness_gap(80.4, [82.9, 93.2, 73.8, 68.9, 78.4])
        assert f"{out['avg']:.1f}" == "79.6"
        assert f"{out['delta']:.1f}" == "0.8"

    def test_published_extra_large_row(self):
        out = robustness_gap(82.0, [82.1, 94.5, 75.7, 71.6, 79.6])
        assert f"{out['avg']:.1f}" == "80.9"
        assert f"{out['delta']:.1f}" == "1.1"

    def test_equal_accuracies_give_zero_delta(self):
        out = robustness_gap(70.0, [70.0, 70.0])
        assert out["delta"] == 0.0 and out["avg"] == 70.0

    def test_empty_variants_rejected(self):
        with pytest.raises(InputError):
            robustness_gap(50.0, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            robustness_gap(101.0, [50.0])

    def test_full_fixture_table_reproduced(self):
        rows = load_robustness_fixtures()
        assert len(rows) == 15
        misprints = 0
        for row in rows:
            out = robustness_gap(row.reference, row.variants)
            assert f"{out['avg']:.1f}" == f"{row.avg:.1f}", row.model
            expected_delta = row.corrected_delta if row.corrected_delta is not None else row.delta
            assert f"{out['delta']:.1f}" == f"{expected_delta:.1f}", row.model
            misprints += row.corrected_delta is not None
        assert misprints == 1  # one known inconsistent printed delta


class TestSmallMetrics:
    def test_mean_top1_top5(self):
        assert mean_top1_top5(50.0, 70.0) == 60.0
        assert mean_top1_top5(42.0, 42.0) == 42.0
        with pytest.raises(InputError):
            mean_top1_top5(70.0, 50.0)

    def test_center_frame(self):
        assert center_frame(["a"]) == "a"
        assert center_frame(list("abcde")) == "c"
        assert center_frame(list("abcd")) == "c"  # floor(4/2) = index 2
        with pytest.raises(InputError):
            center_frame([])


def test_evaluate_rejects_a_held_out_label_without_a_class_name(tmp_path):
    spec = CorpusSpec(num_classes=4, samples_per_class=4, image_size=16, seed=0)
    corpus = load_corpus(generate_corpus(spec, tmp_path))
    model = ClipModel.init(preset("tiny"), 0)
    with pytest.raises(InputError, match="held-out label 2 has no class name"):
        evaluate(model, corpus, class_names=corpus.class_names[:2])


def test_evaluate_rejects_an_empty_template_list(tmp_path):
    """An empty list is rejected like ``class_names=[]``; only ``None`` means the default prompt."""
    spec = CorpusSpec(num_classes=4, samples_per_class=4, image_size=16, seed=0)
    corpus = load_corpus(generate_corpus(spec, tmp_path))
    model = ClipModel.init(preset("tiny"), 0)
    with pytest.raises(InputError, match="prompt template"):
        evaluate(model, corpus, templates=[])
