import json

import numpy as np
import pytest

from deskclip.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    BatchStream,
    CorpusSpec,
    ShardRecord,
    TokenizerSpec,
    class_name,
    detokenize,
    generate_corpus,
    load_corpus,
    random_resized_crop,
    read_shard,
    to_float,
    tokenize,
    write_shard,
)
from deskclip.errors import ContractError, CorruptionError, FormatError


def small_spec(**kw):
    base = dict(num_classes=8, samples_per_class=16, image_size=16, seed=3)
    base.update(kw)
    return CorpusSpec(**base)


class TestTokenizer:
    SPEC = TokenizerSpec(context_length=32)

    def test_empty_caption(self):
        ids = tokenize("", self.SPEC)
        assert ids[0] == BOS_ID and ids[1] == EOS_ID
        assert np.all(ids[2:] == PAD_ID)

    def test_exactly_one_eos_always(self):
        for caption in ("", "a", "x" * 500, "caption with spaces"):
            ids = tokenize(caption, self.SPEC)
            assert (ids == EOS_ID).sum() == 1

    def test_long_caption_truncated_to_fit(self):
        ids = tokenize("z" * 100, self.SPEC)
        assert len(ids) == 32
        assert ids[0] == BOS_ID
        assert np.all(ids[1:31] == ord("z"))
        assert ids[31] == EOS_ID

    def test_round_trip_under_length_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(0, 31))  # up to context - 2 bytes
            raw = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
            assert detokenize(tokenize(raw, self.SPEC), self.SPEC) == raw


class TestShards:
    def make_records(self, n=16, seed=0):
        rng = np.random.default_rng(seed)
        return [
            ShardRecord(
                int(rng.integers(0, 4)),
                rng.integers(0, 256, size=(3, 8, 8), dtype=np.uint8).astype(np.uint8),
                bytes(rng.integers(32, 127, size=int(rng.integers(0, 40)), dtype=np.uint8)),
            )
            for _ in range(n)
        ]

    def test_round_trip_bytes_identical(self, tmp_path):
        records = self.make_records(128)
        p1, p2 = tmp_path / "a.shard", tmp_path / "b.shard"
        write_shard(records, p1)
        back = list(read_shard(p1, (3, 8, 8)))
        assert len(back) == 128
        write_shard(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_names_offset(self, tmp_path):
        records = self.make_records(4)
        p = tmp_path / "t.shard"
        write_shard(records, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-3])
        with pytest.raises(CorruptionError) as err:
            list(read_shard(p))
        assert err.value.offset is not None
        assert str(err.value.offset) in str(err.value)

    def test_empty_shard_is_fine(self, tmp_path):
        p = tmp_path / "e.shard"
        write_shard([], p)
        assert list(read_shard(p)) == []

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.shard"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            list(read_shard(p))

    def test_every_bit_flip_loads_or_raises_a_format_error(self, tmp_path):
        records = [ShardRecord(c, np.full((3, 2, 2), c, dtype=np.uint8), b"abc") for c in (1, 2)]
        p = tmp_path / "s.shard"
        write_shard(records, p)
        blob = p.read_bytes()
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            p.write_bytes(bytes(flipped))
            try:
                list(read_shard(p, (3, 2, 2)))
            except CorruptionError as err:
                assert err.offset is not None, bit
            except FormatError:
                pass  # magic or version


class TestCorpusGeneration:
    def test_record_count_and_uniform_histogram(self, tmp_path):
        corpus = load_corpus(generate_corpus(small_spec(), tmp_path))
        assert len(corpus.train) == 128
        hist = np.bincount([r.class_id for r in corpus.train], minlength=8)
        np.testing.assert_array_equal(hist, np.full(8, 16))

    def test_same_seed_gives_byte_identical_shards(self, tmp_path):
        m1 = generate_corpus(small_spec(), tmp_path / "a")
        m2 = generate_corpus(small_spec(), tmp_path / "b")
        for name in ("train-000.shard", "eval-000.shard", "manifest.json"):
            assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()

    def test_nearest_centroid_oracle_beats_90_percent(self, tmp_path):
        corpus = load_corpus(generate_corpus(small_spec(), tmp_path))
        train = np.stack([to_float(r.image).reshape(-1) for r in corpus.train])
        labels = np.array([r.class_id for r in corpus.train])
        centroids = np.stack([train[labels == c].mean(axis=0) for c in range(8)])
        held = np.stack([to_float(r.image).reshape(-1) for r in corpus.heldout])
        held_labels = np.array([r.class_id for r in corpus.heldout])
        d = ((held[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        acc = (d.argmin(axis=1) == held_labels).mean()
        assert acc > 0.9

    @pytest.mark.parametrize("key", ["channels", "train_shards"])
    def test_manifest_missing_key_names_file_and_key(self, tmp_path, key):
        manifest = generate_corpus(small_spec(), tmp_path)
        fields = json.loads(manifest.read_text())
        del fields[key]
        manifest.write_text(json.dumps(fields))
        with pytest.raises(FormatError, match=rf"manifest\.json: manifest has no key '{key}'"):
            load_corpus(manifest)

    @pytest.mark.parametrize("key, value, kind", [
        ("image_size", "32", "a positive integer"), ("channels", 0, "a positive integer"),
        ("channels", 2.5, "a positive integer"), ("class_names", "abc", "a list"),
        ("train_shards", "train-000.shard", "a list of file names"),
        ("eval_shards", ["eval-000.shard", 3], "a list of file names")])
    def test_manifest_value_of_the_wrong_type_names_its_key(self, tmp_path, key, value, kind):
        manifest = generate_corpus(small_spec(), tmp_path)
        fields = json.loads(manifest.read_text())
        fields[key] = value
        manifest.write_text(json.dumps(fields))
        with pytest.raises(FormatError, match=rf"manifest\.json: manifest key '{key}' must be {kind}"):
            load_corpus(manifest)

    def test_class_id_past_the_class_count_names_its_offset(self, tmp_path):
        manifest = generate_corpus(small_spec(num_classes=4), tmp_path)
        shard = tmp_path / "eval-000.shard"
        blob = bytearray(shard.read_bytes())
        first_record = 4 + 4 + 8  # magic, version, record count
        assert blob[first_record] == 0  # class 0
        blob[first_record] ^= 1 << 6  # class 64
        shard.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="class id 64") as err:
            load_corpus(manifest)
        assert err.value.offset == first_record

    def test_manifest_not_json_names_file(self, tmp_path):
        manifest = generate_corpus(small_spec(), tmp_path)
        manifest.write_text("{version: 1")
        with pytest.raises(FormatError, match=r"manifest\.json: manifest is not JSON"):
            load_corpus(manifest)

    def test_captions_use_templates_and_class_names(self, tmp_path):
        spec = small_spec(caption_templates=("a photo of a {}", "an image of a {}"))
        corpus = load_corpus(generate_corpus(spec, tmp_path))
        names = corpus.class_names
        for r in corpus.train[:16]:
            text = r.caption.decode()
            assert names[r.class_id] in text
            assert text.startswith(("a photo of a ", "an image of a "))

    def test_class_names_unique(self):
        names = [class_name(i) for i in range(64)]
        assert len(set(names)) == 64


class TestRandomResizedCrop:
    def test_full_scale_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((3, 16, 16)).astype(np.float32)
        out = random_resized_crop(img, (1.0, 1.0), np.random.default_rng(1))
        np.testing.assert_array_equal(out, img)

    def test_output_extent_always_matches_input(self):
        rng = np.random.default_rng(2)
        img = rng.standard_normal((3, 17, 17)).astype(np.float32)
        for seed in range(10):
            out = random_resized_crop(img, (0.9, 1.0), np.random.default_rng(seed))
            assert out.shape == img.shape

    def test_constant_image_stays_constant(self):
        img = np.full((3, 12, 12), 0.25, dtype=np.float32)
        out = random_resized_crop(img, (0.5, 0.9), np.random.default_rng(3))
        np.testing.assert_allclose(out, 0.25, atol=1e-6)

    def test_deterministic_per_seed(self):
        img = np.random.default_rng(4).standard_normal((3, 16, 16)).astype(np.float32)
        a = random_resized_crop(img, (0.6, 0.95), np.random.default_rng(7))
        b = random_resized_crop(img, (0.6, 0.95), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_invalid_range_rejected(self):
        img = np.zeros((3, 8, 8), dtype=np.float32)
        with pytest.raises(ContractError):
            random_resized_crop(img, (0.0, 1.0), np.random.default_rng(0))


class TestBatchStream:
    def make_stream(self, n=20, seed=11):
        rng = np.random.default_rng(0)
        records = [
            ShardRecord(i % 4, rng.integers(0, 256, size=(1, 4, 4), dtype=np.uint8), f"cap {i}".encode())
            for i in range(n)
        ]
        return BatchStream(records, TokenizerSpec(16), seed=seed)

    def test_epoch_is_permutation_no_drop_no_duplicate(self):
        stream = self.make_stream(n=20)
        seen = np.concatenate([stream.indices_at(p, 5) for p in range(0, 20, 5)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(20))

    def test_batches_span_epoch_boundaries(self):
        stream = self.make_stream(n=10)
        two_epochs = np.concatenate([stream.indices_at(p, 4) for p in range(0, 20, 4)])
        np.testing.assert_array_equal(np.sort(two_epochs[:10]), np.arange(10))
        np.testing.assert_array_equal(np.sort(two_epochs[10:]), np.arange(10))

    def test_walk_over_six_epochs_holds_only_the_spanned_permutations(self):
        n, b, seed = 10, 4, 11
        stream = self.make_stream(n=n, seed=seed)
        walked, held = [], []
        for step in range(15):  # 60 positions: six epochs
            walked.append(stream.indices_at(step * b, b))
            held.append(len(stream._perms))
        want = np.concatenate([
            np.random.default_rng(np.random.SeedSequence([seed, e])).permutation(n) for e in range(6)])
        np.testing.assert_array_equal(np.concatenate(walked), want)
        assert max(held) == 2  # a batch spans at most two epochs here

    def test_fixed_seed_reproducible_across_instances(self):
        a = self.make_stream(seed=5).indices_at(13, 7)
        b = self.make_stream(seed=5).indices_at(13, 7)
        np.testing.assert_array_equal(a, b)

    def test_batch_contents_match_records(self):
        stream = self.make_stream(n=12)
        batch = stream.batch_at(0, 4)
        assert batch.images.shape == (4, 1, 4, 4)
        assert batch.images.dtype == np.float32
        assert batch.images.min() >= -1.0 and batch.images.max() <= 1.0
        assert batch.token_ids.shape == (4, 16)
