import json

import numpy as np
import pytest

from deskclip import checkpoint as checkpoint_module
from deskclip.binfile import atomic_writer
from deskclip.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from deskclip.data import ShardRecord, read_shard, write_shard
from deskclip.errors import CorruptionError, FormatError

META = {"step": 3}


@pytest.fixture
def blob(tmp_path):
    ckpt = Checkpoint(
        tensors={"w": np.arange(6, dtype=np.float32).reshape(2, 3)},
        optimizer={"m/w": np.linspace(0.0, 1.0, 6).reshape(2, 3)},
        metadata=META,
    )
    save_checkpoint(tmp_path / "c.bin", ckpt)
    return (tmp_path / "c.bin").read_bytes()


def load_bytes(tmp_path, data):
    path = tmp_path / "x.bin"
    path.write_bytes(data)
    return load_checkpoint(path)


def test_intact_file_loads(tmp_path, blob):
    ckpt = load_bytes(tmp_path, blob)
    assert ckpt.metadata == META
    np.testing.assert_array_equal(ckpt.tensors["w"], np.arange(6).reshape(2, 3))


def test_every_truncation_names_its_offset(tmp_path, blob):
    for cut in range(len(blob)):
        with pytest.raises(CorruptionError) as err:
            load_bytes(tmp_path, blob[:cut])
        assert err.value.offset is not None and err.value.offset <= cut, cut
        assert f"byte offset {err.value.offset}" in str(err.value), cut


def test_trailing_byte_rejected(tmp_path, blob):
    with pytest.raises(CorruptionError, match="1 trailing bytes") as err:
        load_bytes(tmp_path, blob + b"\x00")
    assert err.value.offset == len(blob)


def test_bad_magic_rejected(tmp_path, blob):
    with pytest.raises(FormatError) as err:
        load_bytes(tmp_path, b"NOPE" + blob[4:])
    assert not isinstance(err.value, CorruptionError)


def test_unknown_dtype_code_rejected(tmp_path, blob):
    meta_len = len(json.dumps(META, sort_keys=True).encode("utf-8"))
    code_at = 4 + 4 + 8 + meta_len + 4 + 2 + len(b"w")  # first model-table row
    assert blob[code_at] == 0  # float32
    with pytest.raises(CorruptionError, match="unknown dtype code 7"):
        load_bytes(tmp_path, blob[:code_at] + b"\x07" + blob[code_at + 1:])


def test_every_bit_flip_loads_or_raises_a_format_error(tmp_path, blob):
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            load_bytes(tmp_path, bytes(flipped))
        except CorruptionError as err:
            assert err.offset is not None, bit
        except FormatError:
            pass  # magic or version


# -- atomic writes ------------------------------------------------------------------


def test_atomic_writer_replaces_only_on_a_clean_exit(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_writer(path, b"TEST", 1) as f:
            f.write(b"partial")
            raise RuntimeError("writer failed")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]
    with atomic_writer(path, b"TEST", 1) as f:
        f.write(b"new")
    assert path.read_bytes() == b"TEST\x01\x00\x00\x00new"
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


def test_checkpoint_write_failing_midway_keeps_the_old_file(tmp_path, blob, monkeypatch):
    path = tmp_path / "c.bin"
    real_write_table, calls = checkpoint_module._write_table, []

    def write_table(f, arrays):  # the model table is written, then the writer dies
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk went away")
        return real_write_table(f, arrays)

    monkeypatch.setattr(checkpoint_module, "_write_table", write_table)
    with pytest.raises(OSError):
        save_checkpoint(path, Checkpoint({"w": np.zeros(3, np.float32)}, {"m/w": np.ones(3)}, {"step": 9}))
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


def test_shard_write_failing_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "s.shard"
    good = [ShardRecord(1, np.zeros((3, 2, 2), np.uint8), b"a cat")]
    write_shard(good, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):  # the second record's caption is not bytes
        write_shard(good + [ShardRecord(2, np.ones((3, 2, 2), np.uint8), None)], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.shard"]
    assert [r.caption for r in read_shard(path)] == [b"a cat"]


def test_save_load_save_in_place_is_byte_identical(tmp_path, blob):
    path = tmp_path / "c.bin"
    save_checkpoint(path, load_checkpoint(path))
    assert path.read_bytes() == blob
