import json

import numpy as np
import pytest

from deskclip.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
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
