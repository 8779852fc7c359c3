"""Property tests over both binary formats. Random checkpoints and shards load
back as written; every truncation raises CorruptionError at an offset no later
than the cut; a flipped bit either loads or raises a typed error, and only the
magic and version raise one without an offset."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deskclip.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from deskclip.data import ShardRecord, read_shard, write_shard
from deskclip.errors import CorruptionError, FormatError

HEADER_BITS = 8 * 8  # 4-byte magic + u32 version
SETTINGS = settings(max_examples=25, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

shapes = st.lists(st.integers(0, 3), min_size=0, max_size=3).map(tuple)  # 0-d and zero-size dims included


def tables(dtype):
    return st.dictionaries(st.text(max_size=12),
                           shapes.flatmap(lambda shape: arrays(dtype, shape)), max_size=4)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
checkpoints = st.builds(Checkpoint, tables(np.float32), tables(np.float64),
                        st.dictionaries(st.text(max_size=8), json_values, max_size=4))

SHARD_SHAPE, SHARD_CLASSES = (2, 3, 3), 5
records = st.lists(st.builds(ShardRecord, st.integers(0, SHARD_CLASSES - 1),
                             arrays(np.uint8, SHARD_SHAPE), st.binary(max_size=40)), max_size=5)


def read_records(path):
    return list(read_shard(path, SHARD_SHAPE, SHARD_CLASSES))


def check_truncations_and_flips(path, blob, load, bits):
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        try:
            load(path)
        except CorruptionError as err:
            assert err.offset is not None and err.offset <= cut, cut
        else:
            raise AssertionError(f"a file cut at byte {cut} of {len(blob)} loaded")
    for bit in bits:
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            load(path)
        except CorruptionError as err:
            assert err.offset is not None and 0 <= err.offset <= len(blob), bit
        except FormatError:
            assert bit < HEADER_BITS, bit


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(ckpt=checkpoints, data=st.data())
def test_random_checkpoints_round_trip_and_fail_typed(tmp_path, ckpt, data):
    path = tmp_path / "c.bin"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.metadata == ckpt.metadata
    for table, loaded in ((ckpt.tensors, back.tensors), (ckpt.optimizer, back.optimizer)):
        assert loaded.keys() == table.keys()
        assert all(same_array(loaded[name], arr) for name, arr in table.items())
    blob = path.read_bytes()
    bits = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=40))
    check_truncations_and_flips(path, blob, load_checkpoint, bits)


@SETTINGS
@given(recs=records, data=st.data())
def test_random_shards_round_trip_and_fail_typed(tmp_path, recs, data):
    path = tmp_path / "s.shard"
    write_shard(recs, path)
    back = read_records(path)
    assert [(r.class_id, r.caption) for r in back] == [(r.class_id, r.caption) for r in recs]
    assert all(same_array(b.image, r.image) for b, r in zip(back, recs))
    blob = path.read_bytes()
    bits = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=40))
    check_truncations_and_flips(path, blob, read_records, bits)
