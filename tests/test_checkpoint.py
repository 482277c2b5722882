import struct

import numpy as np
import pytest

from vict import model
from vict.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    describe_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

SMALL_MODEL = model.ModelConfig(cell_size=16, patch_size=8, embed_dim=32, encoder_depth=1, decoder_depth=1, num_heads=2)


@pytest.fixture()
def checkpoint_path(tmp_path):
    params = model.init(SMALL_MODEL, seed=1)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    return params, path


def test_round_trip_is_bit_exact(checkpoint_path):
    params, path = checkpoint_path
    loaded = load_checkpoint(path)
    assert loaded.digest() == params.digest()
    assert loaded.config == params.config
    assert list(loaded.tensors) == list(params.tensors)
    assert loaded.groups == params.groups


def test_save_load_save_identical_bytes(checkpoint_path, tmp_path):
    _, path = checkpoint_path
    second = tmp_path / "again.bin"
    save_checkpoint(load_checkpoint(path), second)
    assert path.read_bytes() == second.read_bytes()


def test_magic_and_layout(checkpoint_path):
    params, path = checkpoint_path
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    version = struct.unpack_from("<I", raw, len(MAGIC))[0]
    assert version == FORMAT_VERSION
    config_len = struct.unpack_from("<I", raw, len(MAGIC) + 4)[0]
    block = raw[len(MAGIC) + 8 : len(MAGIC) + 8 + config_len].decode("ascii")
    assert "cell_size=16" in block
    count = struct.unpack_from("<I", raw, len(MAGIC) + 8 + config_len)[0]
    assert count == len(params.tensors)


def test_corrupted_magic_rejected(checkpoint_path, tmp_path):
    _, path = checkpoint_path
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)


def test_unsupported_version_rejected(checkpoint_path, tmp_path):
    _, path = checkpoint_path
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, len(MAGIC), 99)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)


def test_truncated_file_rejected(checkpoint_path, tmp_path):
    _, path = checkpoint_path
    raw = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)


def test_trailing_garbage_rejected(checkpoint_path, tmp_path):
    _, path = checkpoint_path
    bad = tmp_path / "bad.bin"
    bad.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bad)


@pytest.mark.parametrize("line", [b"patch_size", b"patch_size=eight"])
def test_malformed_config_line_rejected(checkpoint_path, tmp_path, line):
    _, path = checkpoint_path
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", raw, start)
    block = raw[start + 4 : start + 4 + length].replace(b"patch_size=8", line)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:start] + struct.pack("<I", len(block)) + block + raw[start + 4 + length :])
    with pytest.raises(CheckpointError, match="bad config line") as err:
        load_checkpoint(bad)
    assert str(bad) in str(err.value) and repr(line.decode()) in str(err.value)


def test_describe_mentions_config_and_tensors(checkpoint_path):
    params, path = checkpoint_path
    text = describe_checkpoint(path)
    assert "cell_size=16" in text
    assert f"tensors: {len(params.tensors)}" in text
    assert "mask_token" in text


def test_float64_params_saved_as_float32(tmp_path):
    params = model.init(SMALL_MODEL, seed=2, dtype=np.float64)
    path = tmp_path / "f64.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.tensors["mask_token"].dtype == np.float32
    assert np.allclose(loaded.tensors["mask_token"].data, params.tensors["mask_token"].data, atol=1e-7)
