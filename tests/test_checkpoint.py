import struct

import numpy as np
import pytest

from vict import model
from vict.tensor import Tensor
from vict.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    _config_block,
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


def test_loaded_weights_are_off_the_tape(tmp_path):
    params = model.init(SMALL_MODEL, seed=1)
    model.trainable(params, "all")
    path = tmp_path / "trained.bin"
    save_checkpoint(params, path)
    assert not any(t.requires_grad for t in load_checkpoint(path).tensors.values())


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
    with pytest.raises(CheckpointError, match="truncated") as err:
        load_checkpoint(bad)
    assert str(err.value).startswith(f"{bad}: ")


def test_trailing_garbage_rejected(checkpoint_path, tmp_path):
    _, path = checkpoint_path
    bad = tmp_path / "bad.bin"
    bad.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bad)


def _with_config_block(path, tmp_path, edit):
    """A copy of the checkpoint at ``path`` whose config block is ``edit(block)``."""
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", raw, start)
    block = edit(raw[start + 4 : start + 4 + length])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:start] + struct.pack("<I", len(block)) + block + raw[start + 4 + length :])
    return bad


@pytest.mark.parametrize("line", [b"patch_size", b"patch_size=eight"])
def test_malformed_config_line_rejected(checkpoint_path, tmp_path, line):
    bad = _with_config_block(checkpoint_path[1], tmp_path, lambda block: block.replace(b"patch_size=8", line))
    with pytest.raises(CheckpointError, match="bad config line") as err:
        load_checkpoint(bad)
    assert str(bad) in str(err.value) and repr(line.decode()) in str(err.value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda block: b"\xff" + block, r"config block is not ascii: 'ascii' codec can't decode byte 0xff in position 0"),
        (lambda block: block.replace(b"mlp_ratio=4\n", b""), r"config block lacks mlp_ratio$"),
        (lambda block: block + b"embed_dim=32\n", r"config field 'embed_dim' given twice$"),
    ],
    ids=["non-ascii", "missing-field", "repeated-field"],
)
def test_malformed_config_block_rejected_by_name(checkpoint_path, tmp_path, edit, message):
    bad = _with_config_block(checkpoint_path[1], tmp_path, edit)
    with pytest.raises(CheckpointError, match=message) as err:
        load_checkpoint(bad)
    assert str(err.value).startswith(f"{bad}: ")


def test_tensor_name_that_is_not_utf8_rejected(checkpoint_path, tmp_path):
    _, path = checkpoint_path
    bad = tmp_path / "bad.bin"
    bad.write_bytes(path.read_bytes().replace(b"head.weight", b"head.weigh\xff"))
    index = len(model.layout(SMALL_MODEL)) - 2
    with pytest.raises(CheckpointError, match=rf"^{bad}: tensor {index}'s name is not utf-8: 'utf-8' codec"):
        load_checkpoint(bad)


def test_default_config_block_text():
    # the block follows ModelConfig's field order, so a reorder shows here
    expected = "cell_size=32\npatch_size=8\nembed_dim=64\nencoder_depth=4\ndecoder_depth=2\nnum_heads=4\nmlp_ratio=4\n"
    assert _config_block(model.ModelConfig()) == expected.encode("ascii")


def test_group_byte_that_disagrees_with_name_rejected(checkpoint_path, tmp_path):
    _, path = checkpoint_path
    raw = path.read_bytes()
    name = b"head.weight"
    at = raw.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
    assert raw[at : at + 1] == b"d"
    bad = tmp_path / "relabelled.bin"
    bad.write_bytes(raw[:at] + b"e" + raw[at + 1 :])
    with pytest.raises(CheckpointError, match="'head.weight' has group byte b'e'.*decoder group"):
        load_checkpoint(bad)


def _drop(name):
    return lambda tensors: tensors.pop(name)


def _add_extra(tensors):
    tensors["enc5.extra"] = Tensor(np.zeros(3, np.float32))


def _swap_first_two(tensors):
    first, second, *rest = tensors
    reordered = {name: tensors[name] for name in (second, first, *rest)}
    tensors.clear()
    tensors.update(reordered)


def _widen_head_bias(tensors):
    tensors["head.bias"] = Tensor(np.zeros(tensors["head.bias"].shape[0] + 1, np.float32))


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop("enc0.ln1.gain"), r"tensor 4 is 'enc0.ln1.bias', but the config puts 'enc0.ln1.gain' there"),
        (_drop("head.bias"), r"missing tensor 'head.bias'"),
        (_add_extra, r"unexpected tensor 'enc5.extra'"),
        (_swap_first_two, r"tensor 0 is 'patch_embed.bias', but the config puts 'patch_embed.weight' there"),
        (_widen_head_bias, r"tensor 'head.bias' has shape \[193\], but the config gives \[192\]"),
    ],
    ids=["missing", "missing-last", "extra", "reordered", "misshapen"],
)
def test_tensor_table_that_differs_from_the_config_rejected(tmp_path, edit, message):
    params = model.init(SMALL_MODEL, seed=1)
    edit(params.tensors)
    bad = tmp_path / "bad.bin"
    save_checkpoint(params, bad)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(bad)


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
