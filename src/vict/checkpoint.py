"""Binary checkpoint format for named parameter tensors.

Layout (all integers unsigned 32-bit little-endian):

    magic "VICTCKPT" | version | config block length + text | tensor count
    then per tensor: name length + name | group byte (e/d) | rank | dims...
    | raw float32 little-endian values

The config block is ``key=value`` text, one model-config field per line.
Round-trips are bit-exact for float32 parameters.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .model import DECODER, ENCODER, ModelConfig, Params
from .tensor import Tensor

MAGIC = b"VICTCKPT"
FORMAT_VERSION = 1
_GROUP_BYTES = {ENCODER: b"e", DECODER: b"d"}
_GROUP_NAMES = {b"e": ENCODER, b"d": DECODER}
_MAX_ELEMENTS = 2**31


class CheckpointError(ValueError):
    pass


def _config_block(config: ModelConfig) -> bytes:
    lines = [
        f"cell_size={config.cell_size}",
        f"patch_size={config.patch_size}",
        f"embed_dim={config.embed_dim}",
        f"encoder_depth={config.encoder_depth}",
        f"decoder_depth={config.decoder_depth}",
        f"num_heads={config.num_heads}",
        f"mlp_ratio={config.mlp_ratio}",
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_config_block(text: str, path: str | Path) -> ModelConfig:
    fields: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        try:
            fields[key.strip()] = int(value)  # no "=" leaves value empty
        except ValueError:
            raise CheckpointError(f"{path}: bad config line {line!r}, expected key=integer") from None
    try:
        return ModelConfig(**fields)
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: bad config block: {err}") from err


def save_checkpoint(params: Params, path: str | Path) -> None:
    chunks: list[bytes] = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    block = _config_block(params.config)
    chunks.append(struct.pack("<I", len(block)))
    chunks.append(block)
    chunks.append(struct.pack("<I", len(params.tensors)))
    for name, t in params.tensors.items():
        data = np.ascontiguousarray(t.data, dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(_GROUP_BYTES[params.groups[name]])
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at offset {self.pos}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str | Path) -> Params:
    raw = Path(path).read_bytes()
    reader = _Reader(raw)
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    config = _parse_config_block(reader.take(reader.u32()).decode("ascii"), path)
    count = reader.u32()
    tensors: dict[str, Tensor] = {}
    groups: dict[str, str] = {}
    for _ in range(count):
        name = reader.take(reader.u32()).decode("utf-8")
        group_byte = reader.take(1)
        if group_byte not in _GROUP_NAMES:
            raise CheckpointError(f"{path}: unknown group byte {group_byte!r} for tensor {name!r}")
        rank = reader.u32()
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        elements = int(np.prod(dims, dtype=np.int64)) if dims else 1
        if elements <= 0 or elements > _MAX_ELEMENTS:
            raise CheckpointError(f"{path}: tensor {name!r} dimension overflow {dims}")
        values = np.frombuffer(reader.take(4 * elements), dtype="<f4").reshape(dims)
        tensors[name] = Tensor(values.astype(np.float32), requires_grad=True)
        groups[name] = _GROUP_NAMES[group_byte]
    if reader.pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - reader.pos} trailing bytes after tensor table")
    return Params(config=config, tensors=tensors, groups=groups)


def describe_checkpoint(path: str | Path) -> str:
    """Human-readable metadata: config block verbatim plus the tensor table."""
    params = load_checkpoint(path)
    lines = [f"checkpoint: {path}", f"format version: {FORMAT_VERSION}", "config:"]
    lines += ["  " + line for line in _config_block(params.config).decode("ascii").splitlines()]
    lines.append(f"tensors: {len(params.tensors)} ({params.total_parameters()} parameters)")
    for name, t in params.tensors.items():
        lines.append(f"  {name}  group={params.groups[name]}  shape={list(t.shape)}")
    return "\n".join(lines)
