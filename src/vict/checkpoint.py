"""Binary checkpoint format for named parameter tensors.

Layout (all integers unsigned 32-bit little-endian):

    magic "VICTCKPT" | version | config block length + text | tensor count
    then per tensor: name length + name | group byte (e/d) | rank | dims...
    | raw float32 little-endian values

The config block is ``key=value`` text, one model-config field per line
in ``ModelConfig`` field order. The tensor table must list exactly
``model.layout(config)``: the same names, in the same order, with the
same shapes, and every value finite. The group byte is written from the
tensor name (``model.group_of``) and checked against it on load, so a
file cannot relabel what test-time tuning updates. Round-trips are
bit-exact for float32 parameters.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .model import DECODER, ENCODER, ModelConfig, Params, group_of, layout

MAGIC = b"VICTCKPT"
FORMAT_VERSION = 1
_GROUP_BYTES = {ENCODER: b"e", DECODER: b"d"}


class CheckpointError(ValueError):
    pass


def _config_block(config: ModelConfig) -> bytes:
    return "".join(f"{f.name}={getattr(config, f.name)}\n" for f in fields(config)).encode("ascii")


def _decode(raw: bytes, encoding: str, what: str, path: str | Path) -> str:
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as err:
        raise CheckpointError(f"{path}: {what} is not {encoding}: {err}") from None


def _parse_config_block(raw: bytes, path: str | Path) -> ModelConfig:
    values: dict[str, int] = {}
    for line in _decode(raw, "ascii", "config block", path).splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise CheckpointError(f"{path}: config field {key!r} given twice")
        try:
            values[key] = int(value)  # no "=" leaves value empty
        except ValueError:
            raise CheckpointError(f"{path}: bad config line {line!r}, expected key=integer") from None
    missing = [f.name for f in fields(ModelConfig) if f.name not in values]
    if missing:
        raise CheckpointError(f"{path}: config block lacks {', '.join(missing)}")
    try:
        return ModelConfig(**values)
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
        chunks.append(_GROUP_BYTES[group_of(name)])
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, raw: bytes, path: str | Path):
        self.raw = raw
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated checkpoint: wanted {n} bytes at offset {self.pos}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str | Path) -> Params:
    raw = Path(path).read_bytes()
    reader = _Reader(raw, path)
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    config = _parse_config_block(reader.take(reader.u32()), path)
    expected = layout(config)
    params = Params.empty(config)  # every tensor is filled below, or the load fails
    count = reader.u32()
    for i in range(count):
        name = _decode(reader.take(reader.u32()), "utf-8", f"tensor {i}'s name", path)
        if i == len(expected):
            raise CheckpointError(f"{path}: unexpected tensor {name!r} after the {len(expected)} the config defines")
        want, shape, _ = expected[i]
        if name != want:
            raise CheckpointError(f"{path}: tensor {i} is {name!r}, but the config puts {want!r} there")
        group_byte, group = reader.take(1), group_of(name)
        if group_byte != _GROUP_BYTES[group]:
            raise CheckpointError(
                f"{path}: tensor {name!r} has group byte {group_byte!r}, but its name puts it in the "
                f"{group} group ({_GROUP_BYTES[group]!r})"
            )
        rank = reader.u32()
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        if dims != shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {list(dims)}, but the config gives {list(shape)}")
        values = np.frombuffer(reader.take(4 * math.prod(dims)), dtype="<f4")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        params.tensors[name].data[...] = values.reshape(dims)
    if count < len(expected):
        raise CheckpointError(f"{path}: missing tensor {expected[count][0]!r}; the table ends after {count}")
    if reader.pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - reader.pos} trailing bytes after tensor table")
    return params


def describe_checkpoint(path: str | Path) -> str:
    """Human-readable metadata: config block verbatim plus the tensor table."""
    params = load_checkpoint(path)
    lines = [f"checkpoint: {path}", f"format version: {FORMAT_VERSION}", "config:"]
    lines += ["  " + line for line in _config_block(params.config).decode("ascii").splitlines()]
    lines.append(f"tensors: {len(params.tensors)} ({params.total_parameters()} parameters)")
    for name, t in params.tensors.items():
        lines.append(f"  {name}  group={group_of(name)}  shape={list(t.shape)}")
    return "\n".join(lines)
