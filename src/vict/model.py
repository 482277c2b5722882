"""Small patch-transformer encoder-decoder for masked canvas inpainting.

The canvas is split into patches, each linearly projected to an embedding;
masked patches are replaced by a learned mask token (post-projection, so
nothing of the fill value reaches attention), learned positional embeddings
are added, and pre-norm transformer blocks run encoder then decoder. A
linear head projects every position back to pixels, squashed to (0, 1) by
a logistic so outputs are always valid cell images.

Parameters carry a group label so test-time tuning can update the encoder
group alone: patch embedding, positional embeddings, mask token, and the
encoder blocks are "encoder"; the decoder blocks and output head are
"decoder".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import tensor as T
from .canvas import Canvas
from .seeding import rng_for

ENCODER = "encoder"
DECODER = "decoder"

# structured-init gains (see _grid_circuit_init)
_CODE_GAIN = 2.0
_ROUTE_GAIN = 1.5
_MIX_GAIN = 1.0
_HEAD_TIE_GAIN = 6.0

_CELL_CODES = np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=np.float64
)
_SIBLING = (1, 0, 3, 2)  # horizontally adjacent cell: TL<->TR, BL<->BR
_SIBLING_MAP = sum(np.outer(_CELL_CODES[_SIBLING[c]], _CELL_CODES[c]) for c in range(4)) / 4.0


@dataclass(frozen=True)
class ModelConfig:
    cell_size: int = 32
    patch_size: int = 8
    embed_dim: int = 64
    encoder_depth: int = 4
    decoder_depth: int = 2
    num_heads: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        values = (
            self.cell_size,
            self.patch_size,
            self.embed_dim,
            self.encoder_depth,
            self.decoder_depth,
            self.num_heads,
            self.mlp_ratio,
        )
        if any(v <= 0 for v in values):
            raise ValueError(f"ModelConfig: all fields must be positive, got {self}")
        if self.cell_size % self.patch_size != 0:
            raise ValueError(f"ModelConfig: cell_size {self.cell_size} not a multiple of patch_size {self.patch_size}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(f"ModelConfig: embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")

    @property
    def grid(self) -> int:
        return 2 * self.cell_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3


@dataclass
class Params:
    """Named parameter tensors plus their encoder/decoder group labels."""

    config: ModelConfig
    tensors: dict[str, T.Tensor]
    groups: dict[str, str]

    def clone(self) -> "Params":
        return Params(
            config=self.config,
            tensors={name: T.Tensor(t.data.copy(), requires_grad=True) for name, t in self.tensors.items()},
            groups=dict(self.groups),
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.config).encode())
        for name, t in self.tensors.items():
            h.update(name.encode())
            h.update(self.groups[name].encode())
            h.update(str(t.shape).encode())
            h.update(t.data.tobytes())
        return h.hexdigest()

    def total_parameters(self) -> int:
        return sum(t.size for t in self.tensors.values())


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    lo, hi = ndtr(-2.0), ndtr(2.0)
    u = rng.uniform(lo, hi, size=shape)
    return (ndtri(u) * std).astype(dtype)


def _grid_circuit_init(config: ModelConfig, tensors: dict[str, T.Tensor]) -> None:
    """Wire the cross-cell copy circuit into the initialization.

    With a batch size of 1 and a few thousand steps, the routing that moves
    content between grid cells does not emerge reliably from a plain random
    init, so it is built in and left fully learnable: positional embeddings
    carry one-hot local-row/column codes plus a cell identity code; every
    encoder attention head starts matching same-local-position tokens in the
    horizontally adjacent cell (the cell that holds each output's input);
    value and output projections start as identity mixing; and the pixel
    head starts as the transpose of the patch embedding. Skipped when the
    head dimension cannot hold the codes (e.g. the tiny gradcheck config).
    """
    d = config.embed_dim
    hd = d // config.num_heads
    half = config.grid // 2
    code_dims = 2 * half + 4
    if code_dims > min(d, hd):
        return
    dtype = tensors["pos_embed"].dtype

    rows = np.repeat(np.arange(config.grid), config.grid)
    cols = np.tile(np.arange(config.grid), config.grid)
    cell = (rows // half) * 2 + (cols // half)
    pe = np.zeros((config.num_patches, d))
    pe[np.arange(len(rows)), rows % half] = _CODE_GAIN
    pe[np.arange(len(rows)), half + (cols % half)] = _CODE_GAIN
    pe[:, 2 * half : code_dims] = _CELL_CODES[cell] * _CODE_GAIN
    tensors["pos_embed"].data += pe.astype(dtype)

    q_block = np.zeros((d, hd))
    k_block = np.zeros((d, hd))
    q_block[: 2 * half, : 2 * half] = np.eye(2 * half) * _ROUTE_GAIN
    k_block[: 2 * half, : 2 * half] = np.eye(2 * half) * _ROUTE_GAIN
    q_block[2 * half : code_dims, 2 * half : code_dims] = _SIBLING_MAP.T * _ROUTE_GAIN
    k_block[2 * half : code_dims, 2 * half : code_dims] = np.eye(4) * _ROUTE_GAIN
    for i in range(config.encoder_depth):
        w = tensors[f"enc{i}.attn.qkv.weight"].data
        for h in range(config.num_heads):
            w[:, h * hd : (h + 1) * hd] += q_block.astype(dtype)
            w[:, d + h * hd : d + (h + 1) * hd] += k_block.astype(dtype)
        w[:, 2 * d :] += np.eye(d, dtype=dtype)
        tensors[f"enc{i}.attn.proj.weight"].data += np.eye(d, dtype=dtype) * _MIX_GAIN

    embed = tensors["patch_embed.weight"].data
    tensors["head.weight"].data[:] = (_HEAD_TIE_GAIN * embed.T).astype(dtype)


def init(config: ModelConfig, seed: int, dtype=np.float32) -> Params:
    """Deterministic initialization: truncated normal weights (std 0.02),
    zero biases, unit layer-norm gains, plus the structured copy-circuit
    wiring of ``_grid_circuit_init``."""
    rng = rng_for("model-init", seed)
    d = config.embed_dim
    hidden = config.mlp_ratio * d
    tensors: dict[str, T.Tensor] = {}
    groups: dict[str, str] = {}

    def param(name: str, group: str, array: np.ndarray) -> None:
        tensors[name] = T.Tensor(np.ascontiguousarray(array, dtype=dtype), requires_grad=True)
        groups[name] = group

    def weight(name: str, group: str, shape) -> None:
        param(name, group, _trunc_normal(rng, shape, 0.02, dtype))

    def zeros(name: str, group: str, shape) -> None:
        param(name, group, np.zeros(shape, dtype=dtype))

    def ones(name: str, group: str, shape) -> None:
        param(name, group, np.ones(shape, dtype=dtype))

    weight("patch_embed.weight", ENCODER, (config.patch_dim, d))
    zeros("patch_embed.bias", ENCODER, (d,))
    weight("pos_embed", ENCODER, (config.num_patches, d))
    weight("mask_token", ENCODER, (d,))

    def block(prefix: str, group: str) -> None:
        ones(f"{prefix}.ln1.gain", group, (d,))
        zeros(f"{prefix}.ln1.bias", group, (d,))
        weight(f"{prefix}.attn.qkv.weight", group, (d, 3 * d))
        zeros(f"{prefix}.attn.qkv.bias", group, (3 * d,))
        weight(f"{prefix}.attn.proj.weight", group, (d, d))
        zeros(f"{prefix}.attn.proj.bias", group, (d,))
        ones(f"{prefix}.ln2.gain", group, (d,))
        zeros(f"{prefix}.ln2.bias", group, (d,))
        weight(f"{prefix}.mlp.fc1.weight", group, (d, hidden))
        zeros(f"{prefix}.mlp.fc1.bias", group, (hidden,))
        weight(f"{prefix}.mlp.fc2.weight", group, (hidden, d))
        zeros(f"{prefix}.mlp.fc2.bias", group, (d,))

    for i in range(config.encoder_depth):
        block(f"enc{i}", ENCODER)
    for i in range(config.decoder_depth):
        block(f"dec{i}", DECODER)

    ones("final_norm.gain", DECODER, (d,))
    zeros("final_norm.bias", DECODER, (d,))
    weight("head.weight", DECODER, (d, config.patch_dim))
    zeros("head.bias", DECODER, (config.patch_dim,))

    _grid_circuit_init(config, tensors)
    return Params(config=config, tensors=tensors, groups=groups)


def param_group(params: Params, selector: str) -> dict[str, T.Tensor]:
    if selector == "all":
        return dict(params.tensors)
    if selector == ENCODER:
        return {name: t for name, t in params.tensors.items() if params.groups[name] == ENCODER}
    raise ValueError(f"param_group: selector must be 'encoder' or 'all', got {selector!r}")


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def _attention(h: T.Tensor, p: dict[str, T.Tensor], prefix: str, num_heads: int) -> T.Tensor:
    qkv = T.linear(h, p[f"{prefix}.attn.qkv.weight"], p[f"{prefix}.attn.qkv.bias"])
    return T.linear(T.attention(qkv, num_heads), p[f"{prefix}.attn.proj.weight"], p[f"{prefix}.attn.proj.bias"])


def _mlp(h: T.Tensor, p: dict[str, T.Tensor], prefix: str) -> T.Tensor:
    h = T.gelu(T.linear(h, p[f"{prefix}.mlp.fc1.weight"], p[f"{prefix}.mlp.fc1.bias"]))
    return T.linear(h, p[f"{prefix}.mlp.fc2.weight"], p[f"{prefix}.mlp.fc2.bias"])


def _block(h: T.Tensor, p: dict[str, T.Tensor], prefix: str, num_heads: int) -> T.Tensor:
    normed = T.layernorm(h, p[f"{prefix}.ln1.gain"], p[f"{prefix}.ln1.bias"])
    h = T.add(h, _attention(normed, p, prefix, num_heads))
    normed = T.layernorm(h, p[f"{prefix}.ln2.gain"], p[f"{prefix}.ln2.bias"])
    return T.add(h, _mlp(normed, p, prefix))


def forward(params: Params, canvas: Canvas) -> T.Tensor:
    """Reconstruct the full canvas, [3, 2C, 2C] with values in (0, 1); the
    canvas's empty cell is the masked one."""
    cfg = params.config
    if canvas.cell_size != cfg.cell_size:
        raise ValueError(f"forward: canvas cell size {canvas.cell_size} != model cell size {cfg.cell_size}")
    p = params.tensors
    g, ps, d = cfg.grid, cfg.patch_size, cfg.embed_dim
    n = cfg.num_patches
    dtype = next(iter(p.values())).dtype

    pixels = canvas.pixels()
    if pixels.dtype != dtype:
        pixels = T.constant(pixels.data.astype(dtype))
    x = T.reshape(pixels, (3, g, ps, g, ps))
    x = T.transpose(x, (1, 3, 2, 4, 0))  # row-grid, col-grid, row-pixel, col-pixel, channel
    x = T.reshape(x, (n, cfg.patch_dim))

    h = T.linear(x, p["patch_embed.weight"], p["patch_embed.bias"])

    m = canvas.patch_mask(ps).astype(dtype)
    keep = T.constant(np.repeat((1.0 - m)[:, None], d, axis=1))
    drop = T.constant(np.repeat(m[:, None], d, axis=1))
    token_rows = T.repeat_rows(T.reshape(p["mask_token"], (1, d)), n)
    h = T.add(T.mul(h, keep), T.mul(token_rows, drop))
    h = T.add(h, p["pos_embed"])

    for i in range(cfg.encoder_depth):
        h = _block(h, p, f"enc{i}", cfg.num_heads)
    for i in range(cfg.decoder_depth):
        h = _block(h, p, f"dec{i}", cfg.num_heads)

    h = T.layernorm(h, p["final_norm.gain"], p["final_norm.bias"])
    out = T.linear(h, p["head.weight"], p["head.bias"])
    out = T.sigmoid(out)
    out = T.reshape(out, (g, g, ps, ps, 3))
    out = T.transpose(out, (4, 0, 2, 1, 3))
    return T.reshape(out, (3, 2 * cfg.cell_size, 2 * cfg.cell_size))
