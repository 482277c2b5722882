"""Small patch-transformer encoder-decoder for masked canvas inpainting.

The model reads the canvas as patch rows (``Canvas.patches``) and the
empty cell's row indices (``Canvas.empty_rows``), or for frozen
inference a stack of canvases' rows in one pass. Each row is linearly
projected to an embedding; the empty cell's patches are replaced
by a learned mask token (post-projection, so nothing of the fill value
reaches attention), learned positional embeddings are added, and pre-norm
transformer blocks run encoder then decoder. The last block, the final
norm and a linear head run on the empty cell's patches only, and the head
projects them back to pixel rows, squashed to (0, 1) by a logistic so
outputs are always valid cell images.

A block records three tape nodes (the last one also its row take): the
first layer norm and the query/key/value map as one ``linear``,
``attention`` with its output projection and residual add, and ``mlp``,
the second layer norm through the MLP's residual add. The final norm and
the head are one more ``linear``.

A parameter's group, which decides what test-time tuning may update, is
read from its name by ``group_of``: the decoder blocks, final norm and
output head are "decoder"; the patch embedding, positional embeddings,
mask token and encoder blocks are "encoder". ``Params`` stores no group,
and the checkpoint loader rejects a group byte that disagrees with the
name. ``layout`` lists every tensor's name, shape and fill once: ``init``
builds from it and the checkpoint loader checks a file against it.

The weights are views of one flat buffer, ``Params.flat`` (an arena), in
``layout`` order, so the encoder group is its leading slice. ``init`` and
the checkpoint loader fill a new arena (``Params.empty``), ``clone`` copies
it in one go, and AdamW steps a group's slice in one pass. ``trainable``
gives the group's tensors views of one gradient arena to receive their
gradients in; ``freeze`` drops it. Arenas are anonymous shared mappings
(``T.new_arena``), so ``training.fit``'s AdamW worker, a forked child,
reads the gradients that backward writes.

Weights are plain data: ``init``, ``Params.clone`` and the checkpoint
loader leave every tensor off the autodiff tape, ``trainable`` alone
decides which group a forward pass records gradients for, and ``freeze``
takes every tensor off again once a loop has fitted them. Frozen
inference therefore records no tape at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, field

import numpy as np

from . import tensor as T
from .seeding import rng_for

ENCODER = "encoder"
DECODER = "decoder"
_DECODER_PREFIXES = ("dec", "final_norm.", "head.")
SELECTORS = (ENCODER, "all")  # what ``trainable`` accepts: the encoder group for tuning and check_cycle_loss, "all" for fit

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
        if any(v <= 0 for v in astuple(self)):
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


def group_of(name: str) -> str:
    """The group of the parameter tensor called ``name``."""
    return DECODER if name.startswith(_DECODER_PREFIXES) else ENCODER


@dataclass
class Params:
    """Named parameter tensors of one model config. Their data must tile
    one flat buffer, ``flat``, in order (``T.arena_of``); a tensor that
    does not (another dtype, another buffer, a gap) is rejected by name."""

    config: ModelConfig
    tensors: dict[str, T.Tensor]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = T.arena_of(((name, t.data) for name, t in self.tensors.items()), "Params")

    @classmethod
    def empty(cls, config: ModelConfig, dtype=np.float32) -> "Params":
        """Uninitialised weights of ``layout(config)``, views of one new arena."""
        views = T.new_arena(((name, shape) for name, shape, _ in layout(config)), dtype)
        return cls(config=config, tensors={name: T.Tensor(a) for name, a in views.items()})

    def clone(self) -> "Params":
        out = Params.empty(self.config, self.flat.dtype)
        np.copyto(out.flat, self.flat)
        return out

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.config).encode())
        for name, t in self.tensors.items():
            h.update(name.encode())
            h.update(group_of(name).encode())
            h.update(str(t.shape).encode())
            h.update(t.data.tobytes())
        return h.hexdigest()

    def total_parameters(self) -> int:
        return sum(t.size for t in self.tensors.values())


# Cephes' ndtri, the algorithm and coefficients scipy.special.ndtri
# evaluates, for y in [ndtr(-2), ndtr(2)]: a rational in (y - 1/2)^2 in the
# centre, and in 1 / sqrt(-2 log y) on the tails (where that root lies in
# [2, 2.8]; Cephes' third rational, for roots of 8 and more, is not reached).
# The Q's are monic; their leading 1 is written out.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2): the centre is (exp(-2), 1 - exp(-2)]
# scipy.special.ndtr(-2.0) and ndtr(2.0); glibc's erfc rounds the first one another way
_TRUNC_LO, _TRUNC_HI = 0.022750131948179195, 0.9772498680518208


def _libm_log(x: np.ndarray) -> np.ndarray:
    """libm's log of float64 ``x`` > 0 outside [0.5, 2), where numpy's own
    float64 log can differ from it in the last bit. numpy's complex log
    of a real z there is libm's log(hypot(z, 0)) = log(z), element by
    element in C (about 5x faster than calling ``math.log`` on each)."""
    return np.log(x.astype(np.complex128)).real


def _ndtri(y: np.ndarray) -> np.ndarray:
    """The inverse normal cdf of float64 ``y`` in [ndtr(-2), ndtr(2)], with
    ``scipy.special.ndtri``'s bits, in a new array. The central rational
    runs over every element, and the tail one over the tail elements only."""
    x = y - 0.5
    x2 = x * x
    central = T.polevl(x2, _NDTRI_P0)
    central *= x2
    central /= T.polevl(x2, _NDTRI_Q0)
    central *= x
    x += central
    x *= _SQRT_2PI
    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    t = y.reshape(-1)[tail]
    upper = t > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - t, t)
    root = np.sqrt(-2.0 * _libm_log(t))
    z = 1.0 / root
    v = root - _libm_log(root) / root
    v -= z * T.polevl(z, _NDTRI_P1) / T.polevl(z, _NDTRI_Q1)
    x.reshape(-1)[tail] = np.where(upper, v, -v)
    return x


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    u = rng.uniform(_TRUNC_LO, _TRUNC_HI, size=shape)
    return (_ndtri(u) * std).astype(dtype)


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


def layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Every parameter tensor of ``config`` as (name, shape, fill), in
    ``init``'s order. ``fill`` is "normal" (truncated normal, std 0.02),
    "zeros" or "ones"."""
    d = config.embed_dim
    hidden = config.mlp_ratio * d
    entries = [
        ("patch_embed.weight", (config.patch_dim, d), "normal"),
        ("patch_embed.bias", (d,), "zeros"),
        ("pos_embed", (config.num_patches, d), "normal"),
        ("mask_token", (d,), "normal"),
    ]
    blocks = [f"enc{i}" for i in range(config.encoder_depth)] + [f"dec{i}" for i in range(config.decoder_depth)]
    for prefix in blocks:
        entries += [
            (f"{prefix}.ln1.gain", (d,), "ones"),
            (f"{prefix}.ln1.bias", (d,), "zeros"),
            (f"{prefix}.attn.qkv.weight", (d, 3 * d), "normal"),
            (f"{prefix}.attn.qkv.bias", (3 * d,), "zeros"),
            (f"{prefix}.attn.proj.weight", (d, d), "normal"),
            (f"{prefix}.attn.proj.bias", (d,), "zeros"),
            (f"{prefix}.ln2.gain", (d,), "ones"),
            (f"{prefix}.ln2.bias", (d,), "zeros"),
            (f"{prefix}.mlp.fc1.weight", (d, hidden), "normal"),
            (f"{prefix}.mlp.fc1.bias", (hidden,), "zeros"),
            (f"{prefix}.mlp.fc2.weight", (hidden, d), "normal"),
            (f"{prefix}.mlp.fc2.bias", (d,), "zeros"),
        ]
    entries += [
        ("final_norm.gain", (d,), "ones"),
        ("final_norm.bias", (d,), "zeros"),
        ("head.weight", (d, config.patch_dim), "normal"),
        ("head.bias", (config.patch_dim,), "zeros"),
    ]
    return entries


def init(config: ModelConfig, seed: int, dtype=np.float32) -> Params:
    """Deterministic initialization of ``layout(config)``: truncated normal
    weights (std 0.02), zero biases, unit layer-norm gains, plus the
    structured copy-circuit wiring of ``_grid_circuit_init``."""
    rng = rng_for("model-init", seed)
    params = Params.empty(config, dtype)
    for name, shape, fill in layout(config):
        data = params.tensors[name].data
        if fill == "normal":
            data[...] = _trunc_normal(rng, shape, 0.02, dtype)
        else:
            data.fill(0.0 if fill == "zeros" else 1.0)
    _grid_circuit_init(config, params.tensors)
    return params


def trainable(params: Params, selector: str) -> dict[str, T.Tensor]:
    """Put the selected group on the tape and take every other tensor off.

    ``selector`` is one of ``SELECTORS``: "encoder" or "all". Returns the
    group, in ``params.tensors`` order; only its tensors get gradients from
    backward, each into its view of one new gradient arena.
    """
    if selector not in SELECTORS:
        raise ValueError(f"trainable: selector must be one of {SELECTORS}, got {selector!r}")
    for name, t in params.tensors.items():
        t.requires_grad = selector == "all" or group_of(name) == ENCODER
        t.grad_buffer = None
    group = {name: t for name, t in params.tensors.items() if t.requires_grad}
    buffers = T.new_arena(((name, t.shape) for name, t in group.items()), params.flat.dtype)
    for name, t in group.items():
        t.grad_buffer = buffers[name]
    return group


def freeze(params: Params) -> None:
    """Take every tensor off the tape and drop its gradient and gradient
    buffer, the counterpart of ``trainable``: the weights are plain data
    again, and the gradient arena is freed once nothing else holds it."""
    for t in params.tensors.values():
        t.requires_grad = False
        t.grad = t.grad_buffer = None


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def _stack_rows(rows: np.ndarray, canvases: int, n: int) -> np.ndarray:
    """``rows`` of each of ``canvases`` canvases of ``n`` rows, as indices
    into their rows one after another (``rows`` itself for one canvas)."""
    return rows if canvases == 1 else (rows + n * np.arange(canvases)[:, None]).reshape(-1)


def _block(
    h: T.Tensor, p: dict[str, T.Tensor], prefix: str, num_heads: int, rows: np.ndarray | None = None, canvases: int = 1
) -> T.Tensor:
    """One pre-norm block over all of ``h``'s rows, or with ``rows`` the
    outputs of those rows only: every row still gives keys and values.
    ``h`` holds ``canvases`` canvases' rows one after another, ``rows``
    index each canvas's rows, and a row attends within its canvas only."""
    norm = (p[f"{prefix}.ln1.gain"], p[f"{prefix}.ln1.bias"])
    qkv = T.linear(h, p[f"{prefix}.attn.qkv.weight"], p[f"{prefix}.attn.qkv.bias"], norm)
    residual = h if rows is None else T.take_rows(h, _stack_rows(rows, canvases, len(h.data) // canvases))
    proj = (p[f"{prefix}.attn.proj.weight"], p[f"{prefix}.attn.proj.bias"])
    stack = {"canvases": canvases} if canvases > 1 else {}  # one canvas keeps attention's six-argument call
    h = T.attention(qkv, num_heads, rows, *proj, residual, **stack)
    names = ("ln2.gain", "ln2.bias", "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight", "mlp.fc2.bias")
    return T.mlp(h, *(p[f"{prefix}.{name}"] for name in names))


def forward(params: Params, patches, empty: np.ndarray) -> T.Tensor:
    """Predict the empty (masked) cell of a canvas: its (C/P)^2 patch rows,
    [(C/P)^2, 3P^2] with values in (0, 1), which ``canvas.extract_cell``
    turns into the [3, C, C] cell.

    ``patches`` holds the canvas's [(2C/P)^2, 3P^2] patch rows: an array
    (``Canvas.patches``), or in tuning's second pass a tensor with the
    first pass's prediction put into them. ``empty`` lists the empty
    cell's rows (``Canvas.empty_rows``). Every block but the last runs on
    all rows. The last one computes keys and values for all of them but
    its outputs, and so the final norm, head and sigmoid, only for the
    empty cell's rows: no other row reaches the prediction.

    An array of S canvases' rows, [S, (2C/P)^2, 3P^2], with ``empty`` in
    each, gives [S, (C/P)^2, 3P^2], each canvas's bits as alone: every node
    runs on all S canvases' rows, and attention splits them per canvas. A
    stack's positional rows are a constant, so it may not go on the tape.
    """
    cfg, p = params.config, params.tensors
    n, width = cfg.num_patches, cfg.patch_dim
    x = T.as_tensor(patches)
    stack = x.data.ndim == 3
    s = len(x.data) if stack else 1
    expected = [s, n, width] if stack else [n, width]
    if list(x.shape) != expected:
        raise ValueError(f"forward: expected {expected} patch rows (cell size {cfg.cell_size})")
    pos = p["pos_embed"]
    if stack:
        if x.requires_grad or any(t.requires_grad for t in p.values()):
            raise ValueError(f"forward: a stack of {s} canvases cannot go on the tape: pos_embed would get no gradient")
        x, pos = T.constant(x.data.reshape(-1, width)), T.constant(np.tile(pos.data, (s, 1)))

    h = T.linear(x, p["patch_embed.weight"], p["patch_embed.bias"])
    h = T.put_rows(h, _stack_rows(empty, s, n), p["mask_token"])
    h = T.add(h, pos)

    blocks = [f"enc{i}" for i in range(cfg.encoder_depth)] + [f"dec{i}" for i in range(cfg.decoder_depth)]
    for prefix in blocks[:-1]:
        h = _block(h, p, prefix, cfg.num_heads, None, s)
    h = _block(h, p, blocks[-1], cfg.num_heads, empty, s)

    out = T.sigmoid(T.linear(h, p["head.weight"], p["head.bias"], (p["final_norm.gain"], p["final_norm.bias"])))
    return T.constant(out.data.reshape(s, -1, width)) if stack else out
