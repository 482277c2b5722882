"""Fifteen procedural image corruptions at five severity levels.

Four categories: noise (gaussian, shot, impulse), blur (defocus, glass,
motion, zoom), weather (fog, frost, snow), and digital (brightness,
contrast, elastic transform, jpeg compression, pixelate). Severity
parameters come from the one versioned table shipped with the package
(``default_severity_table``) and are chosen so the mean squared
distortion grows with severity; nothing here depends on external assets.
``apply`` is a pure function of (image, kind, severity, seed) thanks to
counter-based random streams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .canvas import check_image
from .seeding import rng_for

TABLE_VERSION = 1
SEVERITIES = (1, 2, 3, 4, 5)


class CorruptionKind(Enum):
    GAUSSIAN_NOISE = "gaussian_noise"
    SHOT_NOISE = "shot_noise"
    IMPULSE_NOISE = "impulse_noise"
    DEFOCUS_BLUR = "defocus_blur"
    GLASS_BLUR = "glass_blur"
    MOTION_BLUR = "motion_blur"
    ZOOM_BLUR = "zoom_blur"
    FOG = "fog"
    FROST = "frost"
    SNOW = "snow"
    BRIGHTNESS = "brightness"
    CONTRAST = "contrast"
    ELASTIC_TRANSFORM = "elastic_transform"
    JPEG_COMPRESSION = "jpeg_compression"
    PIXELATE = "pixelate"


ALL_KINDS = tuple(CorruptionKind)

CATEGORIES: dict[str, tuple[CorruptionKind, ...]] = {
    "noise": (CorruptionKind.GAUSSIAN_NOISE, CorruptionKind.SHOT_NOISE, CorruptionKind.IMPULSE_NOISE),
    "blur": (CorruptionKind.DEFOCUS_BLUR, CorruptionKind.GLASS_BLUR, CorruptionKind.MOTION_BLUR, CorruptionKind.ZOOM_BLUR),
    "weather": (CorruptionKind.FOG, CorruptionKind.FROST, CorruptionKind.SNOW),
    "digital": (
        CorruptionKind.BRIGHTNESS,
        CorruptionKind.CONTRAST,
        CorruptionKind.ELASTIC_TRANSFORM,
        CorruptionKind.JPEG_COMPRESSION,
        CorruptionKind.PIXELATE,
    ),
}


@dataclass(frozen=True)
class CorruptionSpec:
    kind: CorruptionKind
    severity: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.kind, CorruptionKind):
            raise ValueError(f"CorruptionSpec: unknown kind {self.kind!r}")
        check_severity("CorruptionSpec", self.severity)


def check_severity(owner: str, severity: int) -> None:
    if severity not in SEVERITIES:
        raise ValueError(f"{owner}: severity must be in {SEVERITIES[0]}..{SEVERITIES[-1]}, got {severity}")


SeverityTable = dict[CorruptionKind, tuple[tuple[float, ...], ...]]


# ---------------------------------------------------------------------------
# the shipped severity table
# ---------------------------------------------------------------------------


def _parse_table(text: str) -> SeverityTable:
    rows: dict[CorruptionKind, dict[int, tuple[float, ...]]] = {k: {} for k in ALL_KINDS}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key == "table_version":
            if int(value) != TABLE_VERSION:
                raise ValueError(f"severity table version {value.strip()} != supported {TABLE_VERSION}")
            continue
        name, _, sev = key.partition(".")
        kind = CorruptionKind(name)
        rows[kind][int(sev)] = tuple(float(v) for v in value.split(","))
    table: SeverityTable = {}
    for kind, entries in rows.items():
        if tuple(sorted(entries)) != SEVERITIES:
            raise ValueError(f"severity table: incomplete rows for {kind.value}")
        table[kind] = tuple(entries[s] for s in SEVERITIES)
    return table


_DEFAULT_TABLE: SeverityTable | None = None


def default_severity_table() -> SeverityTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        text = resources.files("vict").joinpath("data/severity_table.cfg").read_text(encoding="ascii")
        _DEFAULT_TABLE = _parse_table(text)
    return _DEFAULT_TABLE


def severity_params(kind: CorruptionKind, severity: int) -> tuple[float, ...]:
    if not isinstance(kind, CorruptionKind):
        raise ValueError(f"severity_params: unknown kind {kind!r}")
    check_severity("severity_params", severity)
    return default_severity_table()[kind][SEVERITIES.index(severity)]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _disk_kernel(radius: float) -> np.ndarray:
    half = int(np.ceil(radius))
    ys, xs = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    kernel = np.clip(radius - np.sqrt(xs * xs + ys * ys) + 0.5, 0.0, 1.0)
    return kernel / kernel.sum()


def line_kernel(length: float, angle: float) -> np.ndarray:
    """Normalized straight-streak kernel: a centred line of ``length``
    pixels at ``angle`` radians, splatted bilinearly.

    The four corner weights of every sample are accumulated with one
    ``np.add.at`` in (sample, corner) order, the order of a scalar splat
    loop, so the sums carry the same bits."""
    size = int(np.ceil(length)) | 1
    kernel = np.zeros((size, size))
    center = size // 2
    s = np.linspace(-length / 2, length / 2, max(int(4 * length), 8))
    px, py = center + s * np.cos(angle), center + s * np.sin(angle)
    i0, j0 = np.floor(py), np.floor(px)
    fi, fj = py - i0, px - j0
    rows = np.stack([i0, i0, i0 + 1, i0 + 1], axis=1).astype(np.int64).ravel()
    cols = np.stack([j0, j0 + 1, j0, j0 + 1], axis=1).astype(np.int64).ravel()
    weights = np.stack([(1 - fi) * (1 - fj), (1 - fi) * fj, fi * (1 - fj), fi * fj], axis=1).ravel()
    inside = (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size)
    np.add.at(kernel, (rows[inside], cols[inside]), weights[inside])
    return kernel / kernel.sum()


_DBL_EPSILON = float(np.finfo(np.float64).eps)


@functools.lru_cache(maxsize=None)
def _reflect_index(n: int, radius: int) -> np.ndarray:
    """Indices that pad an axis of length ``n`` by ``radius`` on each side
    in scipy.ndimage's "reflect" mode, (d c b a | a b c d | d c b a),
    repeating the pattern when ``radius`` exceeds ``n``."""
    i = np.arange(-radius, n + radius) % (2 * n)
    index = np.where(i < n, i, 2 * n - 1 - i)
    index.setflags(write=False)  # shared by every caller
    return index


def convolve(image: np.ndarray, kernel: np.ndarray, mode: str) -> np.ndarray:
    """``scipy.ndimage.convolve`` of float64 ``image``'s last two axes with
    an odd-sized ``kernel``, with its bits; ``mode`` is "reflect" or
    "constant" (zero fill). Every pixel starts from 0.0 and adds its
    shifted neighbours times the weights in the order ndimage sums them:
    the flipped kernel's raveled order, skipping weights with
    |w| <= DBL_EPSILON."""
    kh, kw = kernel.shape
    h, w = image.shape[-2:]
    if mode == "reflect":
        padded = image.take(_reflect_index(h, kh // 2), axis=-2).take(_reflect_index(w, kw // 2), axis=-1)
    else:
        padded = np.zeros(image.shape[:-2] + (h + kh - 1, w + kw - 1))
        padded[..., kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = image
    out = np.zeros(image.shape)
    term = np.empty(image.shape)
    flipped = kernel[::-1, ::-1]
    for i, j in zip(*(a.tolist() for a in np.nonzero(np.abs(flipped) > _DBL_EPSILON))):
        np.multiply(padded[..., i : i + h, j : j + w], flipped[i, j], out=term)
        out += term
    return out


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter`` of float64 ``image``'s last two
    axes (sigma 0 on any others) in "reflect" mode, with its bits: per
    axis, rows first, a kernel of radius int(4 sigma + 0.5) summed as
    ndimage sums a symmetric one, the centre times its weight plus each
    pair of neighbours times theirs, from the outermost pair inward.
    Each pass blurs axis -2, whose shifts are contiguous, and swaps the
    last two axes."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    phi = (phi / phi.sum()).tolist()
    out = image
    for _ in range(2):
        n = out.shape[-2]
        padded = out.take(_reflect_index(n, radius), axis=-2)
        out = padded[..., radius : radius + n, :] * phi[radius]
        pair = np.empty_like(out)
        for d in range(radius, 0, -1):
            np.add(padded[..., radius - d : radius - d + n, :], padded[..., radius + d : radius + d + n, :], out=pair)
            pair *= phi[radius - d]
            out += pair
        out = out.swapaxes(-1, -2)
    return out


@functools.lru_cache(maxsize=None)
def _diamond_square_tables(size: int) -> tuple:
    """Flat index tables of diamond-square on a size x size field, one
    entry per level: the diamond centres and their four corners, then the
    edge midpoints, their four neighbours in (-h, 0), (h, 0), (0, -h),
    (0, h) order and their in-bounds count. Points are in row-major order,
    the order they draw their random offsets in. A missing neighbour reads
    index size * size, a cell that stays 0.0."""
    zero = size * size
    levels = []
    step = size - 1
    while step > 1:
        half = step // 2
        i, j = (a.ravel() for a in np.meshgrid(np.arange(half, size, step), np.arange(half, size, step), indexing="ij"))
        centres = i * size + j
        corners = tuple((i + di) * size + (j + dj) for di, dj in ((-half, -half), (-half, half), (half, -half), (half, half)))
        i, j = np.array(
            [(r, q) for r in range(0, size, half) for q in range(half if (r // half) % 2 == 0 else 0, size, step)]
        ).T
        mids = i * size + j
        neighbours, count = [], np.zeros(mids.size)
        for di, dj in ((-half, 0), (half, 0), (0, -half), (0, half)):
            ii, jj = i + di, j + dj
            inside = (ii >= 0) & (ii < size) & (jj >= 0) & (jj < size)
            neighbours.append(np.where(inside, ii * size + jj, zero))
            count += inside
        levels.append((centres, corners, mids, tuple(neighbours), count))
        step = half
    return tuple(levels)


def _plasma(n: int, rng: np.random.Generator, roughness: float) -> np.ndarray:
    """Diamond-square fractal field on an n x n crop, normalized to [0, 1].

    This is the scalar diamond-square loop evaluated as arrays, with the
    same bits: within a pass no point reads another point of that pass,
    each pass takes its offsets with one ``rng.random(count)`` (the same
    stream as ``count`` scalar draws, in the loop's row-major order), and
    every point sums its neighbours in the loop's order."""
    k = 1
    while (1 << k) + 1 < n:
        k += 1
    size = (1 << k) + 1
    field = np.zeros(size * size + 1)
    field[[0, size - 1, size * (size - 1), size * size - 1]] = rng.random((2, 2)).ravel()
    amplitude = 1.0
    for centres, (a, b, c, d), mids, (n0, n1, n2, n3), count in _diamond_square_tables(size):
        field[centres] = (field[a] + field[b] + field[c] + field[d]) / 4.0 + amplitude * (rng.random(centres.size) - 0.5)
        total = field[n0] + field[n1] + field[n2] + field[n3]
        field[mids] = total / count + amplitude * (rng.random(mids.size) - 0.5)
        amplitude *= roughness
    crop = field[: size * size].reshape(size, size)[:n, :n]
    lo, hi = crop.min(), crop.max()
    return (crop - lo) / max(hi - lo, 1e-9)


def _bilinear_sample(image: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample [3, H, W] at float coordinates with edge clamping."""
    h, w = image.shape[1], image.shape[2]
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    out = (
        image[:, y0, x0] * ((1 - fy) * (1 - fx))[None]
        + image[:, y0, x1] * ((1 - fy) * fx)[None]
        + image[:, y1, x0] * (fy * (1 - fx))[None]
        + image[:, y1, x1] * (fy * fx)[None]
    )
    return out


def _resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = image.shape[1], image.shape[2]
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    grid_y = np.repeat(ys[:, None], out_w, axis=1)
    grid_x = np.repeat(xs[None, :], out_h, axis=0)
    return _bilinear_sample(image, grid_y, grid_x)


# ---------------------------------------------------------------------------
# per-kind definitions
# ---------------------------------------------------------------------------


def _gaussian_noise(img, rng, params):
    (sigma,) = params
    return img + rng.normal(0.0, sigma, size=img.shape)


def _shot_noise(img, rng, params):
    (counts,) = params
    return rng.poisson(np.clip(img, 0.0, 1.0) * counts).astype(np.float64) / counts


def _impulse_noise(img, rng, params):
    (p,) = params
    hit = rng.random(img.shape[1:]) < p
    salt = (rng.random(img.shape[1:]) < 0.5).astype(np.float64)
    out = img.copy()
    out[:, hit] = salt[hit][None]
    return out


def _defocus_blur(img, rng, params):
    (radius,) = params
    return convolve(img, _disk_kernel(radius), "reflect")


def _glass_blur(img, rng, params):
    """Blur, then c * c * iters local pixel swaps, then blur again.

    This is the scalar swap loop evaluated as arrays, with the same bits:
    the swaps run on a flat list of pixel indices, and the image is
    gathered once through the resulting permutation."""
    shift, iters, sigma = int(params[0]), int(params[1]), params[2]
    out = _gaussian_blur(img, sigma)
    c = out.shape[1]
    rows, cols = np.mgrid[0:c, 0:c]
    perm = list(range(c * c))
    for _ in range(iters):
        dy = rng.integers(-shift, shift + 1, size=(c, c))
        dx = rng.integers(-shift, shift + 1, size=(c, c))
        partners = (np.clip(rows + dy, 0, c - 1) * c + np.clip(cols + dx, 0, c - 1)).ravel().tolist()
        for k, p in enumerate(partners):
            perm[k], perm[p] = perm[p], perm[k]
    out = out.reshape(3, c * c)[:, perm].reshape(3, c, c)
    return _gaussian_blur(out, sigma)


def _motion_blur(img, rng, params):
    (length,) = params
    angle = rng.uniform(0.0, np.pi)
    return convolve(img, line_kernel(length, angle), "reflect")


def _zoom_blur(img, rng, params):
    zmax, step = params
    c = img.shape[1]
    layers = [img]
    factor = 1.0 + step
    while factor <= zmax + 1e-9:
        crop = max(int(round(c / factor)), 2)
        lo = (c - crop) // 2
        layers.append(_resize_bilinear(img[:, lo : lo + crop, lo : lo + crop], c, c))
        factor += step
    return np.mean(layers, axis=0)


def _fog(img, rng, params):
    t, roughness = params
    field = _plasma(img.shape[1], rng, roughness)
    weight = t * field[None]
    return img * (1.0 - weight) + weight


def _frost(img, rng, params):
    opacity, coverage = params
    field = _plasma(img.shape[1], rng, 0.85)  # slow decay keeps high-frequency energy
    threshold = np.quantile(field, 1.0 - coverage)
    crystals = np.clip((field - threshold) / max(1.0 - threshold, 1e-9), 0.0, 1.0)
    weight = opacity * crystals[None]
    return img * (1.0 - weight) + weight * 0.95


def _snow(img, rng, params):
    density, length, lift = params
    points = (rng.random(img.shape[1:]) < density).astype(np.float64)
    angle = np.pi / 2 + rng.uniform(-0.35, 0.35)
    flakes = convolve(points, line_kernel(length, angle), "constant")
    peak = flakes.max()
    if peak > 0:
        flakes = flakes / peak
    return img + 0.8 * flakes[None] + lift


def _brightness(img, rng, params):
    (b,) = params
    return img + b


def _contrast(img, rng, params):
    (c,) = params
    mean = img.mean()
    return (img - mean) * c + mean


def _elastic_transform(img, rng, params):
    alpha, sigma = params
    c = img.shape[1]
    dy, dx = _gaussian_blur(rng.uniform(-1.0, 1.0, size=(2, c, c)), sigma)
    dy = dy / max(np.abs(dy).max(), 1e-9) * alpha
    dx = dx / max(np.abs(dx).max(), 1e-9) * alpha
    ys, xs = np.mgrid[0:c, 0:c].astype(np.float64)
    return _bilinear_sample(img, ys + dy, xs + dx)


# standard quantization matrices (luminance, chrominance)
_JPEG_Q_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)
_JPEG_Q_CHROMA = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)


def _quality_scaled(table: np.ndarray, quality: float) -> np.ndarray:
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    return np.clip(np.floor((table * scale + 50.0) / 100.0), 1.0, None)


# The orthonormal 8-point DCT-II and DCT-III as scipy.fft (pocketfft)
# computes them, FFTPACK's algorithm: a pre-step, a real FFT of length 8
# (numpy.fft runs the same pocketfft code) and a post-step, with
# twiddles cos(2 pi k / 32), k = 1..7, as pocketfft rounds them: its
# cos(pi / 4) and cos(7 pi / 16) are one ulp below the correctly rounded
# values. Scaling by a power of two commutes with every rounding, so the
# transforms below leave out such factors and ``_dctn``/``_idctn`` apply
# them once at the end. They run along axis 0, whose slices are
# contiguous rows.
_TWIDDLE = np.array([float.fromhex(t) for t in (
    "0x1.f6297cff75cb0p-1", "0x1.d906bcf328d46p-1", "0x1.a9b66290ea1a3p-1", "0x1.6a09e667f3bccp-1",
    "0x1.1c73b39ae68c8p-1", "0x1.87de2a6aea963p-2", "0x1.8f8b83c69a60ap-3",
)])
_TW_K, _TW_KC = _TWIDDLE[0:3, None], _TWIDDLE[6:3:-1, None]  # per pair (k, 8 - k), k = 1..3
_SQRT2 = 1.4142135623730951


def _dct2(x: np.ndarray) -> np.ndarray:
    """8 times the orthonormal DCT-II of the columns of ``x``, [8, M]."""
    spec = np.zeros((5, x.shape[1]), np.complex128)  # the FFT's half-complex input
    re, im = spec.real, spec.imag
    np.multiply(x[0], 2.0, out=re[0])
    np.multiply(x[7], 2.0, out=re[4])
    np.add(x[2:8:2], x[1:7:2], out=re[1:4])
    np.subtract(x[2:8:2], x[1:7:2], out=im[1:4])
    c = np.fft.irfft(spec, n=8, axis=0, norm="forward")
    lo, hi = c[1:4], c[7:4:-1]
    t1 = _TW_K * hi + _TW_KC * lo
    t2 = _TW_K * lo - _TW_KC * hi
    out = np.empty(x.shape)
    np.multiply(c[0], _SQRT2, out=out[0])
    np.add(t1, t2, out=out[1:4])
    np.multiply(c[4], 2.0 * _TWIDDLE[3], out=out[4])
    np.subtract(t1, t2, out=out[7:4:-1])
    return out


def _dct3(x: np.ndarray) -> np.ndarray:
    """4 times the orthonormal DCT-III, the DCT-II's inverse, of the
    columns of ``x``, [8, M]."""
    lo, hi = x[1:4], x[7:4:-1]
    t1, t2 = lo + hi, lo - hi
    c = np.empty(x.shape)
    np.multiply(x[0], _SQRT2, out=c[0])
    np.add(_TW_K * t2, _TW_KC * t1, out=c[1:4])
    np.multiply(x[4], 2.0 * _TWIDDLE[3], out=c[4])
    np.subtract(_TW_K * t1, _TW_KC * t2, out=c[7:4:-1])
    spec = np.fft.rfft(c, axis=0)
    re, im = spec.real, spec.imag
    out = np.empty(x.shape)
    out[0] = re[0]
    np.subtract(re[1:4], im[1:4], out=out[1:7:2])
    np.add(re[1:4], im[1:4], out=out[2:8:2])
    out[7] = re[4]
    return out


def _blockwise(transform, blocks: np.ndarray, scale: float) -> np.ndarray:
    """``transform`` of [8, 8, ...] ``blocks`` along axis 0, then axis 1,
    times ``scale``."""
    shape = blocks.shape
    out = transform(blocks.reshape(8, -1)).reshape(shape)
    out = transform(out.swapaxes(0, 1).reshape(8, -1))
    out *= scale
    return out.reshape(shape).swapaxes(0, 1)


def _dctn(blocks: np.ndarray) -> np.ndarray:
    """``scipy.fft.dctn(blocks, axes=(0, 1), norm="ortho")`` of [8, 8, ...]
    ``blocks``, with its bits."""
    return _blockwise(_dct2, blocks, 1.0 / 64.0)


def _idctn(blocks: np.ndarray) -> np.ndarray:
    """``scipy.fft.idctn(blocks, axes=(0, 1), norm="ortho")`` of [8, 8, ...]
    ``blocks``, with its bits."""
    return _blockwise(_dct3, blocks, 1.0 / 16.0)


def _jpeg_compression(img, rng, params):
    (quality,) = params
    c = img.shape[1]
    if c % 8 != 0:
        raise ValueError(f"jpeg_compression: image side {c} must be a multiple of 8")
    r, g, b = img[0] * 255.0, img[1] * 255.0, img[2] * 255.0
    ycc = np.stack([
        0.299 * r + 0.587 * g + 0.114 * b - 128.0,
        -0.168736 * r - 0.331264 * g + 0.5 * b,
        0.5 * r - 0.418688 * g - 0.081312 * b,
    ])
    # the 8x8 blocks of Y, Cb and Cr, as [row, column, channel, block row, block column]
    blocks = ycc.reshape(3, c // 8, 8, c // 8, 8).transpose(2, 4, 0, 1, 3)
    q = _quality_scaled(np.stack([_JPEG_Q_LUMA, _JPEG_Q_CHROMA, _JPEG_Q_CHROMA]), quality)
    q = q.transpose(1, 2, 0)[..., None, None]
    coeffs = np.round(_dctn(blocks) / q) * q
    y, cb, cr = _idctn(coeffs).transpose(2, 3, 0, 4, 1).reshape(3, c, c)
    y = y + 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.stack([r, g, b]) / 255.0


def _pixelate(img, rng, params):
    (factor,) = params
    f = int(factor)
    c = img.shape[1]
    m = (c + f - 1) // f
    idx = np.minimum(np.arange(m) * f + f // 2, c - 1)
    small = img[:, idx[:, None], idx[None, :]]
    up = np.repeat(np.repeat(small, f, axis=1), f, axis=2)
    return up[:, :c, :c]


_IMPLEMENTATIONS = {
    CorruptionKind.GAUSSIAN_NOISE: _gaussian_noise,
    CorruptionKind.SHOT_NOISE: _shot_noise,
    CorruptionKind.IMPULSE_NOISE: _impulse_noise,
    CorruptionKind.DEFOCUS_BLUR: _defocus_blur,
    CorruptionKind.GLASS_BLUR: _glass_blur,
    CorruptionKind.MOTION_BLUR: _motion_blur,
    CorruptionKind.ZOOM_BLUR: _zoom_blur,
    CorruptionKind.FOG: _fog,
    CorruptionKind.FROST: _frost,
    CorruptionKind.SNOW: _snow,
    CorruptionKind.BRIGHTNESS: _brightness,
    CorruptionKind.CONTRAST: _contrast,
    CorruptionKind.ELASTIC_TRANSFORM: _elastic_transform,
    CorruptionKind.JPEG_COMPRESSION: _jpeg_compression,
    CorruptionKind.PIXELATE: _pixelate,
}


def apply(image: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Corrupt a [3, C, C] image in [0, 1]; output is clipped back to [0, 1]."""
    arr = np.asarray(image)
    check_image("apply", arr)
    params = severity_params(spec.kind, spec.severity)
    rng = rng_for("corrupt", spec.kind.value, spec.severity, spec.seed)
    out = _IMPLEMENTATIONS[spec.kind](arr.astype(np.float64), rng, params)
    # checked before the clip, which would hide an infinity; a bug in the
    # corruption, never a numerical divergence
    if not np.isfinite(out).all():
        raise RuntimeError(f"apply: non-finite output for {spec.kind.value} at severity {spec.severity}")
    out = np.clip(out, 0.0, 1.0)
    return out.astype(arr.dtype if np.issubdtype(arr.dtype, np.floating) else np.float32)

