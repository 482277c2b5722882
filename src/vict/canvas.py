"""2x2 grid canvases for image-to-image in-context inpainting, as patch rows.

A canvas holds four equally sized image cells: prompt input (top left),
prompt output (top right), query input (bottom left), query output
(bottom right): cells 0 to 3, in row-major order. Exactly one
cell is empty at assembly time; its patches and only its patches are
masked for the model. ``assemble_inference`` leaves the bottom-right
(query output) empty; ``assemble_flipped`` swaps the roles of prompt and
query, leaving the top-right empty and placing the predicted query output
at the bottom right.

The model reads and writes patch rows, never canvas pixels, so a canvas
is never made as an image. Both assemblers return the canvas as one numpy
matrix of P x P patches, each flattened (row, column, channel), in
row-major order over the (2C/P)^2 patch grid, and the empty cell's row
indices; each present cell's ``patchify`` rows are written straight into
their place. This module is plain numpy and knows no tape: the one cell
that enters the model on the tape, the prediction in tuning's flipped
canvas, is put into the flipped canvas's rows by ``tuning.cycle_loss``
(one ``put_rows`` node). The model returns only the empty cell's
(C/P)^2 rows; the losses score them against ``patchify`` of the true
cell, and ``extract_cell`` turns them back into a [3, C, C] image only
where an image leaves the system.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

EMPTY_FILL = 0.5


def check_image(name: str, image: np.ndarray, cell_size: int | None = None) -> int:
    """C of ``image``, which must be [3, C, C] with C > 0 (and C =
    ``cell_size`` if given), hold no NaN and lie in [0, 1], so no infinity
    either. Any other array raises ``ValueError`` naming ``name``."""
    if image.ndim != 3 or image.shape[0] != 3 or image.shape[1] != image.shape[2]:
        raise ValueError(f"{name}: expected image of shape [3, C, C], got {image.shape}")
    c = image.shape[1]
    if c == 0:
        raise ValueError(f"{name}: empty image of shape {image.shape}")
    if cell_size is not None and c != cell_size:
        raise ValueError(f"{name}: cell size {c} does not match {cell_size}")
    lo, hi = float(image.min()), float(image.max())
    if math.isnan(lo):  # min and max propagate NaN
        raise ValueError(f"{name}: NaN pixel values")
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"{name}: pixel values outside [0, 1] (min {lo:.4g}, max {hi:.4g})")
    return c


def cell_rows(cell: int, half: int) -> np.ndarray:
    """Rows of cell ``cell``'s (0-3, row-major) half x half patches in the
    (2 half)^2 patch grid, in row-major order within the cell."""
    row, col = divmod(cell, 2)
    grid_rows = np.arange(row * half, (row + 1) * half)[:, None]
    grid_cols = np.arange(col * half, (col + 1) * half)[None, :]
    return (grid_rows * 2 * half + grid_cols).reshape(-1)


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """The [(C/P)^2, 3P^2] patch rows of a [3, C, C] image; ``extract_cell``
    is the inverse."""
    k = image.shape[1] // patch_size
    x = image.reshape(3, k, patch_size, k, patch_size)
    x = x.transpose(1, 3, 2, 4, 0)  # row-grid, col-grid, row-pixel, col-pixel, channel
    return x.reshape(k * k, 3 * patch_size * patch_size)


def _assemble(owner: str, cells: tuple, patch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Patch rows of the canvas of ``cells``, four named images of one even
    cell size in row-major order, and the rows of the one that is ``None``,
    which are filled with ``EMPTY_FILL``."""
    images, c = {}, None
    for i, cell in enumerate(cells):
        if cell is not None:
            name, image = cell
            images[i] = np.asarray(image)
            c = check_image(f"{owner}({name})", images[i], c)
            if c % 2 != 0:
                raise ValueError(f"{owner}({name}): cell size must be even, got {c}")
    if c % patch_size != 0:
        raise ValueError(f"{owner}: cell size {c} not a multiple of patch size {patch_size}")
    half = c // patch_size
    rows = np.full((4 * half * half, 3 * patch_size * patch_size), EMPTY_FILL, dtype=next(iter(images.values())).dtype)
    by_cell = rows.reshape(2, half, 2, half, -1)  # cell row, patch row, cell column, patch column
    for i, image in images.items():
        by_cell[i // 2, :, i % 2] = patchify(image, patch_size).reshape(half, half, -1)
    return rows, cell_rows(cells.index(None), half)


def assemble_inference(x, y, x_t, patch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Patch rows of the canvas for predicting the query output, (x, y,
    x_t, empty), and the empty cell's rows."""
    return _assemble("assemble_inference", (("x", x), ("y", y), ("x_t", x_t), None), patch_size)


def assemble_flipped(x, x_t, y_t_hat, patch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Patch rows of the role-flipped canvas for reconstructing the prompt
    output, (x, empty, x_t, y_t_hat), and the empty cell's rows.

    In training ``y_t_hat`` is a true cell. Tuning builds the canvas once
    per adaptation with a placeholder there, which ``tuning.cycle_loss``
    overwrites with each step's predicted rows on the tape. Values outside
    [0, 1] are rejected like any other cell's.
    """
    return _assemble("assemble_flipped", (("x", x), None, ("x_t", x_t), ("y_t_hat", y_t_hat)), patch_size)


def extract_cell(rows: np.ndarray) -> np.ndarray:
    """The [3, C, C] image whose patch rows, [(C/P)^2, 3P^2] in row-major
    patch order, are ``rows``. The inverse of ``patchify``."""
    rows = np.asarray(rows)
    n, width = rows.shape if rows.ndim == 2 else (0, 0)
    k, p = math.isqrt(n), math.isqrt(width // 3)
    if k == 0 or p == 0 or k * k != n or 3 * p * p != width:
        raise ValueError(f"extract_cell: expected [(C/P)^2, 3P^2] patch rows, got {rows.shape}")
    return rows.reshape(k, k, p, p, 3).transpose(4, 0, 2, 1, 3).reshape(3, k * p, k * p)


# ---------------------------------------------------------------------------
# portable pixmap dumps for qualitative inspection
# ---------------------------------------------------------------------------


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write a [3, H, W] array in [0, 1] as a binary P6 pixmap (maxval 255)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"write_ppm: expected [3, H, W], got {arr.shape}")
    quantized = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    interleaved = quantized.transpose(1, 2, 0)  # H, W, RGB
    header = f"P6\n{arr.shape[2]} {arr.shape[1]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + interleaved.tobytes())
