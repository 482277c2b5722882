"""2x2 grid canvases for image-to-image in-context inpainting.

A canvas holds four equally sized image cells: prompt input (top left),
prompt output (top right), query input (bottom left), query output
(bottom right). Exactly one cell is empty at assembly time; its patches
and only its patches are masked for the model. ``assemble_inference``
leaves the bottom-right (query output) empty; ``assemble_flipped`` swaps
the roles of prompt and query, leaving the top-right empty and placing
the predicted query output at the bottom right.

The model reads and writes patch rows, never canvas pixels.
``Canvas.patches`` gives it the canvas as one numpy matrix of P x P
patches, each flattened (row, column, channel), in row-major order over
the (2C/P)^2 patch grid. This module is plain numpy and knows no tape:
the one cell that enters the model on the tape, the prediction in
tuning's flipped canvas, is put into the flipped canvas's rows by
``tuning.cycle_loss`` (one ``put_rows`` node). The model returns only the
empty cell's (C/P)^2 rows; the losses score them against ``patchify`` of
the true cell, and ``extract_cell`` turns them back into a [3, C, C]
image only where an image leaves the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

EMPTY_FILL = 0.5


class CellPosition(Enum):
    TOP_LEFT = "top_left"
    TOP_RIGHT = "top_right"
    BOTTOM_LEFT = "bottom_left"
    BOTTOM_RIGHT = "bottom_right"


# (row, column) of each cell in the 2x2 grid
_PLACEMENT = {
    CellPosition.TOP_LEFT: (0, 0),
    CellPosition.TOP_RIGHT: (0, 1),
    CellPosition.BOTTOM_LEFT: (1, 0),
    CellPosition.BOTTOM_RIGHT: (1, 1),
}


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


def cell_rows(position: CellPosition, half: int) -> np.ndarray:
    """Rows of ``position``'s half x half patches in the (2 half)^2 patch
    grid, in row-major order within the cell."""
    row, col = _PLACEMENT[position]
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


@dataclass(frozen=True)
class Canvas:
    """Four cells, one of which is empty; ``patches`` gives the model its
    patch matrix.

    ``empty_position`` is the cell the model masks and the cell whose
    prediction the caller reads back.
    """

    cells: dict[CellPosition, np.ndarray | None]
    cell_size: int
    empty_position: CellPosition

    def _half(self, patch_size: int) -> int:
        if self.cell_size % patch_size != 0:
            raise ValueError(f"Canvas: cell size {self.cell_size} not a multiple of patch size {patch_size}")
        return self.cell_size // patch_size

    def patches(self, patch_size: int) -> np.ndarray:
        """[(2C/P)^2, 3P^2] patch rows of the whole canvas, the empty cell's
        filled with ``EMPTY_FILL``."""
        self._half(patch_size)
        c = self.cell_size
        dtype = next(image.dtype for image in self.cells.values() if image is not None)
        pixels = np.full((3, 2 * c, 2 * c), EMPTY_FILL, dtype=dtype)
        for position, image in self.cells.items():
            if image is not None:
                row, col = _PLACEMENT[position]
                pixels[:, row * c : (row + 1) * c, col * c : (col + 1) * c] = image
        return patchify(pixels, patch_size)

    def empty_rows(self, patch_size: int) -> np.ndarray:
        """Rows of the empty cell's patches in ``patches``, in the order
        ``extract_cell`` reads them."""
        return cell_rows(self.empty_position, self._half(patch_size))


def _assemble(owner: str, cells: dict[CellPosition, tuple[str, object] | None]) -> Canvas:
    """Canvas of ``cells``, each a named image of one even cell size; the
    cell mapped to ``None`` is the empty one."""
    images: dict[CellPosition, np.ndarray | None] = dict.fromkeys(cells)
    c = None
    for position, cell in cells.items():
        if cell is not None:
            name, image = cell
            images[position] = np.asarray(image)
            c = check_image(f"{owner}({name})", images[position], c)
            if c % 2 != 0:
                raise ValueError(f"{owner}({name}): cell size must be even, got {c}")
    empty = next(position for position, cell in cells.items() if cell is None)
    return Canvas(cells=images, cell_size=c, empty_position=empty)


def assemble_inference(x, y, x_t) -> Canvas:
    """Canvas for predicting the query output: (x, y, x_t, empty)."""
    return _assemble(
        "assemble_inference",
        {
            CellPosition.TOP_LEFT: ("x", x),
            CellPosition.TOP_RIGHT: ("y", y),
            CellPosition.BOTTOM_LEFT: ("x_t", x_t),
            CellPosition.BOTTOM_RIGHT: None,
        },
    )


def assemble_flipped(x, x_t, y_t_hat) -> Canvas:
    """Role-flipped canvas for reconstructing the prompt output: (x, empty, x_t, y_t_hat).

    In training ``y_t_hat`` is a true cell. Tuning builds the canvas once
    per adaptation with a placeholder there, which ``tuning.cycle_loss``
    overwrites with each step's predicted rows on the tape. Values outside
    [0, 1] are rejected like any other cell's.
    """
    return _assemble(
        "assemble_flipped",
        {
            CellPosition.TOP_LEFT: ("x", x),
            CellPosition.TOP_RIGHT: None,
            CellPosition.BOTTOM_LEFT: ("x_t", x_t),
            CellPosition.BOTTOM_RIGHT: ("y_t_hat", y_t_hat),
        },
    )


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
