"""2x2 grid canvases for image-to-image in-context inpainting.

A canvas holds four equally sized image cells: prompt input (top left),
prompt output (top right), query input (bottom left), query output
(bottom right). Exactly one cell is empty at assembly time; its patches
and only its patches are masked for the model. ``assemble_inference``
leaves the bottom-right (query output) empty; ``assemble_flipped`` swaps
the roles of prompt and query, leaving the top-right empty and placing
the predicted query output at the bottom right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .tensor import Tensor, as_tensor, concat, constant, narrow

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


@dataclass(frozen=True)
class Canvas:
    """Four cells, one of which is empty; ``pixels`` assembles [3, 2C, 2C].

    ``empty_position`` is the cell the model masks and the cell whose
    prediction the caller reads back.
    """

    cells: dict[CellPosition, Tensor | None]
    cell_size: int
    empty_position: CellPosition

    def pixels(self) -> Tensor:
        c = self.cell_size
        dtype = next(t.dtype for t in self.cells.values() if t is not None)
        fill = constant(np.full((3, c, c), EMPTY_FILL, dtype=dtype))
        grid = {_PLACEMENT[pos]: (fill if t is None else t) for pos, t in self.cells.items()}
        return concat([concat([grid[row, 0], grid[row, 1]], axis=2) for row in (0, 1)], axis=1)

    def patch_mask(self, patch_size: int) -> np.ndarray:
        """0/1 vector over the (2C/P)^2 patch grid in row-major order, 1 on
        the empty cell's patches."""
        if self.cell_size % patch_size != 0:
            raise ValueError(f"patch_mask: cell size {self.cell_size} not a multiple of patch size {patch_size}")
        half = self.cell_size // patch_size
        row, col = _PLACEMENT[self.empty_position]
        mask = np.zeros((2 * half, 2 * half))
        mask[row * half : (row + 1) * half, col * half : (col + 1) * half] = 1.0
        return mask.reshape(-1)


def _assemble(owner: str, cells: dict[CellPosition, tuple[str, object] | None]) -> Canvas:
    """Canvas of ``cells``, each a named image of one even cell size; the
    cell mapped to ``None`` is the empty one."""
    tensors: dict[CellPosition, Tensor | None] = dict.fromkeys(cells)
    c = None
    for position, cell in cells.items():
        if cell is not None:
            name, image = cell
            tensors[position] = as_tensor(image)
            c = check_image(f"{owner}({name})", tensors[position].data, c)
            if c % 2 != 0:
                raise ValueError(f"{owner}({name}): cell size must be even, got {c}")
    empty = next(position for position, cell in cells.items() if cell is None)
    return Canvas(cells=tensors, cell_size=c, empty_position=empty)


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

    ``y_t_hat`` goes in as given, so gradients reach the prediction that
    produced it. It is a model output (a logistic, already in [0, 1]) or,
    in training, a true cell; values outside [0, 1] are rejected like any
    other cell's.
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


def extract_cell(canvas_pixels: Tensor, position: CellPosition) -> Tensor:
    """Slice one quadrant [3, C, C] out of assembled pixels [3, 2C, 2C]."""
    t = as_tensor(canvas_pixels)
    if t.data.ndim != 3 or t.shape[0] != 3 or t.shape[1] != t.shape[2] or t.shape[1] % 2 != 0:
        raise ValueError(f"extract_cell: expected [3, 2C, 2C], got {t.shape}")
    c = t.shape[1] // 2
    row, col = _PLACEMENT[position]
    return narrow(narrow(t, 1, row * c, c), 2, col * c, c)


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
